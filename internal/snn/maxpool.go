package snn

import (
	"fmt"

	"falvolt/internal/tensor"
)

// MaxPool2 is non-overlapping 2x2 max pooling. Unlike average pooling it
// is spike-preserving: max of binary spikes is itself binary, so layers
// fed through it keep the multiplier-less systolic path at deployment.
type MaxPool2 struct {
	// Per-timestep argmax caches for gradient routing.
	argmax [][]int
	shapes [][2]int
}

// NewMaxPool2 constructs the pooling layer.
func NewMaxPool2() *MaxPool2 { return &MaxPool2{} }

// Forward implements Layer.
func (p *MaxPool2) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	if x.Rank() != 4 {
		panic(fmt.Sprintf("snn: MaxPool2 input must be rank 4, got %v", x.Shape))
	}
	n, c, h, w := x.Shape[0], x.Shape[1], x.Shape[2], x.Shape[3]
	if h%2 != 0 || w%2 != 0 {
		panic(fmt.Sprintf("snn: MaxPool2 needs even spatial dims, got %dx%d", h, w))
	}
	oh, ow := h/2, w/2
	out := newActivation(train, n, c, oh, ow)
	var arg []int
	if train {
		arg = make([]int, out.Len())
	}
	for b := 0; b < n; b++ {
		for ch := 0; ch < c; ch++ {
			ibase := (b*c + ch) * h * w
			obase := (b*c + ch) * oh * ow
			for oy := 0; oy < oh; oy++ {
				for ox := 0; ox < ow; ox++ {
					iy, ix := oy*2, ox*2
					idx := ibase + iy*w + ix
					best, bestIdx := x.Data[idx], idx
					for _, cand := range [3]int{idx + 1, idx + w, idx + w + 1} {
						if x.Data[cand] > best {
							best, bestIdx = x.Data[cand], cand
						}
					}
					o := obase + oy*ow + ox
					out.Data[o] = best
					if train {
						arg[o] = bestIdx
					}
				}
			}
		}
	}
	if train {
		p.argmax = append(p.argmax, arg)
		p.shapes = append(p.shapes, [2]int{h, w})
	}
	return out
}

// Backward implements Layer: the gradient routes to the argmax position
// of each window.
func (p *MaxPool2) Backward(grad *tensor.Tensor) *tensor.Tensor {
	arg := p.argmax[len(p.argmax)-1]
	p.argmax = p.argmax[:len(p.argmax)-1]
	hw := p.shapes[len(p.shapes)-1]
	p.shapes = p.shapes[:len(p.shapes)-1]
	n, c := grad.Shape[0], grad.Shape[1]
	out := tensor.New(n, c, hw[0], hw[1])
	for i, g := range grad.Data {
		out.Data[arg[i]] += g
	}
	return out
}

// Params implements Layer.
func (p *MaxPool2) Params() []*Param { return nil }

// CloneInference implements Layer.
func (p *MaxPool2) CloneInference() Layer { return NewMaxPool2() }

// CloneTraining implements Layer.
func (p *MaxPool2) CloneTraining() Layer { return NewMaxPool2() }

// ResetState implements Layer.
func (p *MaxPool2) ResetState() {
	p.argmax = p.argmax[:0]
	p.shapes = p.shapes[:0]
}
