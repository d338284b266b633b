package snn

import (
	"fmt"
	"math/rand"

	"falvolt/internal/systolic"
)

// ModelSpec describes the paper's PLIF-SNN classifier family: a spike-
// encoding convolution + PLIF pair, a stack of {Conv, BatchNorm, PLIF,
// AvgPool} blocks (2 for MNIST/N-MNIST, 5 for DVS Gesture), and two
// {Dropout, FC, PLIF} head stages.
type ModelSpec struct {
	Name          string
	InC, InH, InW int
	Classes       int
	T             int
	EncoderC      int   // channels of the spike-encoder conv
	BlockC        []int // output channels of each conv block (each halves H,W)
	FCHidden      int
	DropoutP      float64
	Neuron        NeuronConfig
	// PoolMax selects 2x2 max pooling for the conv blocks instead of the
	// default average pooling. Max pooling preserves spike binariness, so
	// downstream layers keep the multiplier-less systolic path.
	PoolMax bool
}

// MNISTSpec is the scaled-down static-MNIST classifier (2 conv blocks).
func MNISTSpec() ModelSpec {
	return ModelSpec{
		Name: "mnist", InC: 1, InH: 16, InW: 16, Classes: 10, T: 4,
		EncoderC: 8, BlockC: []int{16, 16}, FCHidden: 64, DropoutP: 0.25,
		Neuron: DefaultNeuronConfig(),
	}
}

// NMNISTSpec is the neuromorphic N-MNIST classifier: same topology as
// MNIST but 2-polarity event input and a longer horizon.
func NMNISTSpec() ModelSpec {
	s := MNISTSpec()
	s.Name = "nmnist"
	s.InC = 2
	s.T = 8
	return s
}

// DVSGestureSpec is the DVS-Gesture classifier (5 conv blocks, 11 classes).
func DVSGestureSpec() ModelSpec {
	return ModelSpec{
		Name: "dvsgesture", InC: 2, InH: 32, InW: 32, Classes: 11, T: 8,
		EncoderC: 4, BlockC: []int{8, 8, 16, 16, 16}, FCHidden: 64, DropoutP: 0.25,
		Neuron: DefaultNeuronConfig(),
	}
}

// Model couples a built network with its spec and the names of its spiking
// layers (for per-layer threshold-voltage reporting, Fig. 6).
type Model struct {
	Net          *Network
	Spec         ModelSpec
	SpikingNames []string
}

// Build constructs the network for a spec using rng for weight init.
func Build(spec ModelSpec, rng *rand.Rand) (*Model, error) {
	if len(spec.BlockC) == 0 {
		return nil, fmt.Errorf("snn: spec %q needs at least one conv block", spec.Name)
	}
	var layers []Layer
	var names []string

	// Spike encoder: conv + BN + PLIF on the raw input. Batch norm keeps
	// the encoder's pre-activations near the threshold so spikes (and
	// surrogate gradients) flow from the first epoch, as in the reference
	// PLIF architecture of Fang et al. (ICCV'21).
	enc, err := NewConv2D(spec.InC, spec.InH, spec.InW, spec.EncoderC, 3, 1, 1, false, rng)
	if err != nil {
		return nil, fmt.Errorf("snn: encoder conv: %w", err)
	}
	layers = append(layers, enc, NewBatchNorm2D(spec.EncoderC), NewPLIFNode(spec.Neuron))
	names = append(names, "Enc")

	h, w, c := spec.InH, spec.InW, spec.EncoderC
	for i, outC := range spec.BlockC {
		conv, err := NewConv2D(c, h, w, outC, 3, 1, 1, false, rng)
		if err != nil {
			return nil, fmt.Errorf("snn: conv block %d: %w", i+1, err)
		}
		if h%2 != 0 || w%2 != 0 {
			return nil, fmt.Errorf("snn: block %d input %dx%d not poolable", i+1, h, w)
		}
		var pool Layer = NewAvgPool2()
		if spec.PoolMax {
			pool = NewMaxPool2()
		}
		layers = append(layers, conv, NewBatchNorm2D(outC), NewPLIFNode(spec.Neuron), pool)
		names = append(names, fmt.Sprintf("Conv%d", i+1))
		h, w, c = h/2, w/2, outC
	}

	layers = append(layers, NewFlatten())
	flat := c * h * w
	layers = append(layers,
		NewDropout(spec.DropoutP, rng),
		NewLinear(flat, spec.FCHidden, true, rng),
		NewPLIFNode(spec.Neuron),
	)
	names = append(names, "FC1")
	layers = append(layers,
		NewDropout(spec.DropoutP, rng),
		NewLinear(spec.FCHidden, spec.Classes, true, rng),
		NewPLIFNode(spec.Neuron),
	)
	names = append(names, "FC2")

	return &Model{
		Net:          NewNetwork(spec.T, layers...),
		Spec:         spec,
		SpikingNames: names,
	}, nil
}

// LayerShapes lowers the model's GEMM layers to systolic workload shapes
// for the dataflow timing/energy model: per conv, one streamed vector per
// output patch per batch item; per FC, one vector per batch item. Each
// layer executes once per timestep of the horizon.
func (m *Model) LayerShapes(batch int) []systolic.LayerShape {
	var out []systolic.LayerShape
	convIdx, fcIdx := 0, 0
	for _, g := range m.Net.GEMMLayers() {
		mm, k := g.GEMMShape()
		var shape systolic.LayerShape
		switch l := g.(type) {
		case *Conv2D:
			name := "Enc"
			if convIdx > 0 {
				name = fmt.Sprintf("Conv%d", convIdx)
			}
			convIdx++
			shape = systolic.LayerShape{
				Name: name, B: batch * l.Shape.PatchesPerItem, K: k, M: mm,
				Timesteps: m.Spec.T,
			}
		default:
			fcIdx++
			shape = systolic.LayerShape{
				Name: fmt.Sprintf("FC%d", fcIdx), B: batch, K: k, M: mm,
				Timesteps: m.Spec.T,
			}
		}
		out = append(out, shape)
	}
	return out
}
