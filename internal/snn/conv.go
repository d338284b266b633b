package snn

import (
	"fmt"
	"math/rand"

	"falvolt/internal/systolic"
	"falvolt/internal/tensor"
)

// Deployment routes a layer's GEMM through a (possibly faulty) systolic
// array instead of the float reference path. Weights are quantized to the
// array's fixed-point format when the deployment is installed.
type Deployment struct {
	Array *systolic.Array
	// Binary marks the layer's input as binary spikes (the multiplier-less
	// accumulate path); false uses the quantized-product path for the
	// analog encoder layer.
	Binary bool

	// MPerm, when non-nil, is a fault-aware permutation of the layer's M
	// output rows: physical slot j of the GEMM stores logical row
	// MPerm[j], steering significant weights away from faulty array
	// columns (ReSpawn-style mapping). Outputs are unpermuted on the way
	// back, so the layer's logical contract is unchanged.
	MPerm []int
	// KPerm permutes the K reduction dimension the same way across array
	// rows: physical slot i streams logical input KPerm[i]. The input's
	// patch rows are permuted to match on every forward call.
	KPerm []int
	// ClampLo/ClampHi, when non-nil, bound each logical output row of the
	// GEMM result (SoftSNN-style range restriction): a fault-free output
	// always lies within the bounds, so clamping only clips corruption.
	ClampLo, ClampHi []float32

	weights *systolic.Matrix
}

// GEMMWeighted is implemented by layers whose weights are lowered onto the
// systolic array as an [M, K] GEMM; the mitigation pipeline uses it to
// derive prune masks and install deployments uniformly.
type GEMMWeighted interface {
	Layer
	// WeightMatrix returns the live [M, K] weight tensor (not a copy).
	WeightMatrix() *tensor.Tensor
	// GEMMShape returns (M, K): output and reduction dimensions.
	GEMMShape() (m, k int)
	// SetDeployment installs (or removes, with nil) a systolic deployment.
	SetDeployment(d *Deployment)
	// Deployment returns the active deployment, if any.
	Deployment() *Deployment
}

// Conv2D is a 2-D convolution lowered to im2col + GEMM. Weights are stored
// directly in GEMM form [OutC, InC*KH*KW], the same layout that is mapped
// onto the systolic array.
//
// Forward lowers the input once, to tensor.Patches: the im2col patch
// matrix as compressed sparse rows, built from the input's nonzero
// pixels. A deployed layer streams those rows into the systolic array;
// otherwise the float GEMM multiplies only the stored entries, and
// training keeps each timestep's Patches for Backward, whose weight
// gradient reads the same rows. Spike inputs leave most patch entries
// zero. The float results are bit-identical to the dense im2col + GEMM
// formulation whenever the weights and gradients are finite (see
// tensor.Patches).
type Conv2D struct {
	Shape tensor.ConvShape

	weight *Param
	bias   *Param // nil when the conv is followed by batch norm

	deploy *Deployment
	eng    tensor.Backend // nil = tensor.Default()

	patches []*tensor.Patches // per-timestep lowered inputs, popped by Backward
}

// NewConv2D constructs a convolution; bias is usually disabled because the
// paper's blocks pair each conv with batch normalization.
func NewConv2D(inC, inH, inW, outC, k, stride, pad int, bias bool, rng *rand.Rand) (*Conv2D, error) {
	cs, err := tensor.NewConvShape(inC, inH, inW, outC, k, k, stride, pad)
	if err != nil {
		return nil, err
	}
	c := &Conv2D{Shape: cs}
	w := tensor.New(cs.M, cs.K)
	w.KaimingNormal(rng, cs.K)
	c.weight = NewParam("conv.weight", w)
	if bias {
		c.bias = NewParam("conv.bias", tensor.New(cs.M))
	}
	return c, nil
}

// WeightMatrix implements GEMMWeighted.
func (c *Conv2D) WeightMatrix() *tensor.Tensor { return c.weight.Value }

// GEMMShape implements GEMMWeighted.
func (c *Conv2D) GEMMShape() (int, int) { return c.Shape.M, c.Shape.K }

// SetDeployment implements GEMMWeighted.
func (c *Conv2D) SetDeployment(d *Deployment) {
	c.deploy = d
	if d != nil {
		d.install(c.weight.Value)
	}
}

// Deployment implements GEMMWeighted.
func (c *Conv2D) Deployment() *Deployment { return c.deploy }

// SetEngine overrides the compute backend (nil restores tensor.Default()).
func (c *Conv2D) SetEngine(e tensor.Backend) { c.eng = e }

func (c *Conv2D) engine() tensor.Backend {
	if c.eng != nil {
		return c.eng
	}
	return tensor.Default()
}

// CloneInference implements Layer.
func (c *Conv2D) CloneInference() Layer {
	return &Conv2D{Shape: c.Shape, weight: c.weight, bias: c.bias, deploy: c.deploy, eng: c.eng}
}

// CloneTraining implements Layer: weight/bias values are shared with
// private gradient accumulators. The deployment is dropped — the training
// forward never routes through the systolic array, and sharing it would
// let concurrent replicas race on the array's timestep hook.
func (c *Conv2D) CloneTraining() Layer {
	return &Conv2D{Shape: c.Shape, weight: shadowParam(c.weight), bias: shadowParam(c.bias), eng: c.eng}
}

// Forward implements Layer. Input is [N, InC, InH, InW]; output
// [N, OutC, OutH, OutW].
func (c *Conv2D) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	if x.Rank() != 4 {
		panic(fmt.Sprintf("snn: Conv2D input must be rank 4, got %v", x.Shape))
	}
	eng := c.engine()
	n := x.Shape[0]
	p := tensor.Im2Patches(eng, x, c.Shape)
	var y2 *tensor.Tensor
	if c.deploy != nil && !train {
		y2 = c.deploy.forward(p)
		p.Release()
	} else {
		y2 = tensor.GetScratch(n*c.Shape.PatchesPerItem, c.Shape.M)
		p.MatMulTransB(eng, y2, c.weight.Value)
		if train {
			c.patches = append(c.patches, p)
		} else {
			p.Release()
		}
	}
	out := c.patchesToNCHW(y2, n, train)
	tensor.ReleaseScratch(y2)
	return out
}

// patchesToNCHW converts a [N*P, M] GEMM result into [N, M, OH, OW],
// fanning out across batch items (items write disjoint output planes).
func (c *Conv2D) patchesToNCHW(y2 *tensor.Tensor, n int, train bool) *tensor.Tensor {
	p := c.Shape.PatchesPerItem
	m := c.Shape.M
	out := newActivation(train, n, m, c.Shape.OutH, c.Shape.OutW)
	c.engine().For(n, func(b0, b1 int) {
		for b := b0; b < b1; b++ {
			for pi := 0; pi < p; pi++ {
				src := y2.Data[(b*p+pi)*m : (b*p+pi+1)*m]
				for mi, v := range src {
					out.Data[(b*m+mi)*p+pi] = v
				}
			}
			if c.bias != nil {
				for mi := 0; mi < m; mi++ {
					bv := c.bias.Value.Data[mi]
					row := out.Data[(b*m+mi)*p : (b*m+mi+1)*p]
					for i := range row {
						row[i] += bv
					}
				}
			}
		}
	})
	return out
}

// nchwToPatches converts a gradient [N, M, OH, OW] into [N*P, M].
func (c *Conv2D) nchwToPatches(dst, g *tensor.Tensor, n int) {
	p := c.Shape.PatchesPerItem
	m := c.Shape.M
	c.engine().For(n, func(b0, b1 int) {
		for b := b0; b < b1; b++ {
			for mi := 0; mi < m; mi++ {
				src := g.Data[(b*m+mi)*p : (b*m+mi+1)*p]
				for pi, v := range src {
					dst.Data[(b*p+pi)*m+mi] = v
				}
			}
		}
	})
}

// Backward implements Layer. The staging matrices (transposed gradient,
// patch gradient) all die within this call and come from recycled
// scratch.
func (c *Conv2D) Backward(grad *tensor.Tensor) *tensor.Tensor {
	return c.backward(grad, true)
}

// backward pops the timestep's patches, accumulates the weight and bias
// gradients and, when inputGrad is set, returns the gradient wrt the
// input (nil otherwise).
func (c *Conv2D) backward(grad *tensor.Tensor, inputGrad bool) *tensor.Tensor {
	if len(c.patches) == 0 {
		panic("snn: backward called more times than forward (cache underflow)")
	}
	pat := c.patches[len(c.patches)-1]
	c.patches = c.patches[:len(c.patches)-1]
	n := pat.N
	eng := c.engine()

	g2 := tensor.GetScratch(n*c.Shape.PatchesPerItem, c.Shape.M)
	c.nchwToPatches(g2, grad, n) // [N*P, M]
	pat.AddWeightGrad(eng, c.weight.Grad, g2)
	pat.Release()
	if c.bias != nil {
		p := c.Shape.PatchesPerItem
		for b := 0; b < n; b++ {
			for mi := 0; mi < c.Shape.M; mi++ {
				row := grad.Data[(b*c.Shape.M+mi)*p : (b*c.Shape.M+mi+1)*p]
				var s float32
				for _, v := range row {
					s += v
				}
				c.bias.Grad.Data[mi] += s
			}
		}
	}
	if !inputGrad {
		tensor.ReleaseScratch(g2)
		return nil
	}
	gcols := tensor.GetScratch(n*c.Shape.PatchesPerItem, c.Shape.K)
	eng.MatMul(gcols, g2, c.weight.Value) // [N*P, K]
	tensor.ReleaseScratch(g2)
	out := tensor.Col2ImUsing(eng, gcols, n, c.Shape)
	tensor.ReleaseScratch(gcols)
	return out
}

// Params implements Layer.
func (c *Conv2D) Params() []*Param {
	if c.bias != nil {
		return []*Param{c.weight, c.bias}
	}
	return []*Param{c.weight}
}

// ResetState implements Layer.
func (c *Conv2D) ResetState() {
	for _, p := range c.patches {
		p.Release()
	}
	c.patches = c.patches[:0]
}

// Linear is a fully-connected layer y = x·Wᵀ + b with weights in GEMM form
// [Out, In].
type Linear struct {
	In, Out int

	weight *Param
	bias   *Param

	deploy *Deployment
	eng    tensor.Backend // nil = tensor.Default()

	xs cacheStack
}

// NewLinear constructs a fully-connected layer with Kaiming init.
func NewLinear(in, out int, bias bool, rng *rand.Rand) *Linear {
	l := &Linear{In: in, Out: out}
	w := tensor.New(out, in)
	w.KaimingNormal(rng, in)
	l.weight = NewParam("linear.weight", w)
	if bias {
		l.bias = NewParam("linear.bias", tensor.New(out))
	}
	return l
}

// WeightMatrix implements GEMMWeighted.
func (l *Linear) WeightMatrix() *tensor.Tensor { return l.weight.Value }

// GEMMShape implements GEMMWeighted.
func (l *Linear) GEMMShape() (int, int) { return l.Out, l.In }

// SetDeployment implements GEMMWeighted.
func (l *Linear) SetDeployment(d *Deployment) {
	l.deploy = d
	if d != nil {
		d.install(l.weight.Value)
	}
}

// Deployment implements GEMMWeighted.
func (l *Linear) Deployment() *Deployment { return l.deploy }

// SetEngine overrides the compute backend (nil restores tensor.Default()).
func (l *Linear) SetEngine(e tensor.Backend) { l.eng = e }

func (l *Linear) engine() tensor.Backend {
	if l.eng != nil {
		return l.eng
	}
	return tensor.Default()
}

// CloneInference implements Layer.
func (l *Linear) CloneInference() Layer {
	return &Linear{In: l.In, Out: l.Out, weight: l.weight, bias: l.bias, deploy: l.deploy, eng: l.eng}
}

// CloneTraining implements Layer (see Conv2D.CloneTraining).
func (l *Linear) CloneTraining() Layer {
	return &Linear{In: l.In, Out: l.Out, weight: shadowParam(l.weight), bias: shadowParam(l.bias), eng: l.eng}
}

// Forward implements Layer. Input may be rank 2 [N, In] or rank 4 (it is
// flattened), matching how conv features feed the classifier head.
func (l *Linear) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	n := x.Shape[0]
	flat := x
	if x.Rank() != 2 {
		flat = x.Reshape(n, x.Len()/n)
	}
	if flat.Shape[1] != l.In {
		panic(fmt.Sprintf("snn: Linear input dim %d, want %d", flat.Shape[1], l.In))
	}
	var y *tensor.Tensor
	if l.deploy != nil && !train {
		p := tensor.RowPatches(flat)
		y = l.deploy.forward(p)
		p.Release()
	} else {
		y = tensor.MatMulTransBUsing(l.engine(), flat, l.weight.Value)
	}
	if l.bias != nil {
		for b := 0; b < n; b++ {
			row := y.Data[b*l.Out : (b+1)*l.Out]
			for i := range row {
				row[i] += l.bias.Value.Data[i]
			}
		}
	}
	if train {
		l.xs.push(flat)
	}
	return y
}

// Backward implements Layer.
func (l *Linear) Backward(grad *tensor.Tensor) *tensor.Tensor {
	x := l.xs.pop()
	eng := l.engine()
	gw := tensor.GetScratch(l.Out, l.In)
	eng.MatMulTransA(gw, grad, x)
	l.weight.Grad.AddInPlace(gw)
	tensor.ReleaseScratch(gw)
	if l.bias != nil {
		n := grad.Shape[0]
		for b := 0; b < n; b++ {
			row := grad.Data[b*l.Out : (b+1)*l.Out]
			for i, v := range row {
				l.bias.Grad.Data[i] += v
			}
		}
	}
	return tensor.MatMulUsing(eng, grad, l.weight.Value)
}

// Params implements Layer.
func (l *Linear) Params() []*Param {
	if l.bias != nil {
		return []*Param{l.weight, l.bias}
	}
	return []*Param{l.weight}
}

// ResetState implements Layer.
func (l *Linear) ResetState() { l.xs.reset() }
