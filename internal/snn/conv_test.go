package snn

import (
	"math"
	"math/rand"
	"testing"

	"falvolt/internal/tensor"
)

// denseConvStep is the dense im2col formulation of one Conv2D training
// step that the sparse patch path replaced, kept as the reference: the
// forward is im2col + a full dot product over every patch column (zeros
// included, kk ascending, as MatMulTransB ran before it skipped zeros),
// the weight gradient MatMulTransA(g2, cols) and the input gradient
// MatMul + Col2Im. It returns the output, the weight-gradient increment,
// the bias-gradient increment and the input gradient.
func denseConvStep(c *Conv2D, x, grad *tensor.Tensor) (y, gw, gb, gx *tensor.Tensor) {
	cs := c.Shape
	n := x.Shape[0]
	w := c.weight.Value
	cols := tensor.Im2Col(x, cs)
	rows := cols.Shape[0]
	y2 := tensor.New(rows, cs.M)
	for r := 0; r < rows; r++ {
		for m := 0; m < cs.M; m++ {
			var s float32
			for kk := 0; kk < cs.K; kk++ {
				s += cols.Data[r*cs.K+kk] * w.Data[m*cs.K+kk]
			}
			y2.Data[r*cs.M+m] = s
		}
	}
	y = c.patchesToNCHW(y2, n, true)

	g2 := tensor.New(rows, cs.M)
	c.nchwToPatches(g2, grad, n)
	gw = tensor.MatMulTransAUsing(tensor.Serial(), g2, cols)
	gb = tensor.New(cs.M)
	for b := 0; b < n; b++ {
		for m := 0; m < cs.M; m++ {
			var s float32
			for _, v := range grad.Data[(b*cs.M+m)*cs.PatchesPerItem : (b*cs.M+m+1)*cs.PatchesPerItem] {
				s += v
			}
			gb.Data[m] += s
		}
	}
	gx = tensor.Col2ImUsing(tensor.Serial(), tensor.MatMulUsing(tensor.Serial(), g2, w), n, cs)
	return y, gw, gb, gx
}

// convInput returns an [n, c, h, w] input at the given density: binary
// spikes, or (analog) normal values with the zeros split between +0 and
// −0. Item 0 is entirely zero and so is the first image row of every
// channel of item 1, so all-zero patch rows and items occur at every
// density.
func convInput(rng *rand.Rand, density float64, analog bool, n, c, h, w int) *tensor.Tensor {
	x := tensor.New(n, c, h, w)
	negZero := float32(math.Copysign(0, -1))
	for i := range x.Data {
		item, rem := i/(c*h*w), i%(h*w)
		switch {
		case item == 0, item == 1 && rem < w, rng.Float64() >= density:
			if analog && i%2 == 1 {
				x.Data[i] = negZero
			}
		case analog:
			x.Data[i] = float32(rng.NormFloat64())
		default:
			x.Data[i] = 1
		}
	}
	return x
}

// TestConvSparseMatchesDenseEngines checks the spike-sparse training path
// of Conv2D bit for bit against the dense im2col formulation: outputs
// (training and undeployed inference), weight, bias and input gradients,
// for binary inputs at 0/5/30/100% density and analog inputs with exact
// zeros, over strides 1 and 2, pads 0 and 1, ragged shapes and negative
// weights, on the serial engine and parallel engines of 1, 2 and 8
// workers.
func TestConvSparseMatchesDenseEngines(t *testing.T) {
	shapes := []struct {
		n, inC, inH, inW, outC, k, stride, pad int
		bias, negative                         bool
	}{
		{2, 1, 5, 5, 3, 3, 1, 1, true, false},
		{3, 2, 7, 9, 5, 3, 2, 1, false, true},
		{3, 3, 6, 5, 4, 3, 2, 0, true, true},
		{4, 2, 16, 16, 8, 3, 1, 1, false, false},
		{2, 8, 9, 7, 16, 3, 1, 0, false, false},
	}
	engines := []tensor.Backend{tensor.Serial()}
	for _, w := range []int{1, 2, 8} {
		engines = append(engines, tensor.NewParallel(w))
	}
	inputs := []struct {
		density float64
		analog  bool
	}{{0, false}, {0.05, false}, {0.3, false}, {1, false}, {0.3, true}, {1, true}}
	rng := rand.New(rand.NewSource(41))
	for _, sh := range shapes {
		for _, in := range inputs {
			x := convInput(rng, in.density, in.analog, sh.n, sh.inC, sh.inH, sh.inW)
			ref, err := NewConv2D(sh.inC, sh.inH, sh.inW, sh.outC, sh.k, sh.stride, sh.pad, sh.bias, rand.New(rand.NewSource(42)))
			if err != nil {
				t.Fatal(err)
			}
			if sh.negative {
				for i, v := range ref.weight.Value.Data {
					ref.weight.Value.Data[i] = -float32(math.Abs(float64(v)))
				}
			}
			grad := tensor.New(sh.n, sh.outC, ref.Shape.OutH, ref.Shape.OutW)
			for i := range grad.Data {
				if rng.Float64() < 0.7 {
					grad.Data[i] = float32(rng.NormFloat64())
				}
			}
			wantY, wantGW, wantGB, wantGX := denseConvStep(ref, x, grad)
			for _, eng := range engines {
				c := ref.CloneTraining().(*Conv2D)
				c.SetEngine(eng)
				// Two timesteps: the second pops first, so the stack order
				// of the cached patches is exercised too.
				y0 := c.Forward(x, true)
				y1 := c.Forward(x, true)
				name := eng.Name() + " "
				tensorsBitIdentical(t, name+"forward", wantY, y0)
				tensorsBitIdentical(t, name+"forward t1", wantY, y1)
				tensorsBitIdentical(t, name+"inference", wantY, c.Forward(x, false))
				tensorsBitIdentical(t, name+"input grad", wantGX, c.Backward(grad))
				tensorsBitIdentical(t, name+"weight grad", wantGW, c.weight.Grad)
				if sh.bias {
					tensorsBitIdentical(t, name+"bias grad", wantGB, c.bias.Grad)
				}
				c.backward(grad, false) // the encoder's step: no input gradient
				twice := wantGW.Clone()
				twice.AddInPlace(wantGW)
				tensorsBitIdentical(t, name+"weight grad, second step", twice, c.weight.Grad)
			}
		}
	}
}

// TestNetworkBackwardMatchesLayerByLayer runs one training step of a
// quick MNIST model and checks that Network.Backward, which skips the
// encoder's input gradient, leaves the same parameter gradients as
// backpropagating through every layer by hand, layer 0's full Backward
// (input gradient included) among them.
func TestNetworkBackwardMatchesLayerByLayer(t *testing.T) {
	spec := MNISTSpec()
	spec.T = 3
	build := func() *Model {
		m, err := Build(spec, rand.New(rand.NewSource(51)))
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	rng := rand.New(rand.NewSource(52))
	x := tensor.New(6, spec.InC, spec.InH, spec.InW)
	for i := range x.Data {
		if rng.Float64() < 0.4 {
			x.Data[i] = float32(rng.Float64())
		}
	}
	labels := []int{0, 1, 2, 3, 4, 5}
	step := func(m *Model) *tensor.Tensor {
		rate := m.Net.Forward(StaticSequence{X: x, T: spec.T}, true)
		_, grad := MSERate{}.Loss(rate, OneHot(labels, spec.Classes))
		return grad
	}

	auto := build()
	auto.Net.Backward(step(auto))

	manual := build()
	perStep := step(manual)
	perStep.Scale(1 / float32(spec.T))
	for ts := spec.T - 1; ts >= 0; ts-- {
		g := perStep
		for i := len(manual.Net.Layers) - 1; i >= 0; i-- {
			g = manual.Net.Layers[i].Backward(g)
		}
		if !g.SameShape(x) {
			t.Fatalf("layer 0 input gradient shape %v, want %v", g.Shape, x.Shape)
		}
	}

	ap, mp := auto.Net.Params(), manual.Net.Params()
	if len(ap) != len(mp) {
		t.Fatalf("%d vs %d params", len(ap), len(mp))
	}
	nonzero := false
	for i := range ap {
		tensorsBitIdentical(t, ap[i].Name+" grad", mp[i].Grad, ap[i].Grad)
		for _, g := range ap[i].Grad.Data {
			nonzero = nonzero || g != 0
		}
	}
	if !nonzero {
		t.Fatal("every parameter gradient is zero; the step exercised nothing")
	}
}
