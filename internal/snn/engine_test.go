package snn

import (
	"math"
	"math/rand"
	"testing"

	"falvolt/internal/faults"
	"falvolt/internal/fixed"
	"falvolt/internal/systolic"
	"falvolt/internal/tensor"
)

// mustNewArray is systolic.New for the tests' fixed, valid
// configurations.
func mustNewArray(cfg systolic.Config) *systolic.Array {
	a, err := systolic.New(cfg)
	if err != nil {
		panic(err)
	}
	return a
}

func tensorsBitIdentical(t *testing.T, ctx string, a, b *tensor.Tensor) {
	t.Helper()
	if !a.SameShape(b) {
		t.Fatalf("%s: shape %v vs %v", ctx, a.Shape, b.Shape)
	}
	for i := range a.Data {
		if math.Float32bits(a.Data[i]) != math.Float32bits(b.Data[i]) {
			t.Fatalf("%s: element %d differs: %v vs %v", ctx, i, a.Data[i], b.Data[i])
		}
	}
}

// TestConvForwardBackwardEngineEquivalence trains one step of a Conv2D on
// the serial and parallel engines and asserts outputs, input gradients
// and weight gradients are bit-identical, across odd shapes and worker
// counts.
func TestConvForwardBackwardEngineEquivalence(t *testing.T) {
	shapes := []struct{ n, inC, inH, inW, outC, k, stride, pad int }{
		{1, 1, 5, 5, 3, 3, 1, 1},
		{3, 2, 7, 9, 5, 3, 2, 1},
		{4, 3, 16, 16, 8, 3, 1, 1},
	}
	for _, workers := range []int{1, 2, 8} {
		par := tensor.NewParallel(workers)
		for _, sh := range shapes {
			mkConv := func() *Conv2D {
				c, err := NewConv2D(sh.inC, sh.inH, sh.inW, sh.outC, sh.k, sh.stride, sh.pad,
					true, rand.New(rand.NewSource(9)))
				if err != nil {
					t.Fatal(err)
				}
				return c
			}
			serialConv, parConv := mkConv(), mkConv()
			parConv.SetEngine(par)

			rng := rand.New(rand.NewSource(10))
			x := tensor.New(sh.n, sh.inC, sh.inH, sh.inW)
			x.RandNormal(rng, 1)
			g := tensor.New(sh.n, sh.outC, serialConv.Shape.OutH, serialConv.Shape.OutW)
			g.RandNormal(rng, 1)

			ys := serialConv.Forward(x, true)
			yp := parConv.Forward(x, true)
			tensorsBitIdentical(t, "conv forward", ys, yp)

			gs := serialConv.Backward(g)
			gp := parConv.Backward(g)
			tensorsBitIdentical(t, "conv input grad", gs, gp)
			tensorsBitIdentical(t, "conv weight grad",
				serialConv.weight.Grad, parConv.weight.Grad)

			// Inference path (scratch-backed) must agree with training path
			// activations.
			tensorsBitIdentical(t, "conv inference",
				serialConv.Forward(x, false), parConv.Forward(x, false))
		}
	}
}

// buildEvalFixture returns a small trained-ish model plus samples for
// evaluation equivalence tests.
func buildEvalFixture(t *testing.T) (*Model, []Sample) {
	t.Helper()
	spec := MNISTSpec()
	spec.T = 2
	spec.EncoderC, spec.BlockC, spec.FCHidden = 2, []int{4}, 16
	model, err := Build(spec, rand.New(rand.NewSource(3)))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(4))
	var samples []Sample
	for i := 0; i < 37; i++ { // odd count: ragged final batch
		x := tensor.New(1, spec.InC, spec.InH, spec.InW)
		x.RandUniform(rng, 0, 1)
		samples = append(samples, Sample{
			Seq:   StaticSequence{X: x, T: spec.T},
			Label: i % spec.Classes,
		})
	}
	return model, samples
}

// TestEvaluateBatchParallelMatchesSerial checks the sharded evaluation
// path returns the exact serial accuracy, on the float path and deployed
// on a faulty bypassed systolic array.
func TestEvaluateBatchParallelMatchesSerial(t *testing.T) {
	model, samples := buildEvalFixture(t)

	want := EvaluateWith(tensor.Serial(), model.Net, samples, 8)
	for _, workers := range []int{1, 2, 8} {
		got := EvaluateWith(tensor.NewParallel(workers), model.Net, samples, 8)
		if got != want {
			t.Fatalf("float path workers=%d: accuracy %v, want %v", workers, got, want)
		}
	}

	arr := mustNewArray(systolic.Config{
		Rows: 16, Cols: 16, Format: fixed.Q16x16, Saturate: true,
	})
	fm, err := faults.Generate(16, 16, faults.GenSpec{
		NumFaulty: 32, BitMode: faults.MSBBits, Pol: faults.StuckAt1,
	}, rand.New(rand.NewSource(6)))
	if err != nil {
		t.Fatal(err)
	}
	if err := arr.InjectFaults(fm); err != nil {
		t.Fatal(err)
	}
	arr.SetBypass(true)
	model.Net.Deploy(arr)
	defer model.Net.Undeploy()

	want = EvaluateWith(tensor.Serial(), model.Net, samples, 8)
	for _, workers := range []int{2, 8} {
		got := EvaluateWith(tensor.NewParallel(workers), model.Net, samples, 8)
		if got != want {
			t.Fatalf("deployed workers=%d: accuracy %v, want %v", workers, got, want)
		}
	}
}

// TestSetEnginePropagates asserts the engine seam reaches every GEMM
// layer and the clone keeps it.
func TestSetEnginePropagates(t *testing.T) {
	model, _ := buildEvalFixture(t)
	eng := tensor.NewParallel(2)
	model.Net.SetEngine(eng)
	if model.Net.Engine() != eng {
		t.Fatal("network engine not set")
	}
	for i, g := range model.Net.GEMMLayers() {
		switch l := g.(type) {
		case *Conv2D:
			if l.engine() != eng {
				t.Fatalf("conv layer %d engine not threaded", i)
			}
		case *Linear:
			if l.engine() != eng {
				t.Fatalf("linear layer %d engine not threaded", i)
			}
		}
	}
	clone := model.Net.InferenceClone()
	if clone.Engine() != eng {
		t.Fatal("inference clone lost the engine")
	}
	if len(clone.Layers) != len(model.Net.Layers) {
		t.Fatal("inference clone layer count mismatch")
	}
	// Clones share parameters with the original.
	for i := range clone.Layers {
		op := model.Net.Layers[i].Params()
		cp := clone.Layers[i].Params()
		if len(op) != len(cp) {
			t.Fatalf("layer %d: params %d vs %d", i, len(op), len(cp))
		}
		for j := range op {
			if op[j] != cp[j] {
				t.Fatalf("layer %d param %d not shared", i, j)
			}
		}
	}
}
