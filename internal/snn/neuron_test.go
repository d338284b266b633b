package snn

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"falvolt/internal/tensor"
)

func TestPLIFSpikesAboveThreshold(t *testing.T) {
	n := NewPLIFNode(NeuronConfig{VThreshold: 1.0, InitTau: 2.0})
	// With tau=2 (a=0.5) and v0=0: H = 0.5*x. x=3 -> H=1.5 > 1 -> spike.
	x := tensor.FromSlice([]float32{3, 0.5}, 1, 2)
	o := n.Forward(x, false)
	if o.Data[0] != 1 {
		t.Error("strong input should spike")
	}
	if o.Data[1] != 0 {
		t.Error("weak input should not spike")
	}
}

func TestPLIFHardReset(t *testing.T) {
	n := NewPLIFNode(NeuronConfig{VThreshold: 1.0, InitTau: 2.0})
	x := tensor.FromSlice([]float32{4}, 1, 1)
	o1 := n.Forward(x, false)
	if o1.Data[0] != 1 {
		t.Fatal("expected first spike")
	}
	// After a spike, v resets to 0; same charge pattern repeats.
	o2 := n.Forward(x, false)
	if o2.Data[0] != 1 {
		t.Error("membrane should have reset and recharged identically")
	}
}

func TestPLIFMembraneIntegration(t *testing.T) {
	n := NewPLIFNode(NeuronConfig{VThreshold: 1.0, InitTau: 2.0})
	// Subthreshold input accumulates: H1 = 0.5*0.8 = 0.4, v1 = 0.4;
	// H2 = 0.4 + 0.5*(0.8-0.4) = 0.6 ... converges to 0.8 < 1: no spike.
	x := tensor.FromSlice([]float32{0.8}, 1, 1)
	for i := 0; i < 10; i++ {
		o := n.Forward(x, false)
		if o.Data[0] != 0 {
			t.Fatalf("input below threshold must never spike (step %d)", i)
		}
	}
	// Input above threshold eventually spikes even from rest.
	n2 := NewPLIFNode(NeuronConfig{VThreshold: 1.0, InitTau: 2.0})
	x2 := tensor.FromSlice([]float32{1.5}, 1, 1)
	spiked := false
	for i := 0; i < 10; i++ {
		if n2.Forward(x2, false).Data[0] == 1 {
			spiked = true
			break
		}
	}
	if !spiked {
		t.Error("suprathreshold input should spike within a few steps")
	}
}

func TestLowerVthSpikesMore(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	x := tensor.New(8, 16)
	x.RandUniform(rng, 0, 2)
	count := func(vth float64) float64 {
		n := NewPLIFNode(NeuronConfig{VThreshold: vth, InitTau: 2.0})
		var total float64
		for step := 0; step < 4; step++ {
			total += n.Forward(x, false).Sum()
		}
		return total
	}
	lo, hi := count(0.5), count(1.5)
	if lo <= hi {
		t.Errorf("lower threshold should fire more: vth=0.5 -> %v spikes, vth=1.5 -> %v", lo, hi)
	}
}

func TestPLIFOutputsAreBinary(t *testing.T) {
	err := quick.Check(func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := NewPLIFNode(DefaultNeuronConfig())
		x := tensor.New(4, 8)
		x.RandNormal(rng, 2)
		for step := 0; step < 3; step++ {
			o := n.Forward(x, false)
			for _, v := range o.Data {
				if v != 0 && v != 1 {
					return false
				}
			}
		}
		return true
	}, &quick.Config{MaxCount: 25})
	if err != nil {
		t.Error(err)
	}
}

func TestPLIFConfigValidation(t *testing.T) {
	for _, bad := range []NeuronConfig{
		{VThreshold: 0, InitTau: 2},
		{VThreshold: -1, InitTau: 2},
		{VThreshold: 1, InitTau: 1},
		{VThreshold: 1, InitTau: 0.5},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("config %+v should panic", bad)
				}
			}()
			NewPLIFNode(bad)
		}()
	}
}

func TestSetVthValidation(t *testing.T) {
	n := NewPLIFNode(DefaultNeuronConfig())
	n.SetVth(0.7)
	if math.Abs(n.Vth()-0.7) > 1e-6 {
		t.Errorf("Vth = %v, want 0.7", n.Vth())
	}
	defer func() {
		if recover() == nil {
			t.Error("SetVth(0) should panic")
		}
	}()
	n.SetVth(0)
}

func TestTauRoundTrip(t *testing.T) {
	n := NewPLIFNode(NeuronConfig{VThreshold: 1, InitTau: 3.5})
	// The membrane time constant is τ = 1/sigmoid(w).
	if tau := 1 / sigmoid(float64(n.tauW.Value.Data[0])); math.Abs(tau-3.5) > 1e-5 {
		t.Errorf("τ = %v, want 3.5", tau)
	}
}

func TestParamsExposureFollowsFlags(t *testing.T) {
	n := NewPLIFNode(NeuronConfig{VThreshold: 1, InitTau: 2})
	if len(n.Params()) != 0 {
		t.Errorf("no learnable flags -> no params, got %d", len(n.Params()))
	}
	n2 := NewPLIFNode(NeuronConfig{VThreshold: 1, InitTau: 2, LearnTau: true})
	if len(n2.Params()) != 1 {
		t.Errorf("LearnTau -> 1 param, got %d", len(n2.Params()))
	}
	n2.SetLearnVth(true)
	if len(n2.Params()) != 2 {
		t.Errorf("LearnTau+LearnVth -> 2 params, got %d", len(n2.Params()))
	}
}

func TestResetStateClearsMembrane(t *testing.T) {
	n := NewPLIFNode(NeuronConfig{VThreshold: 1, InitTau: 2})
	x := tensor.FromSlice([]float32{0.9}, 1, 1)
	n.Forward(x, false) // charges membrane
	n.ResetState()
	// After reset, the trajectory restarts identically.
	a := NewPLIFNode(NeuronConfig{VThreshold: 1, InitTau: 2})
	oa := a.Forward(x, false)
	ob := n.Forward(x, false)
	if oa.Data[0] != ob.Data[0] {
		t.Error("ResetState did not clear membrane potential")
	}
}

func TestBackwardCacheUnderflowPanics(t *testing.T) {
	n := NewPLIFNode(DefaultNeuronConfig())
	defer func() {
		if recover() == nil {
			t.Error("Backward without Forward should panic on cache underflow")
		}
	}()
	n.Backward(tensor.New(1, 1))
}

func TestPaperVthGradRuns(t *testing.T) {
	// The paper-form eq. (4) gradient must produce a finite, usually
	// non-zero threshold gradient on an active layer.
	rng := rand.New(rand.NewSource(3))
	cfg := NeuronConfig{VThreshold: 1, InitTau: 2, LearnVth: true, PaperVthGrad: true}
	n := NewPLIFNode(cfg)
	x := tensor.New(8, 8)
	x.RandUniform(rng, 0, 2.5)
	var outs []*tensor.Tensor
	for step := 0; step < 3; step++ {
		outs = append(outs, n.Forward(x, true))
	}
	g := tensor.New(8, 8)
	g.Fill(0.1)
	for step := 2; step >= 0; step-- {
		n.Backward(g)
	}
	var vth *Param
	for _, p := range n.Params() {
		if p.Name == "vth" {
			vth = p
		}
	}
	if vth == nil {
		t.Fatal("vth param missing")
	}
	got := float64(vth.Grad.Data[0])
	if math.IsNaN(got) || math.IsInf(got, 0) {
		t.Errorf("paper-form Vth gradient not finite: %v", got)
	}
	if got == 0 {
		t.Error("paper-form Vth gradient unexpectedly zero on an active layer")
	}
	_ = outs
}

func TestSurrogateWidthAblation(t *testing.T) {
	// Width=1 (paper exact) must zero the gradient at the resting state;
	// the default width=2 must not.
	mk := func(width float64) float64 {
		n := NewPLIFNode(NeuronConfig{VThreshold: 1, InitTau: 2, Width: width})
		x := tensor.New(1, 1) // zero input -> H=0 -> z=-1 exactly
		n.Forward(x, true)
		g := tensor.FromSlice([]float32{1}, 1, 1)
		gx := n.Backward(g)
		return float64(gx.Data[0])
	}
	if g := mk(1.0); g != 0 {
		t.Errorf("width-1 surrogate at rest should be 0, got %v", g)
	}
	if g := mk(2.0); g == 0 {
		t.Error("width-2 surrogate at rest should be non-zero")
	}
}
