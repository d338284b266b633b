package snn

import (
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"falvolt/internal/fixed"
	"falvolt/internal/systolic"
	"falvolt/internal/tensor"
)

func tinyModel(t *testing.T, seed int64) *Model {
	t.Helper()
	spec := MNISTSpec()
	spec.T = 2
	spec.EncoderC, spec.BlockC, spec.FCHidden = 2, []int{4, 4}, 16
	m, err := Build(spec, rand.New(rand.NewSource(seed)))
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestBuildModelStructure(t *testing.T) {
	m := tinyModel(t, 1)
	if got := len(m.SpikingNames); got != 5 {
		t.Errorf("spiking layers = %d, want 5 (Enc, Conv1, Conv2, FC1, FC2)", got)
	}
	if m.SpikingNames[0] != "Enc" || m.SpikingNames[4] != "FC2" {
		t.Errorf("names = %v", m.SpikingNames)
	}
	if got := len(m.Net.GEMMLayers()); got != 5 {
		t.Errorf("GEMM layers = %d, want 5 (3 conv + 2 fc)", got)
	}
	if got := len(m.Net.SpikingLayers()); got != 5 {
		t.Errorf("SpikingLayers = %d, want 5", got)
	}
}

func TestBuildRejectsBadSpecs(t *testing.T) {
	spec := MNISTSpec()
	spec.BlockC = nil
	if _, err := Build(spec, rand.New(rand.NewSource(1))); err == nil {
		t.Error("no conv blocks should error")
	}
	spec2 := MNISTSpec()
	spec2.InH, spec2.InW = 18, 18 // 18 -> 9: second block not poolable
	spec2.BlockC = []int{4, 4}
	if _, err := Build(spec2, rand.New(rand.NewSource(1))); err == nil {
		t.Error("non-poolable extent should error")
	}
}

func TestForwardRateShapeAndRange(t *testing.T) {
	m := tinyModel(t, 2)
	x := tensor.New(3, 1, 16, 16)
	x.RandUniform(rand.New(rand.NewSource(3)), 0, 1)
	rate := m.Net.Forward(StaticSequence{X: x, T: m.Net.T}, false)
	if rate.Shape[0] != 3 || rate.Shape[1] != 10 {
		t.Fatalf("rate shape %v, want [3 10]", rate.Shape)
	}
	for _, v := range rate.Data {
		if v < 0 || v > 1 {
			t.Errorf("firing rate %v outside [0,1]", v)
		}
	}
}

func TestNetworkDeterministicInference(t *testing.T) {
	m := tinyModel(t, 4)
	x := tensor.New(2, 1, 16, 16)
	x.RandUniform(rand.New(rand.NewSource(5)), 0, 1)
	seq := StaticSequence{X: x, T: m.Net.T}
	m.Net.ResetState()
	a := m.Net.Forward(seq, false)
	m.Net.ResetState()
	b := m.Net.Forward(seq, false)
	for i := range a.Data {
		if a.Data[i] != b.Data[i] {
			t.Fatal("inference must be deterministic after ResetState")
		}
	}
}

func TestSetVthsAndVths(t *testing.T) {
	m := tinyModel(t, 6)
	m.Net.SetVths(0.6)
	for _, v := range m.Net.Vths() {
		if math.Abs(v-0.6) > 1e-6 {
			t.Errorf("Vths = %v, want all 0.6", m.Net.Vths())
		}
	}
}

func TestSetLearnVthChangesParamCount(t *testing.T) {
	m := tinyModel(t, 7)
	before := len(m.Net.Params())
	m.Net.SetLearnVth(true)
	after := len(m.Net.Params())
	if after != before+5 {
		t.Errorf("LearnVth should add one param per spiking layer: %d -> %d", before, after)
	}
}

func TestStateRoundTrip(t *testing.T) {
	m := tinyModel(t, 8)
	x := tensor.New(2, 1, 16, 16)
	x.RandUniform(rand.New(rand.NewSource(9)), 0, 1)
	seq := StaticSequence{X: x, T: m.Net.T}

	st := m.Net.State()
	m.Net.ResetState()
	want := m.Net.Forward(seq, false)

	// Perturb everything, then restore.
	for _, p := range m.Net.Params() {
		p.Value.Fill(0.123)
	}
	m.Net.SetVths(0.4)
	if err := m.Net.LoadState(st); err != nil {
		t.Fatal(err)
	}
	m.Net.ResetState()
	got := m.Net.Forward(seq, false)
	for i := range want.Data {
		if want.Data[i] != got.Data[i] {
			t.Fatal("state restore did not reproduce outputs")
		}
	}
}

func TestStateFileRoundTrip(t *testing.T) {
	m := tinyModel(t, 10)
	st := m.Net.State()
	path := filepath.Join(t.TempDir(), "net.gob")
	if err := SaveStateFile(st, path); err != nil {
		t.Fatal(err)
	}
	back, err := LoadStateFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Net.LoadState(back); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadStateFile(filepath.Join(t.TempDir(), "missing.gob")); err == nil {
		t.Error("loading missing file should error")
	}
	if _, err := os.Stat(path); err != nil {
		t.Error("state file missing after save")
	}
}

func TestLoadStateStructureMismatch(t *testing.T) {
	m := tinyModel(t, 11)
	other := tinyModel(t, 12)
	st := other.Net.State()
	st.Entries = st.Entries[:len(st.Entries)-1]
	if err := m.Net.LoadState(st); err == nil {
		t.Error("layer count mismatch should error")
	}
}

func TestDeployBinaryInference(t *testing.T) {
	m := tinyModel(t, 13)
	gemms := m.Net.GEMMLayers()
	arr := mustNewArray(systolic.Config{Rows: 32, Cols: 32, Format: fixed.Q16x16, Saturate: true})
	m.Net.Deploy(arr)
	// Encoder conv sees the raw image: analog path. Conv1 directly follows
	// the encoder PLIF: binary spikes. Conv2 and FC1 follow average
	// pooling, whose outputs are fractional: analog path. FC2 follows
	// Dropout (identity at inference) after a PLIF node: binary.
	wantBinary := []bool{false, true, false, false, true}
	for i, g := range gemms {
		d := g.Deployment()
		if d == nil {
			t.Fatalf("layer %d not deployed", i)
		}
		if d.Binary != wantBinary[i] {
			t.Errorf("layer %d Binary = %v, want %v", i, d.Binary, wantBinary[i])
		}
	}

	// Deployed fault-free inference must closely match the float path.
	x := tensor.New(2, 1, 16, 16)
	x.RandUniform(rand.New(rand.NewSource(14)), 0, 1)
	seq := StaticSequence{X: x, T: m.Net.T}
	m.Net.ResetState()
	deployed := m.Net.Forward(seq, false)
	m.Net.Undeploy()
	m.Net.ResetState()
	float := m.Net.Forward(seq, false)
	for i := range deployed.Data {
		if d := math.Abs(float64(deployed.Data[i] - float.Data[i])); d > 0.26 {
			t.Errorf("deployed rate differs from float at %d by %v", i, d)
		}
	}
}

func TestEventSequenceRepeatsLastFrame(t *testing.T) {
	f0 := tensor.New(1, 1, 2, 2)
	f1 := tensor.New(1, 1, 2, 2)
	f1.Fill(1)
	seq := EventSequence{Frames: []*tensor.Tensor{f0, f1}}
	if seq.At(5) != f1 {
		t.Error("EventSequence should repeat last frame beyond its length")
	}
	if seq.Steps() != 2 {
		t.Errorf("Steps = %d", seq.Steps())
	}
}

func TestMakeBatchConcatenates(t *testing.T) {
	x1 := tensor.New(1, 1, 4, 4)
	x1.Fill(1)
	x2 := tensor.New(1, 1, 4, 4)
	x2.Fill(2)
	seq, labels := MakeBatch([]Sample{
		{Seq: StaticSequence{X: x1, T: 2}, Label: 3},
		{Seq: StaticSequence{X: x2, T: 2}, Label: 7},
	})
	if labels[0] != 3 || labels[1] != 7 {
		t.Errorf("labels = %v", labels)
	}
	b := seq.At(0)
	if b.Shape[0] != 2 {
		t.Fatalf("batch dim = %d", b.Shape[0])
	}
	if b.Data[0] != 1 || b.Data[16] != 2 {
		t.Error("batch concatenation order wrong")
	}
}

func TestOneHotAndAccuracy(t *testing.T) {
	oh := OneHot([]int{1, 0}, 3)
	want := []float32{0, 1, 0, 1, 0, 0}
	for i, v := range want {
		if oh.Data[i] != v {
			t.Fatalf("OneHot wrong at %d", i)
		}
	}
	pred := tensor.FromSlice([]float32{0.1, 0.9, 0, 0.8, 0.1, 0.1}, 2, 3)
	if acc := Accuracy(pred, []int{1, 0}); acc != 1 {
		t.Errorf("accuracy = %v, want 1", acc)
	}
	if acc := Accuracy(pred, []int{2, 2}); acc != 0 {
		t.Errorf("accuracy = %v, want 0", acc)
	}
	defer func() {
		if recover() == nil {
			t.Error("OneHot with out-of-range label should panic")
		}
	}()
	OneHot([]int{5}, 3)
}

func TestLossesGradientDirection(t *testing.T) {
	pred := tensor.FromSlice([]float32{0.8, 0.2}, 1, 2)
	target := tensor.FromSlice([]float32{1, 0}, 1, 2)
	for _, loss := range []Loss{MSERate{}, CrossEntropy{}} {
		l, g := loss.Loss(pred, target)
		if l <= 0 {
			t.Errorf("%T loss should be positive for imperfect pred, got %v", loss, l)
		}
		if g.Data[0] >= 0 {
			t.Errorf("%T gradient for under-predicted true class should be negative, got %v", loss, g.Data[0])
		}
		if g.Data[1] <= 0 {
			t.Errorf("%T gradient for over-predicted wrong class should be positive, got %v", loss, g.Data[1])
		}
	}
}

func TestCrossEntropyMatchesKnownValue(t *testing.T) {
	pred := tensor.FromSlice([]float32{0, 0}, 1, 2) // uniform softmax
	target := tensor.FromSlice([]float32{1, 0}, 1, 2)
	l, _ := CrossEntropy{}.Loss(pred, target)
	if math.Abs(l-math.Log(2)) > 1e-5 {
		t.Errorf("CE of uniform over 2 classes = %v, want ln2", l)
	}
}

func TestTrainConfigValidation(t *testing.T) {
	bad := []TrainConfig{
		{Epochs: -1, BatchSize: 4, Classes: 2, LR: 0.1},
		{Epochs: 1, BatchSize: 0, Classes: 2, LR: 0.1},
		{Epochs: 1, BatchSize: 4, Classes: 0, LR: 0.1},
		{Epochs: 1, BatchSize: 4, Classes: 2, LR: 0},
	}
	for i, cfg := range bad {
		c := cfg
		if err := c.Validate(); err == nil {
			t.Errorf("config %d should fail validation", i)
		}
	}
	good := TrainConfig{Epochs: 1, BatchSize: 4, Classes: 2, LR: 0.1}
	if err := good.Validate(); err != nil {
		t.Errorf("good config rejected: %v", err)
	}
	if good.Loss == nil || good.Rng == nil {
		t.Error("Validate should fill Loss and Rng defaults")
	}
}

func TestDropoutTrainEvalBehaviour(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	d := NewDropout(0.5, rng)
	x := tensor.New(4, 100)
	x.Fill(1)
	// Eval: identity.
	if out := d.Forward(x, false); out != x {
		t.Error("eval dropout should be identity")
	}
	// Train: some zeros, survivors scaled by 2, mask constant across time.
	o1 := d.Forward(x, true)
	o2 := d.Forward(x, true)
	zeros := 0
	for i := range o1.Data {
		if o1.Data[i] == 0 {
			zeros++
		} else if o1.Data[i] != 2 {
			t.Fatalf("surviving activation should be scaled to 2, got %v", o1.Data[i])
		}
		if o1.Data[i] != o2.Data[i] {
			t.Fatal("dropout mask must be constant across timesteps within a sequence")
		}
	}
	if zeros < 100 || zeros > 300 {
		t.Errorf("dropped %d of 400, expected ~200", zeros)
	}
	// After reset, a new mask is drawn.
	d.ResetState()
	o3 := d.Forward(x, true)
	same := true
	for i := range o1.Data {
		if o1.Data[i] != o3.Data[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("mask should change between sequences")
	}
}

func TestOptimizersDecreaseQuadratic(t *testing.T) {
	// Minimize f(w) = (w-3)^2 with Adam.
	p := NewParam("w", tensor.FromSlice([]float32{0}, 1))
	opt := NewAdam([]*Param{p}, 0.2)
	for i := 0; i < 100; i++ {
		opt.ZeroGrad()
		p.Grad.Data[0] = 2 * (p.Value.Data[0] - 3)
		opt.Step()
	}
	if math.Abs(float64(p.Value.Data[0])-3) > 0.1 {
		t.Errorf("adam failed to minimize: w = %v", p.Value.Data[0])
	}
}

func TestClipGradNorm(t *testing.T) {
	p := NewParam("w", tensor.New(4))
	p.Grad.Fill(3) // norm = 6
	norm := ClipGradNorm([]*Param{p}, 3)
	if math.Abs(norm-6) > 1e-5 {
		t.Errorf("pre-clip norm = %v, want 6", norm)
	}
	var sq float64
	for _, g := range p.Grad.Data {
		sq += float64(g) * float64(g)
	}
	if math.Abs(math.Sqrt(sq)-3) > 1e-4 {
		t.Errorf("post-clip norm = %v, want 3", math.Sqrt(sq))
	}
}
