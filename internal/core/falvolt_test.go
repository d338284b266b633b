package core

import (
	"math"
	"math/rand"
	"sync"
	"testing"

	"falvolt/internal/datasets"
	"falvolt/internal/faults"
	"falvolt/internal/fixed"
	"falvolt/internal/mitigation"
	"falvolt/internal/snn"
	"falvolt/internal/systolic"
)

// testHarness bundles a small trained model, dataset and array for
// mitigation tests. Sizes are kept small so the full pipeline (baseline
// training + mitigation retraining + faulty-array evaluation) stays fast.
type testHarness struct {
	model    *snn.Model
	baseline *snn.NetworkState
	arr      *systolic.Array
	train    []snn.Sample
	test     []snn.Sample
	baseAcc  float64
}

var (
	sharedHarness *testHarness
	harnessErr    error
	harnessOnce   sync.Once
)

// newHarness builds (once) a small trained model shared by all mitigation
// tests; each test restores the baseline state before mutating it.
func newHarness(t *testing.T) *testHarness {
	t.Helper()
	harnessOnce.Do(func() {
		rng := rand.New(rand.NewSource(100))
		spec := snn.MNISTSpec()
		spec.T = 4
		spec.EncoderC = 4
		spec.BlockC = []int{8, 8}
		spec.FCHidden = 32
		model, err := snn.Build(spec, rng)
		if err != nil {
			harnessErr = err
			return
		}
		ds, err := datasets.SyntheticMNIST(datasets.Config{Train: 160, Test: 80, T: spec.T, Seed: 5})
		if err != nil {
			harnessErr = err
			return
		}
		acc, err := TrainBaseline(model, ds.Train, ds.Test, BaselineConfig{Epochs: 8, LR: 0.02, Rng: rng})
		if err != nil {
			harnessErr = err
			return
		}
		arr, err := systolic.New(systolic.Config{Rows: 16, Cols: 16, Format: fixed.Q16x16, Saturate: true})
		if err != nil {
			harnessErr = err
			return
		}
		sharedHarness = &testHarness{
			model:    model,
			baseline: model.Net.State(),
			arr:      arr,
			train:    ds.Train,
			test:     ds.Test,
			baseAcc:  acc,
		}
	})
	if harnessErr != nil {
		t.Fatal(harnessErr)
	}
	h := sharedHarness
	if h.baseAcc < 0.6 {
		t.Fatalf("baseline training too weak for mitigation tests: %.2f", h.baseAcc)
	}
	// Restore pristine baseline for this test.
	h.model.Net.Undeploy()
	h.arr.ClearFaults()
	if err := h.model.Net.LoadState(h.baseline); err != nil {
		t.Fatal(err)
	}
	return h
}

func worstCaseFaults(t *testing.T, rows, cols, n int, seed int64) *faults.Map {
	t.Helper()
	fm, err := faults.Generate(rows, cols, faults.GenSpec{
		NumFaulty: n, BitMode: faults.FixedBit, Bit: 30, Pol: faults.StuckAt1,
	}, rand.New(rand.NewSource(seed)))
	if err != nil {
		t.Fatal(err)
	}
	return fm
}

func TestEvaluateFaultyCorruptsAccuracy(t *testing.T) {
	h := newHarness(t)
	fm := worstCaseFaults(t, 16, 16, 64, 1) // 25% of PEs, high bit sa1

	faultyAcc, err := EvaluateFaulty(h.model, h.arr, fm, h.test, false, 32)
	if err != nil {
		t.Fatal(err)
	}
	if faultyAcc >= h.baseAcc-0.1 {
		t.Errorf("25%% MSB sa1 faults barely moved accuracy: baseline %.2f, faulty %.2f", h.baseAcc, faultyAcc)
	}

	bypassAcc, err := EvaluateFaulty(h.model, h.arr, fm, h.test, true, 32)
	if err != nil {
		t.Fatal(err)
	}
	if bypassAcc < faultyAcc-0.05 {
		t.Errorf("bypass should not be clearly worse than corruption: bypass %.2f, faulty %.2f", bypassAcc, faultyAcc)
	}
}

func TestMitigationOrdering(t *testing.T) {
	h := newHarness(t)
	fm := worstCaseFaults(t, 16, 16, 77, 2) // ~30% of PEs

	run := func(m mitigation.Method, epochs int) *mitigation.Report {
		if err := h.model.Net.LoadState(h.baseline); err != nil {
			t.Fatal(err)
		}
		h.model.Net.Undeploy()
		rep, err := mitigation.Mitigate(h.model, h.arr, fm, h.train, h.test, mitigation.Config{
			Method: m, Epochs: epochs, BatchSize: 16, LR: 0.01, ClipNorm: 5,
			Rng: rand.New(rand.NewSource(3)),
		})
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}

	fap := run(mitigation.FaP, 0)
	fapit := run(mitigation.FaPIT, 3)
	falvolt := run(mitigation.FalVolt, 3)

	t.Logf("baseline %.3f | mitigation.FaP %.3f | mitigation.FaPIT %.3f | mitigation.FalVolt %.3f",
		h.baseAcc, fap.Accuracy, fapit.Accuracy, falvolt.Accuracy)

	if fap.RetrainDuration != 0 {
		t.Error("mitigation.FaP must not retrain")
	}
	if fapit.Accuracy < fap.Accuracy-0.05 {
		t.Errorf("retraining (mitigation.FaPIT %.2f) should not be clearly worse than pruning alone (mitigation.FaP %.2f)", fapit.Accuracy, fap.Accuracy)
	}
	if falvolt.Accuracy < fap.Accuracy-0.05 {
		t.Errorf("mitigation.FalVolt %.2f should not be clearly worse than mitigation.FaP %.2f", falvolt.Accuracy, fap.Accuracy)
	}
	if falvolt.PrunedFraction <= 0 {
		t.Error("expected a non-trivial pruned fraction at 30% fault rate")
	}
	if len(falvolt.Vths) != len(h.model.SpikingNames) {
		t.Errorf("Vths per spiking layer: got %d, want %d", len(falvolt.Vths), len(h.model.SpikingNames))
	}
	// mitigation.FalVolt must actually have moved thresholds away from the fixed 1.0.
	moved := false
	for _, v := range falvolt.Vths {
		if v != 1.0 {
			moved = true
		}
	}
	if !moved {
		t.Error("mitigation.FalVolt did not optimize any threshold voltage")
	}
	for _, v := range fapit.Vths {
		if v != 1.0 {
			t.Errorf("mitigation.FaPIT must keep thresholds fixed at 1.0, got %v", fapit.Vths)
		}
	}
}

func TestMitigateFixedVthSweep(t *testing.T) {
	h := newHarness(t)
	fm := worstCaseFaults(t, 16, 16, 50, 4)
	if err := h.model.Net.LoadState(h.baseline); err != nil {
		t.Fatal(err)
	}
	rep, err := mitigation.Mitigate(h.model, h.arr, fm, h.train, h.test, mitigation.Config{
		Method: mitigation.FaPIT, Epochs: 2, BatchSize: 16, LR: 0.01, FixedVth: 0.55,
		Rng: rand.New(rand.NewSource(5)),
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range rep.Vths {
		if math.Abs(v-0.55) > 1e-6 {
			t.Errorf("fixed-threshold sweep must pin Vth at 0.55, got %v", rep.Vths)
		}
	}
}

func TestMitigateTracksCurve(t *testing.T) {
	h := newHarness(t)
	fm := worstCaseFaults(t, 16, 16, 30, 6)
	if err := h.model.Net.LoadState(h.baseline); err != nil {
		t.Fatal(err)
	}
	rep, err := mitigation.Mitigate(h.model, h.arr, fm, h.train, h.test, mitigation.Config{
		Method: mitigation.FalVolt, Epochs: 3, BatchSize: 16, LR: 0.01,
		TrackCurve: true, CurveEvalSize: 40,
		Rng: rand.New(rand.NewSource(7)),
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Curve) != 3 {
		t.Fatalf("curve has %d points, want 3", len(rep.Curve))
	}
	for i, p := range rep.Curve {
		if p.Epoch != i {
			t.Errorf("curve point %d has epoch %d", i, p.Epoch)
		}
		if p.Accuracy < 0 || p.Accuracy > 1 {
			t.Errorf("curve accuracy %v out of range", p.Accuracy)
		}
	}
}

func TestStateRoundTripThroughMitigation(t *testing.T) {
	h := newHarness(t)
	before := snn.Evaluate(h.model.Net, h.test, 32)
	fm := worstCaseFaults(t, 16, 16, 60, 8)
	if _, err := mitigation.Mitigate(h.model, h.arr, fm, h.train, h.test, mitigation.Config{
		Method: mitigation.FaP, Rng: rand.New(rand.NewSource(9)),
	}); err != nil {
		t.Fatal(err)
	}
	// Restore and verify the baseline accuracy returns exactly.
	h.model.Net.Undeploy()
	if err := h.model.Net.LoadState(h.baseline); err != nil {
		t.Fatal(err)
	}
	after := snn.Evaluate(h.model.Net, h.test, 32)
	if before != after {
		t.Errorf("state restore changed accuracy: %.4f -> %.4f", before, after)
	}
}
