package falvolt

// Benchmarks regenerating the machinery behind every figure of the paper,
// plus micro-benchmarks of the hot paths. One benchmark per figure runs a
// representative slice of that experiment (reduced sizes so `go test
// -bench=.` completes quickly); cmd/experiments regenerates the full data.
//
//	go test -bench=. -benchmem

import (
	"math/rand"
	"sync"
	"testing"

	"falvolt/internal/core"
	"falvolt/internal/datasets"
	"falvolt/internal/faults"
	"falvolt/internal/fixed"
	"falvolt/internal/mapping"
	"falvolt/internal/mitigation"
	"falvolt/internal/snn"
	"falvolt/internal/spec"
	"falvolt/internal/systolic"
	"falvolt/internal/tensor"
)

// fixture is a small trained-enough model + data shared by figure benches.
// Training is 3 epochs: enough for non-degenerate spike traffic without
// dominating benchmark setup time.
type fixture struct {
	model *snn.Model
	state *snn.NetworkState
	ds    *datasets.Dataset
}

var (
	fixOnce sync.Once
	fix     *fixture
)

func getFixture(b *testing.B) *fixture {
	b.Helper()
	fixOnce.Do(func() {
		rng := rand.New(rand.NewSource(1))
		spec := snn.MNISTSpec()
		spec.T = 2
		spec.EncoderC, spec.BlockC, spec.FCHidden = 4, []int{8, 8}, 32
		model, err := snn.Build(spec, rng)
		if err != nil {
			panic(err)
		}
		ds, err := datasets.SyntheticMNIST(datasets.Config{Train: 96, Test: 48, T: 2, Seed: 3})
		if err != nil {
			panic(err)
		}
		if _, err := core.TrainBaseline(model, ds.Train, ds.Test, core.BaselineConfig{
			Epochs: 3, LR: 0.02, Rng: rand.New(rand.NewSource(2)),
		}); err != nil {
			panic(err)
		}
		fix = &fixture{model: model, state: model.Net.State(), ds: ds}
	})
	return fix
}

func (f *fixture) restore(b *testing.B) {
	b.Helper()
	f.model.Net.Undeploy()
	if err := f.model.Net.LoadState(f.state); err != nil {
		b.Fatal(err)
	}
}

func newArray(b *testing.B, side int) *systolic.Array {
	b.Helper()
	arr, err := systolic.New(systolic.Config{Rows: side, Cols: side, Format: fixed.Q16x16, Saturate: true})
	if err != nil {
		b.Fatal(err)
	}
	return arr
}

func msbFaults(b *testing.B, side, n int, seed int64) *faults.Map {
	b.Helper()
	fm, err := faults.Generate(side, side, faults.GenSpec{
		NumFaulty: n, BitMode: faults.MSBBits, Pol: faults.StuckAt1,
	}, rand.New(rand.NewSource(seed)))
	if err != nil {
		b.Fatal(err)
	}
	return fm
}

// BenchmarkFig2FixedVthRetrainEpoch measures one epoch of the Fig. 2
// fixed-threshold retraining sweep (FaPIT at a forced Vth).
func BenchmarkFig2FixedVthRetrainEpoch(b *testing.B) {
	f := getFixture(b)
	arr := newArray(b, 32)
	fm := msbFaults(b, 32, 300, 10)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.restore(b)
		if _, err := mitigation.Mitigate(f.model, arr, fm, f.ds.Train[:48], f.ds.Test[:24], mitigation.Config{
			Method: mitigation.FaPIT, Epochs: 1, FixedVth: 0.55, LR: 0.01, BatchSize: 16,
			Rng: rand.New(rand.NewSource(int64(i))),
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig5aBitPoint measures one (bit, polarity) point of Fig. 5a:
// a faulty-array evaluation with stuck bit 16.
func BenchmarkFig5aBitPoint(b *testing.B) {
	f := getFixture(b)
	f.restore(b)
	arr := newArray(b, 32)
	fm, err := faults.Generate(32, 32, faults.GenSpec{
		NumFaulty: 16, BitMode: faults.FixedBit, Bit: 16, Pol: faults.StuckAt1,
	}, rand.New(rand.NewSource(11)))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.EvaluateFaulty(f.model, arr, fm, f.ds.Test[:24], false, 24); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig5bCountPoint measures one fault-count point of Fig. 5b.
func BenchmarkFig5bCountPoint(b *testing.B) {
	f := getFixture(b)
	f.restore(b)
	arr := newArray(b, 32)
	fm := msbFaults(b, 32, 8, 12)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.EvaluateFaulty(f.model, arr, fm, f.ds.Test[:24], false, 24); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig5cArraySizePoint measures one array-size point of Fig. 5c
// (the small-array end, where fault recurrence is heaviest).
func BenchmarkFig5cArraySizePoint(b *testing.B) {
	f := getFixture(b)
	f.restore(b)
	arr := newArray(b, 8)
	fm := msbFaults(b, 8, 4, 13)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.EvaluateFaulty(f.model, arr, fm, f.ds.Test[:24], false, 24); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig6FalVoltEpoch measures one FalVolt retraining epoch — the
// unit of work behind the optimized thresholds of Fig. 6 and the FalVolt
// bars of Fig. 7.
func BenchmarkFig6FalVoltEpoch(b *testing.B) {
	f := getFixture(b)
	arr := newArray(b, 32)
	fm := msbFaults(b, 32, 300, 14)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.restore(b)
		if _, err := mitigation.Mitigate(f.model, arr, fm, f.ds.Train[:48], f.ds.Test[:24], mitigation.Config{
			Method: mitigation.FalVolt, Epochs: 1, LR: 0.01, BatchSize: 16,
			Rng: rand.New(rand.NewSource(int64(i))),
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig7FaP measures the retraining-free FaP pipeline of Fig. 7
// (mask derivation + pruning + bypassed deployment + evaluation).
func BenchmarkFig7FaP(b *testing.B) {
	f := getFixture(b)
	arr := newArray(b, 32)
	fm := msbFaults(b, 32, 300, 15)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.restore(b)
		if _, err := mitigation.Mitigate(f.model, arr, fm, f.ds.Train[:48], f.ds.Test[:24], mitigation.Config{
			Method: mitigation.FaP, Rng: rand.New(rand.NewSource(int64(i))),
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig8CurveEpoch measures one tracked epoch of the Fig. 8
// convergence curves (retrain epoch + float-path evaluation).
func BenchmarkFig8CurveEpoch(b *testing.B) {
	f := getFixture(b)
	arr := newArray(b, 32)
	fm := msbFaults(b, 32, 300, 16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.restore(b)
		if _, err := mitigation.Mitigate(f.model, arr, fm, f.ds.Train[:48], f.ds.Test[:24], mitigation.Config{
			Method: mitigation.FalVolt, Epochs: 1, LR: 0.01, BatchSize: 16,
			TrackCurve: true, CurveEvalSize: 24,
			Rng: rand.New(rand.NewSource(int64(i))),
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// benchBaselineTrainEpoch measures one epoch of fault-free training
// (the §V-A baseline stage) on an explicit engine (nil = default).
func benchBaselineTrainEpoch(b *testing.B, eng tensor.Backend) {
	f := getFixture(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.restore(b)
		if _, err := snn.Train(f.model.Net, f.ds.Train[:48], snn.TrainConfig{
			Epochs: 1, BatchSize: 16, LR: 0.01, Classes: 10,
			Rng: rand.New(rand.NewSource(int64(i))), Engine: eng,
		}); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	f.model.Net.SetEngine(nil)
}

func BenchmarkBaselineTrainEpoch(b *testing.B)       { benchBaselineTrainEpoch(b, nil) }
func BenchmarkBaselineTrainEpochSerial(b *testing.B) { benchBaselineTrainEpoch(b, tensor.Serial()) }
func BenchmarkBaselineTrainEpochParallel(b *testing.B) {
	benchBaselineTrainEpoch(b, tensor.NewParallel(0))
}

// benchBaselineTrainEpochReplicas measures the same epoch on the
// data-parallel replica engine: each 48-sample batch splits into eight
// 6-sample micro-batches dispatched over the engine's lanes, with
// gradients reduced in fixed micro-batch order. The serial/parallel
// pair isolates the lane speedup — both produce bit-identical weights.
func benchBaselineTrainEpochReplicas(b *testing.B, eng tensor.Backend) {
	f := getFixture(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.restore(b)
		if _, err := snn.Train(f.model.Net, f.ds.Train[:48], snn.TrainConfig{
			Epochs: 1, BatchSize: 48, LR: 0.01, Classes: 10,
			Rng: rand.New(rand.NewSource(int64(i))), Engine: eng,
			Replicas: 8, MicroBatch: 6,
		}); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	f.model.Net.SetEngine(nil)
}

func BenchmarkBaselineTrainEpochReplicasSerial(b *testing.B) {
	benchBaselineTrainEpochReplicas(b, tensor.Serial())
}
func BenchmarkBaselineTrainEpochReplicasParallel(b *testing.B) {
	benchBaselineTrainEpochReplicas(b, tensor.NewParallel(0))
}

// --- micro-benchmarks of the hot paths ---

func benchSystolicForwardAt(b *testing.B, density float64, faulty, bypass, dense bool, eng tensor.Backend) {
	arr := newArray(b, 64)
	arr.SetEngine(eng)
	if faulty {
		fm := msbFaults(b, 64, 128, 20)
		if err := arr.InjectFaults(fm); err != nil {
			b.Fatal(err)
		}
		arr.SetBypass(bypass)
	}
	arr.SetDenseReference(dense)
	rng := rand.New(rand.NewSource(21))
	x := tensor.New(32, 256)
	for i := range x.Data {
		if rng.Float64() < density {
			x.Data[i] = 1
		}
	}
	w := tensor.New(64, 256)
	w.RandNormal(rng, 0.5)
	wm := systolic.QuantizeMatrix(w, fixed.Q16x16)
	b.SetBytes(int64(32 * 256 * 64 * 4))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		arr.Forward(x, wm, true)
	}
}

func benchSystolicForward(b *testing.B, faulty, bypass bool, eng tensor.Backend) {
	benchSystolicForwardAt(b, 0.3, faulty, bypass, false, eng)
}

func BenchmarkSystolicForwardClean(b *testing.B)  { benchSystolicForward(b, false, false, nil) }
func BenchmarkSystolicForwardFaulty(b *testing.B) { benchSystolicForward(b, true, false, nil) }
func BenchmarkSystolicForwardFaultySerial(b *testing.B) {
	benchSystolicForward(b, true, false, tensor.Serial())
}
func BenchmarkSystolicForwardFaultyParallel(b *testing.B) {
	benchSystolicForward(b, true, false, tensor.NewParallel(0))
}
func BenchmarkSystolicForwardBypassed(b *testing.B) { benchSystolicForward(b, true, true, nil) }

// Memory bit-flip pair: weight-SRAM flips recompile the weight tiles
// once per fault instance, after which Forward runs from the flipped
// tiles — steady-state cost should track the stuck-at faulty path.
func benchSystolicForwardBitFlip(b *testing.B, eng tensor.Backend) {
	arr := newArray(b, 64)
	arr.SetEngine(eng)
	rates, err := faults.BitRates(faults.ProfileDecay, 0.05)
	if err != nil {
		b.Fatal(err)
	}
	if err := arr.InjectMemoryFaults(&faults.MemoryFaults{Seed: 21, BitRate: rates}); err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(21))
	x := tensor.New(32, 256)
	for i := range x.Data {
		if rng.Float64() < 0.3 {
			x.Data[i] = 1
		}
	}
	w := tensor.New(64, 256)
	w.RandNormal(rng, 0.5)
	wm := systolic.QuantizeMatrix(w, fixed.Q16x16)
	b.SetBytes(int64(32 * 256 * 64 * 4))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		arr.Forward(x, wm, true)
	}
}

func BenchmarkSystolicForwardBitFlipSerial(b *testing.B) {
	benchSystolicForwardBitFlip(b, tensor.Serial())
}
func BenchmarkSystolicForwardBitFlipParallel(b *testing.B) {
	benchSystolicForwardBitFlip(b, tensor.NewParallel(0))
}

// Sparse vs Dense pairs: the event-list plane against the preserved
// pre-change reference path, across spike densities. Sparse/Dense outputs
// are bit-identical (see internal/systolic sparse_test.go); only the
// wall-clock differs.
func BenchmarkSystolicForwardCleanSparse10(b *testing.B) {
	benchSystolicForwardAt(b, 0.1, false, false, false, nil)
}
func BenchmarkSystolicForwardCleanDense10(b *testing.B) {
	benchSystolicForwardAt(b, 0.1, false, false, true, nil)
}
func BenchmarkSystolicForwardCleanSparse100(b *testing.B) {
	benchSystolicForwardAt(b, 1.0, false, false, false, nil)
}
func BenchmarkSystolicForwardCleanDense100(b *testing.B) {
	benchSystolicForwardAt(b, 1.0, false, false, true, nil)
}
func BenchmarkSystolicForwardFaultySparse10(b *testing.B) {
	benchSystolicForwardAt(b, 0.1, true, false, false, nil)
}
func BenchmarkSystolicForwardFaultyDense10(b *testing.B) {
	benchSystolicForwardAt(b, 0.1, true, false, true, nil)
}
func BenchmarkSystolicForwardFaultySparse30(b *testing.B) {
	benchSystolicForwardAt(b, 0.3, true, false, false, nil)
}
func BenchmarkSystolicForwardFaultyDense30(b *testing.B) {
	benchSystolicForwardAt(b, 0.3, true, false, true, nil)
}

// Salvage pair: one head-to-head benchmark cell through the pluggable
// mitigation seam — a zero-retraining strategy (respawn's remap) and a
// retraining one (falvolt, one epoch). Restore → inject → Apply →
// evaluate, exactly the salvage campaign's RunTrial shape.
func benchSalvage(b *testing.B, mitSpec spec.MitigationSpec, epochs int) {
	f := getFixture(b)
	arr := newArray(b, 32)
	fm := msbFaults(b, 32, 200, 30)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.restore(b)
		arr.ClearFaults()
		arr.SetBypass(false)
		if err := arr.InjectFaults(fm); err != nil {
			b.Fatal(err)
		}
		mit, err := mitigation.New(mitSpec.EffectiveKind(), mitigation.Options{
			Train: f.ds.Train[:48], Test: f.ds.Test[:24],
			Epochs: epochs, BatchSize: 16, LR: 0.01, ClipNorm: 5,
			Rng: rand.New(rand.NewSource(int64(i))),
		})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := mit.Apply(f.model, arr, arr.FaultMap()); err != nil {
			b.Fatal(err)
		}
		snn.EvaluateWith(nil, f.model.Net, f.ds.Test[:24], 24)
		f.model.Net.Undeploy()
	}
}

func BenchmarkSalvageRespawn(b *testing.B) {
	benchSalvage(b, spec.MitigationSpec{Kind: "respawn"}, 0)
}
func BenchmarkSalvageFalVoltEpoch(b *testing.B) {
	benchSalvage(b, spec.MitigationSpec{Kind: "falvolt"}, 1)
}

func BenchmarkScanTest256(b *testing.B) {
	arr := newArray(b, 256)
	fm := msbFaults(b, 256, 1000, 22)
	if err := arr.InjectFaults(fm); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		arr.ScanTest()
	}
}

func BenchmarkDeriveMask(b *testing.B) {
	fm := msbFaults(b, 256, 1000, 23)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := mapping.Derive(fm, 512, 1152); err != nil {
			b.Fatal(err)
		}
	}
}

func benchConvForward(b *testing.B, eng tensor.Backend) {
	rng := rand.New(rand.NewSource(24))
	conv, err := snn.NewConv2D(8, 16, 16, 16, 3, 1, 1, false, rng)
	if err != nil {
		b.Fatal(err)
	}
	conv.SetEngine(eng)
	x := tensor.New(16, 8, 16, 16)
	x.RandNormal(rng, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		conv.Forward(x, false)
	}
}

func BenchmarkConvForward(b *testing.B)         { benchConvForward(b, nil) }
func BenchmarkConvForwardSerial(b *testing.B)   { benchConvForward(b, tensor.Serial()) }
func BenchmarkConvForwardParallel(b *testing.B) { benchConvForward(b, tensor.NewParallel(0)) }

func BenchmarkPLIFForward(b *testing.B) {
	rng := rand.New(rand.NewSource(25))
	node := snn.NewPLIFNode(snn.DefaultNeuronConfig())
	x := tensor.New(16, 2048)
	x.RandNormal(rng, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		node.Forward(x, false)
	}
}

func BenchmarkFaultMapGenerate(b *testing.B) {
	rng := rand.New(rand.NewSource(26))
	spec := faults.GenSpec{NumFaulty: 4096, BitMode: faults.MSBBits, PolMode: faults.RandomPol}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := faults.Generate(256, 256, spec, rng); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEventDatasetGeneration(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := datasets.SyntheticDVSGesture(datasets.Config{
			Train: 22, Test: 11, H: 16, W: 16, T: 6, Seed: int64(i),
		}); err != nil {
			b.Fatal(err)
		}
	}
}
