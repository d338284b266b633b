package systolic

import (
	"math"
	"math/rand"
	"testing"

	"falvolt/internal/faults"
	"falvolt/internal/fixed"
	"falvolt/internal/tensor"
)

// newTestArray builds an array on an explicit engine with optional
// accumulator faults, weight faults and bypass.
func newTestArray(t *testing.T, rows, cols int, eng tensor.Backend,
	fm, wfm *faults.Map, bypass, countSpikes bool) *Array {
	t.Helper()
	a, err := New(Config{
		Rows: rows, Cols: cols, Format: fixed.Q16x16, Saturate: true,
		CountSpikes: countSpikes, Engine: eng,
	})
	if err != nil {
		t.Fatal(err)
	}
	if fm != nil {
		if err := a.InjectFaults(fm); err != nil {
			t.Fatal(err)
		}
	}
	if wfm != nil {
		if err := a.InjectWeightFaults(wfm); err != nil {
			t.Fatal(err)
		}
	}
	a.SetBypass(bypass)
	return a
}

func randSpikeInput(rng *rand.Rand, b, k int, density float64) *tensor.Tensor {
	x := tensor.New(b, k)
	for i := range x.Data {
		if rng.Float64() < density {
			x.Data[i] = 1
		}
	}
	return x
}

// randPooledInput draws what an AvgPool2 of binary spikes produces: each
// entry is 0 with probability 1-density, else 0.25, 0.5, 0.75 or 1.
func randPooledInput(rng *rand.Rand, b, k int, density float64) *tensor.Tensor {
	x := tensor.New(b, k)
	for i := range x.Data {
		if rng.Float64() < density {
			x.Data[i] = float32(1+rng.Intn(4)) / 4
		}
	}
	return x
}

// nonLevels are analog inputs that must keep a call off the level
// table: a pixel, a negative level and NaN.
var nonLevels = []float32{0.3, -0.25, float32(math.NaN())}

// setTieWords overwrites every seventh word of wm with ±1, ±2 or ±3, so
// some level products land exactly on a rounding tie (0.5·1, 0.25·2,
// 0.75·2, 0.5·3 words).
func setTieWords(wm *Matrix) {
	ties := []fixed.Word{1, -1, 2, -2, 3, -3}
	for i := 0; i < len(wm.Words); i += 7 {
		wm.Words[i] = ties[(i/7)%len(ties)]
	}
}

func randAnalogInput(rng *rand.Rand, b, k int) *tensor.Tensor {
	x := tensor.New(b, k)
	for i := range x.Data {
		if rng.Float64() < 0.6 {
			x.Data[i] = float32(rng.NormFloat64())
		}
	}
	return x
}

// TestForwardParallelBitIdenticalToSerial sweeps fault scenarios, input
// modes, odd shapes and worker counts, asserting the parallel array
// reproduces the serial array bit for bit — outputs, statistics and
// per-PE spike counters.
func TestForwardParallelBitIdenticalToSerial(t *testing.T) {
	type scenario struct {
		name           string
		faults, wfault bool
		bypass         bool
	}
	scenarios := []scenario{
		{name: "clean"},
		{name: "faulty", faults: true},
		{name: "bypassed", faults: true, bypass: true},
		{name: "weightfaults", wfault: true},
		{name: "allfaults-bypassed", faults: true, wfault: true, bypass: true},
	}
	shapes := []struct{ rows, cols, b, k, m int }{
		{8, 8, 1, 8, 8},      // single vector, exact tile
		{8, 8, 3, 19, 13},    // ragged K and M tiles
		{5, 7, 4, 23, 11},    // odd non-square grid
		{16, 16, 32, 64, 40}, // multi-tile batch
	}
	for _, sc := range scenarios {
		for _, sh := range shapes {
			rng := rand.New(rand.NewSource(77))
			var fm, wfm *faults.Map
			var err error
			if sc.faults {
				fm, err = faults.Generate(sh.rows, sh.cols, faults.GenSpec{
					NumFaulty: sh.rows * sh.cols / 4, BitMode: faults.MSBBits, Pol: faults.StuckAt1,
				}, rng)
				if err != nil {
					t.Fatal(err)
				}
			}
			if sc.wfault {
				wfm, err = faults.Generate(sh.rows, sh.cols, faults.GenSpec{
					NumFaulty: sh.rows * sh.cols / 8, BitMode: faults.MSBBits, Pol: faults.StuckAt0,
				}, rng)
				if err != nil {
					t.Fatal(err)
				}
			}
			w := tensor.New(sh.m, sh.k)
			w.RandNormal(rng, 0.5)
			wm := QuantizeMatrix(w, fixed.Q16x16)
			spikes := randSpikeInput(rng, sh.b, sh.k, 0.4)
			analog := randAnalogInput(rng, sh.b, sh.k)

			ref := newTestArray(t, sh.rows, sh.cols, tensor.Serial(), fm, wfm, sc.bypass, true)
			refBin := ref.Forward(tensor.RowPatches(spikes), wm, true)
			refAna := ref.Forward(tensor.RowPatches(analog), wm, false)

			for _, workers := range []int{1, 2, 8} {
				par := newTestArray(t, sh.rows, sh.cols, tensor.NewParallel(workers), fm, wfm, sc.bypass, true)
				gotBin := par.Forward(tensor.RowPatches(spikes), wm, true)
				gotAna := par.Forward(tensor.RowPatches(analog), wm, false)

				for i := range refBin.Data {
					if math.Float32bits(refBin.Data[i]) != math.Float32bits(gotBin.Data[i]) {
						t.Fatalf("%s %dx%d w=%d binary: y[%d] = %v, want %v",
							sc.name, sh.rows, sh.cols, workers, i, gotBin.Data[i], refBin.Data[i])
					}
				}
				for i := range refAna.Data {
					if math.Float32bits(refAna.Data[i]) != math.Float32bits(gotAna.Data[i]) {
						t.Fatalf("%s %dx%d w=%d analog: y[%d] = %v, want %v",
							sc.name, sh.rows, sh.cols, workers, i, gotAna.Data[i], refAna.Data[i])
					}
				}
				if ref.Stats() != par.Stats() {
					t.Fatalf("%s %dx%d w=%d: stats %+v, want %+v",
						sc.name, sh.rows, sh.cols, workers, par.Stats(), ref.Stats())
				}
				for r := 0; r < sh.rows; r++ {
					for c := 0; c < sh.cols; c++ {
						if ref.SpikeCount(r, c) != par.SpikeCount(r, c) {
							t.Fatalf("%s %dx%d w=%d: spikeCount(%d,%d) = %d, want %d",
								sc.name, sh.rows, sh.cols, workers,
								r, c, par.SpikeCount(r, c), ref.SpikeCount(r, c))
						}
					}
				}
			}
		}
	}
}

// TestForwardConcurrentCallsAreSafe exercises simultaneous Forward calls
// on one array (the batch-parallel evaluation pattern): outputs must be
// per-call correct and merged statistics exact.
func TestForwardConcurrentCallsAreSafe(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	fm, err := faults.Generate(8, 8, faults.GenSpec{
		NumFaulty: 16, BitMode: faults.MSBBits, Pol: faults.StuckAt1,
	}, rng)
	if err != nil {
		t.Fatal(err)
	}
	w := tensor.New(12, 24)
	w.RandNormal(rng, 0.5)
	wm := QuantizeMatrix(w, fixed.Q16x16)
	x := randSpikeInput(rng, 6, 24, 0.4)

	ref := newTestArray(t, 8, 8, tensor.Serial(), fm, nil, true, true)
	want := ref.Forward(tensor.RowPatches(x), wm, true)
	wantStats := ref.Stats()

	eng := tensor.NewParallel(4)
	arr := newTestArray(t, 8, 8, eng, fm, nil, true, true)
	const calls = 8
	results := make([]*tensor.Tensor, calls)
	eng.Map(calls, func(_, i int) {
		results[i] = arr.Forward(tensor.RowPatches(x), wm, true)
	})
	for c, y := range results {
		for i := range want.Data {
			if math.Float32bits(want.Data[i]) != math.Float32bits(y.Data[i]) {
				t.Fatalf("concurrent call %d: y[%d] = %v, want %v", c, i, y.Data[i], want.Data[i])
			}
		}
	}
	got := arr.Stats()
	if got.Accumulations != calls*wantStats.Accumulations ||
		got.BypassedSteps != calls*wantStats.BypassedSteps ||
		got.TilePasses != calls*wantStats.TilePasses {
		t.Fatalf("merged stats %+v, want %d x %+v", got, calls, wantStats)
	}
}
