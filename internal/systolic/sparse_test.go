package systolic

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"falvolt/internal/faults"
	"falvolt/internal/fixed"
	"falvolt/internal/tensor"
)

// scalarTally accumulates the scalar model's Stats and spike counts
// across calls, as the array's own counters accumulate.
type scalarTally struct {
	stats  Stats
	spikes []uint64
}

// assertMatchesScalar runs one Forward on a and asserts bit-identical
// outputs against scalarForward on the fault state read straight off the
// array's getters, plus the array's cumulative Stats and per-PE spike
// counters against the tally. It returns the array's output.
func assertMatchesScalar(t *testing.T, label string, a *Array, tally *scalarTally, x *tensor.Tensor, wm *Matrix, binary bool) *tensor.Tensor {
	t.Helper()
	got := a.Forward(tensor.RowPatches(x), wm, binary)
	want, st, spikes := scalarForward(a.cfg, a.FaultMap(), a.WeightFaultMap(), a.MemoryFaults(),
		a.Transient(), a.step, a.bypassOn, a.bypMask, x, wm, binary)
	for i := range want.Data {
		if math.Float32bits(want.Data[i]) != math.Float32bits(got.Data[i]) {
			t.Fatalf("%s: y[%d] = %v, scalar reference %v", label, i, got.Data[i], want.Data[i])
		}
	}
	tally.stats.Accumulations += st.Accumulations
	tally.stats.BypassedSteps += st.BypassedSteps
	tally.stats.TilePasses += st.TilePasses
	tally.stats.MACCycles += st.MACCycles
	if a.Stats() != tally.stats {
		t.Fatalf("%s: stats %+v, scalar reference %+v", label, a.Stats(), tally.stats)
	}
	if tally.spikes == nil {
		tally.spikes = make([]uint64, len(spikes))
	}
	cols := a.cfg.Cols
	for i, n := range spikes {
		tally.spikes[i] += n
		if c := a.SpikeCount(i/cols, i%cols); c != tally.spikes[i] {
			t.Fatalf("%s: spikeCount(%d,%d) = %d, scalar reference %d", label, i/cols, i%cols, c, tally.spikes[i])
		}
	}
	return got
}

// TestSparseForwardMatchesScalarReference sweeps spike density × fault
// scenario × engine × saturation × shape, asserting the event-list sparse
// forward is bit-identical to the scalar reference model — outputs, Stats
// and spike counters alike. Each density feeds binary spikes, normal
// analog inputs, pooled inputs (all levels, so the level table is read)
// and a mixed input (one non-level entry, so the call falls back); the
// pooled input also runs in the Q8.24 and Q24.8 formats. Some weights are
// ±1, ±2 or ±3 words, so level products land on rounding ties.
func TestSparseForwardMatchesScalarReference(t *testing.T) {
	type scenario struct {
		name           string
		faults, wfault bool
		mem, trans     bool
		bypass         bool
		// selective programs a per-PE bypass mask over about half the
		// faulty PEs (RescueSNN-style salvage) instead of the global
		// switch.
		selective bool
		// sparse puts one stuck PE in each column, at row 0, at row
		// Rows-1 or inside the ragged last K-tile, in place of the
		// random fault map.
		sparse bool
	}
	scenarios := []scenario{
		{name: "clean"},
		{name: "pe-faulty", faults: true},
		{name: "weight-faulty", wfault: true},
		{name: "bypassed", faults: true, bypass: true},
		{name: "mixed-bypassed", faults: true, wfault: true, bypass: true},
		{name: "mem-bitflip", mem: true},
		{name: "mem-bitflip-pe-faulty", mem: true, faults: true},
		{name: "transient", trans: true},
		{name: "transient-bitflip", trans: true, mem: true},
		{name: "everything-bypassed", faults: true, wfault: true, mem: true, trans: true, bypass: true},
		{name: "selective-bypass", faults: true, wfault: true, trans: true, selective: true},
		{name: "sparse-fault", faults: true, sparse: true},
	}
	shapes := []struct{ rows, cols, b, k, m int }{
		{8, 8, 3, 19, 13},    // ragged K and M tiles
		{16, 8, 3, 9, 10},    // K < Rows: bottom PE rows unreachable
		{16, 16, 16, 64, 40}, // multi-tile batch
	}
	densities := []float64{0, 0.1, 0.5, 1.0}
	for _, sc := range scenarios {
		for _, sh := range shapes {
			rng := rand.New(rand.NewSource(42))
			var fm, wfm *faults.Map
			var err error
			switch {
			case sc.sparse:
				fm = sparseFaultMap(t, sh.rows, sh.cols, sh.k)
			case sc.faults:
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
			var mem *faults.MemoryFaults
			if sc.mem {
				rates, err := faults.BitRates(faults.ProfileUniform, 0.03)
				if err != nil {
					t.Fatal(err)
				}
				mem = &faults.MemoryFaults{Seed: 99, BitRate: rates}
			}
			var ts *faults.TransientSchedule
			if sc.trans {
				ts, err = faults.GenerateTransient(sh.rows, sh.cols, faults.TransientSpec{
					Strikes: sh.rows * sh.cols / 4, BitMode: faults.MSBBits, Pol: faults.StuckAt1,
					Start: 1, MaxDuration: 2, PolMode: faults.RandomPol,
				}, rng)
				if err != nil {
					t.Fatal(err)
				}
			}
			var mask []bool
			if sc.selective {
				mask = halfFaultyMask(sh.rows*sh.cols, fm, wfm)
			}
			w := tensor.New(sh.m, sh.k)
			w.RandNormal(rng, 0.5)
			for _, sw := range []struct {
				sat    bool
				eng    tensor.Backend
				format fixed.Format
			}{
				{true, tensor.Serial(), fixed.Q16x16},
				{true, tensor.NewParallel(4), fixed.Q16x16},
				{false, tensor.Serial(), fixed.Q16x16},
				{false, tensor.NewParallel(4), fixed.Q16x16},
				{true, tensor.Serial(), fixed.Q8x24},
				{false, tensor.NewParallel(4), fixed.Q8x24},
				{true, tensor.NewParallel(4), fixed.Q24x8},
				{false, tensor.Serial(), fixed.Q24x8},
			} {
				sat, eng, format := sw.sat, sw.eng, sw.format
				a, err := New(Config{
					Rows: sh.rows, Cols: sh.cols, Format: format,
					Saturate: sat, CountSpikes: true, Engine: eng,
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
				if mem != nil {
					if err := a.InjectMemoryFaults(mem); err != nil {
						t.Fatal(err)
					}
				}
				if ts != nil {
					if err := a.InjectTransient(ts); err != nil {
						t.Fatal(err)
					}
					// Land inside the strike window so the transient
					// masks are live during the identity check.
					a.SetTimestep(1)
				}
				a.SetBypass(sc.bypass)
				if err := a.SetBypassMask(mask); err != nil {
					t.Fatal(err)
				}
				var tally scalarTally
				// One Matrix shared across all densities and input
				// modes: the compiled-tile cache must keep the binary,
				// analog and level views apart.
				wm := QuantizeMatrix(w, format)
				setTieWords(wm)
				for di, density := range densities {
					label := fmt.Sprintf("%s %dx%d sat=%v eng=%s %v d=%.0f%%",
						sc.name, sh.rows, sh.cols, sat, eng.Name(), format, 100*density)
					pooled := randPooledInput(rng, sh.b, sh.k, density)
					assertMatchesScalar(t, label+" pooled", a, &tally, pooled, wm, false)
					if format != fixed.Q16x16 {
						continue
					}
					spikes := randSpikeInput(rng, sh.b, sh.k, density)
					assertMatchesScalar(t, label+" binary", a, &tally, spikes, wm, true)
					analog := randAnalogInput(rng, sh.b, sh.k)
					for i := range analog.Data {
						if rng.Float64() >= density {
							analog.Data[i] = 0
						}
					}
					assertMatchesScalar(t, label+" analog", a, &tally, analog, wm, false)
					mixed := pooled.Clone()
					mixed.Data[rng.Intn(len(mixed.Data))] = nonLevels[di%len(nonLevels)]
					assertMatchesScalar(t, label+" mixed", a, &tally, mixed, wm, false)
				}
			}
		}
	}
}

// sparseFaultMap sticks bit 30 of exactly one PE per column, cycling
// the row through 0, rows-1 and the last row of the ragged final K-tile
// (row (k-1) mod rows), with alternating polarity. With k < rows the
// rows-1 faults lie below every input and must stay unreachable.
func sparseFaultMap(t *testing.T, rows, cols, k int) *faults.Map {
	t.Helper()
	fm := faults.NewMap(rows, cols)
	for j := 0; j < cols; j++ {
		row := []int{0, rows - 1, (k - 1) % rows}[j%3]
		pol := faults.StuckAt1
		if j%2 == 1 {
			pol = faults.StuckAt0
		}
		if err := fm.Add(faults.StuckAtFault{Row: row, Col: j, Bit: fixed.WordBits - 2, Pol: pol}); err != nil {
			t.Fatal(err)
		}
	}
	return fm
}

// halfFaultyMask selects every other PE, in row-major order, among those
// faulty in either register map, plus every eighth PE regardless: the
// entries on healthy PEs must be inert.
func halfFaultyMask(n int, maps ...*faults.Map) []bool {
	faulty := make([]bool, n)
	for _, m := range maps {
		if m == nil {
			continue
		}
		for _, f := range m.Faults {
			faulty[f.Row*m.Cols+f.Col] = true
		}
	}
	mask := make([]bool, n)
	odd := false
	for i, f := range faulty {
		if f {
			mask[i] = odd
			odd = !odd
		} else {
			mask[i] = i%8 == 0
		}
	}
	return mask
}

// TestCompiledTilesRecompileOnFaultChange asserts the compiled weight-tile
// cache is invalidated by every fault-state mutation: a Matrix first used
// on a clean array must observe weight faults injected afterwards, their
// clearing, and bypass toggles — matching the scalar reference at each
// step, for binary, analog and pooled (level-table) inputs alike.
func TestCompiledTilesRecompileOnFaultChange(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	const rows, cols, b, k, m = 8, 8, 4, 24, 12
	w := tensor.New(m, k)
	w.RandNormal(rng, 0.5)
	wm := QuantizeMatrix(w, fixed.Q16x16)
	x := randSpikeInput(rng, b, k, 0.4)
	analog := randAnalogInput(rng, b, k)
	pooled := randPooledInput(rng, b, k, 0.5)

	fm, err := faults.Generate(rows, cols, faults.GenSpec{
		NumFaulty: 12, BitMode: faults.MSBBits, Pol: faults.StuckAt1,
	}, rng)
	if err != nil {
		t.Fatal(err)
	}
	wfm, err := faults.Generate(rows, cols, faults.GenSpec{
		NumFaulty: 10, BitMode: faults.MSBBits, Pol: faults.StuckAt0,
	}, rng)
	if err != nil {
		t.Fatal(err)
	}

	arr := newTestArray(t, rows, cols, tensor.Serial(), nil, nil, false, true)
	var tally scalarTally
	step := func(label string, mutate func(a *Array)) {
		t.Helper()
		mutate(arr)
		assertMatchesScalar(t, label+" binary", arr, &tally, x, wm, true)
		assertMatchesScalar(t, label+" analog", arr, &tally, analog, wm, false)
		assertMatchesScalar(t, label+" pooled", arr, &tally, pooled, wm, false)
	}
	rates, err := faults.BitRates(faults.ProfileDecay, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	mem := &faults.MemoryFaults{Seed: 3, BitRate: rates}
	ts, err := faults.GenerateTransient(rows, cols, faults.TransientSpec{
		Strikes: 10, BitMode: faults.MSBBits, Pol: faults.StuckAt1, Start: 1, MaxDuration: 2,
	}, rng)
	if err != nil {
		t.Fatal(err)
	}

	step("clean", func(a *Array) {})
	step("inject-acc", func(a *Array) {
		if err := a.InjectFaults(fm); err != nil {
			t.Fatal(err)
		}
	})
	step("inject-weight", func(a *Array) {
		if err := a.InjectWeightFaults(wfm); err != nil {
			t.Fatal(err)
		}
	})
	step("bypass-on", func(a *Array) { a.SetBypass(true) })
	step("bypass-off", func(a *Array) { a.SetBypass(false) })
	step("inject-mem", func(a *Array) {
		if err := a.InjectMemoryFaults(mem); err != nil {
			t.Fatal(err)
		}
	})
	step("swap-mem", func(a *Array) {
		if err := a.InjectMemoryFaults(&faults.MemoryFaults{Seed: 4, BitRate: rates}); err != nil {
			t.Fatal(err)
		}
	})
	step("inject-transient", func(a *Array) {
		if err := a.InjectTransient(ts); err != nil {
			t.Fatal(err)
		}
	})
	step("timestep-strike", func(a *Array) { a.SetTimestep(1) })
	step("timestep-decayed", func(a *Array) { a.SetTimestep(ts.Horizon()) })
	step("clear", func(a *Array) { a.ClearFaults() })
}

// TestTransientTimestepSweep drives an array with a soft-error schedule
// through every timestep from before the burst to past its horizon,
// asserting at each step, on the serial and the parallel engine, that (1)
// Forward matches the scalar reference bit for bit, (2) steps outside
// every strike window reproduce the clean output exactly, and (3) steps
// inside the burst corrupt it. It also
// pins the SetTimestep contract: advancing time never recompiles weight
// tiles, while every true fault mutation does.
func TestTransientTimestepSweep(t *testing.T) {
	activeStrikes := func(ts *faults.TransientSchedule, step int) int {
		n := 0
		for _, st := range ts.Strikes {
			if st.ActiveAt(step) {
				n++
			}
		}
		return n
	}

	rng := rand.New(rand.NewSource(11))
	const rows, cols, b, k, m = 8, 8, 4, 20, 11
	w := tensor.New(m, k)
	w.RandNormal(rng, 0.5)
	wm := QuantizeMatrix(w, fixed.Q16x16)
	x := randSpikeInput(rng, b, k, 0.5)

	// MSB strikes landing at t=2, decaying within 3 steps.
	ts, err := faults.GenerateTransient(rows, cols, faults.TransientSpec{
		Strikes: 16, BitMode: faults.MSBBits, Pol: faults.StuckAt1, Start: 2, MaxDuration: 3,
	}, rng)
	if err != nil {
		t.Fatal(err)
	}
	if activeStrikes(ts, 2) != 16 {
		t.Fatalf("burst at t=2 has %d active strikes, want 16", activeStrikes(ts, 2))
	}

	baseline := newTestArray(t, rows, cols, tensor.Serial(), nil, nil, false, false)
	clean := baseline.Forward(tensor.RowPatches(x), wm, true)

	// On the parallel engine the patch rows split across workers, which
	// all read the special-PE list SetTimestep rebuilt.
	for _, eng := range []tensor.Backend{tensor.Serial(), tensor.NewParallel(4)} {
		t.Run(eng.Name(), func(t *testing.T) {
			sparse := newTestArray(t, rows, cols, eng, nil, nil, false, true)
			if err := sparse.InjectTransient(ts); err != nil {
				t.Fatal(err)
			}
			var tally scalarTally
			genBefore := sparse.gen.Load()
			for step := 0; step <= ts.Horizon()+1; step++ {
				sparse.SetTimestep(step)
				label := fmt.Sprintf("t=%d", step)
				got := assertMatchesScalar(t, label, sparse, &tally, x, wm, true)
				same := true
				for i := range got.Data {
					if math.Float32bits(clean.Data[i]) != math.Float32bits(got.Data[i]) {
						same = false
					}
				}
				if active := activeStrikes(ts, step) > 0; active == same {
					t.Fatalf("%s: %d active strikes but output unchanged=%v", label, activeStrikes(ts, step), same)
				}
			}
			if gen := sparse.gen.Load(); gen != genBefore {
				t.Fatalf("SetTimestep sweep bumped tile generation %d -> %d; timestep advances must not recompile weights", genBefore, gen)
			}
			sparse.ClearFaults()
			if gen := sparse.gen.Load(); gen == genBefore {
				t.Fatal("ClearFaults did not bump tile generation")
			}
		})
	}
}

// TestBuildEventsClassifiesLevels pins the per-call classification that
// picks the level table: a call whose stored inputs are all 0.25, 0.5,
// 0.75 or 1 gets their level indices, and one other stored value (or a
// binary call) gets none, so the products are quantized as before.
func TestBuildEventsClassifiesLevels(t *testing.T) {
	x := tensor.FromSlice([]float32{0.25, 0, 0.5, 0.75, 1, 0, 1, 0.25}, 2, 4)
	ev := buildEvents(tensor.RowPatches(x), 4, false, true)
	if want := []uint8{0, 1, 2, 3, 3, 0}; !slices.Equal(ev.lvl, want) {
		t.Fatalf("level indices %v, want %v", ev.lvl, want)
	}
	if ev := buildEvents(tensor.RowPatches(x), 4, false, false); ev.lvl != nil {
		t.Fatalf("binary call classified as levels: %v", ev.lvl)
	}
	inf := float32(math.Inf(1))
	for _, v := range append([]float32{0.125, 0.7, 1.25, 2, -1, inf}, nonLevels...) {
		x.Data[5] = v
		if ev := buildEvents(tensor.RowPatches(x), 4, false, true); ev.lvl != nil {
			t.Errorf("input with a stored %v classified as levels: %v", v, ev.lvl)
		}
	}
}
