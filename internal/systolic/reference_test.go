package systolic

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"falvolt/internal/faults"
	"falvolt/internal/fixed"
	"falvolt/internal/tensor"
)

// This file property-tests the whole forward contract — every fault
// model, both adder modes, both engines — against scalarForward, a
// from-scratch triple-loop model of the architecture that shares no
// code with the production path: masks are rebuilt from the raw fault
// structures, bit forcing is reimplemented inline, and tiles are walked
// in the plain textbook order. It also models the datapath statistics
// and per-PE spike counters, so sparse_test.go checks the event-list
// plane and the compiled tiles against it on all three. If those two and
// this model agree bit for bit, a bug would have to be replicated three
// independent ways to hide.

// scalarForward computes y = forward(x, wm) for a rows x cols array
// carrying the given fault state at timestep tstep, together with the
// Stats the pass charges and the spike counts it adds to each PE
// (binary inputs only; indexed row*cols+col). bypass is the global
// bypass switch; bypMask, if non-nil, selects bypass muxes per PE
// (row-major), as SetBypassMask programs them.
func scalarForward(cfg Config, fm, wfm *faults.Map, mem *faults.MemoryFaults,
	ts *faults.TransientSchedule, tstep int, bypass bool, bypMask []bool,
	x *tensor.Tensor, wm *Matrix, binary bool) (*tensor.Tensor, Stats, []uint64) {

	rows, cols := cfg.Rows, cfg.Cols
	n := rows * cols
	pOr := make([]uint32, n)
	pCl := make([]uint32, n)
	wOr := make([]uint32, n)
	wCl := make([]uint32, n)
	tOr := make([]uint32, n)
	tCl := make([]uint32, n)
	fill := func(m *faults.Map, or, cl []uint32) {
		if m == nil {
			return
		}
		for _, f := range m.Faults {
			idx := f.Row*cols + f.Col
			if f.Pol == faults.StuckAt1 {
				or[idx] |= 1 << f.Bit
			} else {
				cl[idx] |= 1 << f.Bit
			}
		}
	}
	fill(fm, pOr, pCl)
	fill(wfm, wOr, wCl)
	if ts != nil {
		for _, st := range ts.Strikes {
			if tstep < st.Start || tstep >= st.Start+st.Duration {
				continue
			}
			idx := st.Row*cols + st.Col
			if st.Pol == faults.StuckAt1 {
				tOr[idx] |= 1 << st.Bit
			} else {
				tCl[idx] |= 1 << st.Bit
			}
		}
	}
	// Effective accumulator forcing = permanent + active transient bits;
	// bypass (global or per-PE) covers permanently faulty PEs only
	// (either register).
	or := make([]uint32, n)
	cl := make([]uint32, n)
	byp := make([]bool, n)
	for i := 0; i < n; i++ {
		or[i] = pOr[i] | tOr[i]
		cl[i] = pCl[i] | tCl[i]
		selected := bypass || (bypMask != nil && bypMask[i])
		byp[i] = selected && (pOr[i]|pCl[i]|wOr[i]|wCl[i] != 0)
	}

	add := func(a, v fixed.Word) fixed.Word {
		if cfg.Saturate {
			return fixed.AddSat(a, v)
		}
		return fixed.AddWrap(a, v)
	}
	b := x.Shape[0]
	y := tensor.New(b, wm.M)
	scale := float32(wm.Format.Scale())
	var st Stats
	st.TilePasses = uint64(((wm.K + rows - 1) / rows) * ((wm.M + cols - 1) / cols))
	st.MACCycles = st.TilePasses * uint64(rows+cols+b-2)
	spikes := make([]uint64, n)
	for bi := 0; bi < b; bi++ {
		for m := 0; m < wm.M; m++ {
			col := m % cols
			var total int64
			for k0 := 0; k0 < wm.K; k0 += rows {
				k1 := k0 + rows
				if k1 > wm.K {
					k1 = wm.K
				}
				var acc fixed.Word
				for k := k0; k < k1; k++ {
					idx := (k%rows)*cols + col
					xv := x.Data[bi*wm.K+k]
					if binary && xv != 0 {
						spikes[idx]++
					}
					if byp[idx] {
						st.BypassedSteps++
						continue
					}
					st.Accumulations++
					var v fixed.Word
					if xv != 0 {
						w := wm.Words[m*wm.K+k]
						if mem != nil {
							w = mem.FlipWord(m*wm.K+k, w)
						}
						w = fixed.Word((uint32(w) | wOr[idx]) &^ wCl[idx])
						if binary {
							v = w
						} else {
							v = wm.Format.Quantize(float64(xv) * wm.Format.Dequantize(w))
						}
					}
					acc = add(acc, v)
					if or[idx]|cl[idx] != 0 {
						acc = fixed.Word((uint32(acc) | or[idx]) &^ cl[idx])
					}
				}
				total += int64(acc)
			}
			y.Data[bi*wm.M+m] = float32(total) * scale
		}
	}
	return y, st, spikes
}

// TestForwardMatchesScalarReference injects each fault model through its
// FaultModel seam at several rates and asserts Forward reproduces the
// scalar model bit for bit, across saturating
// and wraparound adders, serial and parallel engines, binary and analog
// inputs, and timesteps before/during/after a transient burst.
func TestForwardMatchesScalarReference(t *testing.T) {
	models := []struct {
		name  string
		model faults.FaultModel
	}{
		{"stuckat", faults.StuckAtModel{Gen: faults.GenSpec{BitMode: faults.RandomBit, PolMode: faults.RandomPol}}},
		{"bitflip", faults.BitFlipModel{Profile: faults.ProfileUniform}},
		{"bitflip-decay", faults.BitFlipModel{Profile: faults.ProfileDecay}},
		{"transient", faults.TransientModel{Gen: faults.GenSpec{BitMode: faults.MSBBits, Pol: faults.StuckAt1, PolMode: faults.RandomPol}, Start: 1, MaxDuration: 2}},
	}
	const rows, cols, b, k, m = 8, 8, 3, 19, 13
	rng := rand.New(rand.NewSource(21))
	w := tensor.New(m, k)
	w.RandNormal(rng, 0.8)
	spikes := randSpikeInput(rng, b, k, 0.5)
	analog := randAnalogInput(rng, b, k)

	for _, mc := range models {
		for _, rate := range []float64{0, 0.1, 0.5} {
			for _, sat := range []bool{true, false} {
				for _, bypass := range []bool{false, true} {
					for _, eng := range []tensor.Backend{tensor.Serial(), tensor.NewParallel(4)} {
						cfg := Config{Rows: rows, Cols: cols, Format: fixed.Q16x16, Saturate: sat, Engine: eng}
						arr, err := New(cfg)
						if err != nil {
							t.Fatal(err)
						}
						if err := mc.model.Inject(arr, rate, 1234); err != nil {
							t.Fatal(err)
						}
						arr.SetBypass(bypass)
						// The scalar model reads the instance straight off
						// the array's getters — the same structures Inject
						// installed.
						fm, mem, ts := arr.FaultMap(), arr.MemoryFaults(), arr.Transient()
						wm := QuantizeMatrix(w, fixed.Q16x16)
						steps := []int{0}
						if ts != nil {
							steps = []int{0, 1, 2, ts.Horizon() + 1}
						}
						for _, step := range steps {
							arr.SetTimestep(step)
							label := fmt.Sprintf("%s rate=%g sat=%v byp=%v eng=%s t=%d",
								mc.name, rate, sat, bypass, eng.Name(), step)
							for _, binary := range []bool{true, false} {
								x := spikes
								if !binary {
									x = analog
								}
								got := arr.Forward(tensor.RowPatches(x), wm, binary)
								want, _, _ := scalarForward(cfg, fm, nil, mem, ts, step, bypass, nil, x, wm, binary)
								for i := range want.Data {
									if math.Float32bits(want.Data[i]) != math.Float32bits(got.Data[i]) {
										t.Fatalf("%s binary=%v: y[%d] = %v, scalar reference %v",
											label, binary, i, got.Data[i], want.Data[i])
									}
								}
							}
						}
					}
				}
			}
		}
	}
}

// TestForwardMatchesScalarReferenceStacked layers all three model
// classes plus weight-register faults on one array — the worst case the
// datapath supports — and checks the scalar model still agrees at every
// timestep around the burst.
func TestForwardMatchesScalarReferenceStacked(t *testing.T) {
	const rows, cols, b, k, m = 8, 8, 4, 24, 12
	rng := rand.New(rand.NewSource(31))
	w := tensor.New(m, k)
	w.RandNormal(rng, 0.8)
	wm := QuantizeMatrix(w, fixed.Q16x16)
	spikes := randSpikeInput(rng, b, k, 0.5)

	wfm, err := faults.Generate(rows, cols, faults.GenSpec{
		NumFaulty: 8, BitMode: faults.MSBBits, Pol: faults.StuckAt0,
	}, rng)
	if err != nil {
		t.Fatal(err)
	}
	for _, sat := range []bool{true, false} {
		for _, bypass := range []bool{false, true} {
			cfg := Config{Rows: rows, Cols: cols, Format: fixed.Q16x16, Saturate: sat, Engine: tensor.Serial()}
			arr, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			stuck := faults.StuckAtModel{Gen: faults.GenSpec{BitMode: faults.RandomBit, PolMode: faults.RandomPol}}
			flip := faults.BitFlipModel{Profile: faults.ProfileDecay}
			trans := faults.TransientModel{Gen: faults.GenSpec{BitMode: faults.MSBBits, Pol: faults.StuckAt1}, Start: 1, MaxDuration: 3}
			for _, inject := range []error{
				stuck.Inject(arr, 0.25, 5),
				flip.Inject(arr, 0.3, 6),
				trans.Inject(arr, 0.25, 7),
				arr.InjectWeightFaults(wfm),
			} {
				if inject != nil {
					t.Fatal(inject)
				}
			}
			arr.SetBypass(bypass)
			fm, mem, ts := arr.FaultMap(), arr.MemoryFaults(), arr.Transient()
			for step := 0; step <= ts.Horizon()+1; step++ {
				arr.SetTimestep(step)
				got := arr.Forward(tensor.RowPatches(spikes), wm, true)
				want, _, _ := scalarForward(cfg, fm, wfm, mem, ts, step, bypass, nil, spikes, wm, true)
				for i := range want.Data {
					if math.Float32bits(want.Data[i]) != math.Float32bits(got.Data[i]) {
						t.Fatalf("sat=%v byp=%v t=%d: y[%d] = %v, scalar reference %v",
							sat, bypass, step, i, got.Data[i], want.Data[i])
					}
				}
			}
		}
	}
}
