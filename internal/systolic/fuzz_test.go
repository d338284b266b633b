package systolic

import (
	"math"
	"math/rand"
	"testing"

	"falvolt/internal/faults"
	"falvolt/internal/fixed"
	"falvolt/internal/tensor"
)

// FuzzForwardMatchesScalar lets the fuzzer pick the grid, the GEMM
// shape, the stuck rows and bits of every column, the per-PE bypass
// mask, the input density, the binary/analog and saturating/wrapping
// modes, and for analog input whether it is pooled (levels only) and how
// many stored entries are not levels, and asserts one Forward on a fresh
// array is bit-identical to scalarForward: outputs, Stats and per-PE
// spike counts.
func FuzzForwardMatchesScalar(f *testing.F) {
	f.Add([]byte{7, 7, 2, 18, 12, 0x03, 5, 1, 2, 3, 30, 1, 1})
	f.Add([]byte{15, 3, 3, 9, 5, 0x01, 3, 2, 2, 15, 31, 0, 1, 0, 0, 5, 0, 1})
	f.Add([]byte{3, 5, 4, 40, 9, 0x1e, 10, 3, 3, 0, 31, 1, 0, 3, 29, 0, 1})
	f.Add([]byte{0, 0, 0, 0, 0, 0x0f, 10, 1, 1, 0, 0, 0, 1})
	f.Add([]byte{7, 7, 2, 18, 12, 0x22, 5, 1, 0, 2, 3, 30, 1, 1})
	f.Add([]byte{15, 3, 3, 9, 5, 0x30, 7, 2, 1, 2, 15, 31, 0, 1})
	// M > Cols: output columns 0, 3 and 6 share PE column 0's special
	// rows (one stuck, one bypassed), 1, 4 and 7 column 1's.
	f.Add([]byte{3, 2, 2, 9, 7, 0x03, 5, 9, 2, 1, 1, 31, 0, 3, 0, 5, 1, 1, 0, 1, 30, 1, 1, 2, 1, 31, 0})
	// K=21 on 8 rows: the last tile holds rows 0-4, so the bypassed PEs
	// on rows 3 and 4 act in it and the bypassed PE on row 6 and the
	// sign bits stuck on rows 5 and 7 do not; binary wrapping, then
	// pooled levels saturating.
	f.Add([]byte{7, 3, 1, 20, 5, 0x01, 6, 17, 2, 3, 1, 31, 1, 6, 0, 2, 1, 1, 4, 1, 29, 1, 1, 5, 1, 31, 0, 1, 7, 0, 31, 0})
	f.Add([]byte{7, 3, 1, 20, 5, 0x22, 6, 17, 0, 2, 3, 1, 31, 1, 6, 0, 2, 1, 1, 4, 1, 29, 1, 1, 5, 1, 31, 0, 1, 7, 0, 31, 0})
	// The parallel engine on a single patch row, fewer than its workers.
	f.Add([]byte{3, 3, 0, 11, 4, 0x13, 7, 33, 1, 2, 1, 31, 1, 2, 0, 1, 31, 0, 3, 0, 0, 0, 0, 1, 1, 0, 4, 0})
	parallel := tensor.NewParallel(2)
	f.Fuzz(func(t *testing.T, data []byte) {
		// next consumes one byte as a value in [0, n); an exhausted
		// input reads as zeros.
		next := func(n int) int {
			if len(data) == 0 {
				return 0
			}
			v := int(data[0]) % n
			data = data[1:]
			return v
		}
		rows, cols := 1+next(16), 1+next(16)
		b, k, m := 1+next(6), 1+next(48), 1+next(24)
		flags := next(256)
		binary, sat := flags&1 != 0, flags&2 != 0
		global := flags&4 != 0
		wide := flags&8 != 0 // weights large enough to overflow a column sum
		pooled := flags&32 != 0
		eng := tensor.Serial()
		if flags&16 != 0 {
			eng = parallel
		}
		density := float64(next(11)) / 10
		seed := int64(next(256))
		others := 0 // stored entries of a pooled input that are not levels
		if pooled {
			others = next(4)
		}

		cfg := Config{Rows: rows, Cols: cols, Format: fixed.Q16x16, Saturate: sat, CountSpikes: true, Engine: eng}
		a, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		fm := faults.NewMap(rows, cols)
		mask := make([]bool, rows*cols)
		for j := 0; j < cols; j++ {
			for n := next(4); n > 0; n-- {
				row := next(rows)
				pol := faults.StuckAt0
				if next(2) == 1 {
					pol = faults.StuckAt1
				}
				if err := fm.Add(faults.StuckAtFault{Row: row, Col: j, Bit: uint(next(fixed.WordBits)), Pol: pol}); err != nil {
					t.Fatal(err)
				}
				mask[row*cols+j] = next(2) == 1
			}
		}
		if err := a.InjectFaults(fm); err != nil {
			t.Fatal(err)
		}
		a.SetBypass(global)
		if err := a.SetBypassMask(mask); err != nil {
			t.Fatal(err)
		}

		rng := rand.New(rand.NewSource(seed))
		w := tensor.New(m, k)
		sigma := 0.5
		if wide {
			sigma = 4000
		}
		w.RandNormal(rng, sigma)
		wm := QuantizeMatrix(w, cfg.Format)
		x := randSpikeInput(rng, b, k, density)
		if !binary {
			for i := range x.Data {
				if x.Data[i] == 0 {
					continue
				}
				switch {
				case !pooled:
					x.Data[i] = float32(rng.NormFloat64())
				case others > 0:
					x.Data[i] = nonLevels[rng.Intn(len(nonLevels))]
					others--
				default:
					x.Data[i] = float32(1+rng.Intn(4)) / 4
				}
			}
		}

		got := a.Forward(tensor.RowPatches(x), wm, binary)
		want, st, spikes := scalarForward(cfg, fm, nil, nil, nil, 0, global, mask, x, wm, binary)
		for i := range want.Data {
			if math.Float32bits(want.Data[i]) != math.Float32bits(got.Data[i]) {
				t.Fatalf("y[%d] = %v, scalar reference %v", i, got.Data[i], want.Data[i])
			}
		}
		if a.Stats() != st {
			t.Fatalf("stats %+v, scalar reference %+v", a.Stats(), st)
		}
		for i, n := range spikes {
			if c := a.SpikeCount(i/cols, i%cols); c != n {
				t.Fatalf("spikeCount(%d,%d) = %d, scalar reference %d", i/cols, i%cols, c, n)
			}
		}
	})
}
