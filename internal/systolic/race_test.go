package systolic

import (
	"math"
	"math/rand"
	"sync"
	"testing"

	"falvolt/internal/faults"
	"falvolt/internal/fixed"
	"falvolt/internal/tensor"
)

// TestTileCacheConcurrentMutationStress hammers the compiled-tile cache
// from many goroutines at once: one shared Matrix serves a fleet of
// arrays whose owners race Forward calls against fault-state generation
// bumps (InjectFaults / InjectMemoryFaults / InjectTransient /
// ClearFaults / SetBypass) on their own array, while another pack of
// goroutines runs concurrent binary, pooled and analog Forwards on one
// clean shared array. The
// cache's invalidation sweep reads every array's generation under the
// matrix lock, so cross-array traffic exercises it constantly. Run
// under -race in CI; the output checks also pin that a view compiled
// for one array's fault state never leaks into another's result.
func TestTileCacheConcurrentMutationStress(t *testing.T) {
	const rows, cols, b, k, m = 8, 8, 3, 20, 12
	const owners, iters = 6, 30
	rng := rand.New(rand.NewSource(13))
	w := tensor.New(m, k)
	w.RandNormal(rng, 0.5)
	wm := QuantizeMatrix(w, fixed.Q16x16)
	x := randSpikeInput(rng, b, k, 0.4)

	mk := func(eng tensor.Backend) *Array {
		a, err := New(Config{Rows: rows, Cols: cols, Format: fixed.Q16x16, Saturate: true, Engine: eng})
		if err != nil {
			t.Fatal(err)
		}
		return a
	}

	// Fault phases every owner cycles through, and the per-phase expected
	// outputs (computed serially up front on a scratch array — each
	// owner's seed is its goroutine index, so phase outputs differ
	// between owners and a cross-owner tile mixup cannot cancel out).
	type phase struct {
		name   string
		mutate func(a *Array, seed int64)
	}
	phases := []phase{
		{"stuckat", func(a *Array, seed int64) {
			model := faults.StuckAtModel{Gen: faults.GenSpec{BitMode: faults.MSBBits, Pol: faults.StuckAt1}}
			if err := model.Inject(a, 0.25, seed); err != nil {
				t.Error(err)
			}
		}},
		{"bitflip", func(a *Array, seed int64) {
			model := faults.BitFlipModel{Profile: faults.ProfileUniform}
			if err := model.Inject(a, 0.1, seed); err != nil {
				t.Error(err)
			}
		}},
		{"transient", func(a *Array, seed int64) {
			model := faults.TransientModel{Gen: faults.GenSpec{BitMode: faults.MSBBits, Pol: faults.StuckAt1}}
			if err := model.Inject(a, 0.25, seed); err != nil {
				t.Error(err)
			}
		}},
		{"bypass", func(a *Array, seed int64) { a.SetBypass(true) }},
		{"clear", func(a *Array, seed int64) { a.ClearFaults(); a.SetBypass(false) }},
	}
	expected := make([][]*tensor.Tensor, owners)
	scratch := mk(tensor.Serial())
	for o := 0; o < owners; o++ {
		scratch.ClearFaults()
		scratch.SetBypass(false)
		expected[o] = make([]*tensor.Tensor, len(phases))
		for p, ph := range phases {
			ph.mutate(scratch, int64(o))
			expected[o][p] = scratch.Forward(tensor.RowPatches(x), wm, true)
		}
	}

	var wg sync.WaitGroup
	for o := 0; o < owners; o++ {
		wg.Add(1)
		go func(o int) {
			defer wg.Done()
			arr := mk(tensor.Serial())
			for it := 0; it < iters; it++ {
				for p, ph := range phases {
					ph.mutate(arr, int64(o))
					got := arr.Forward(tensor.RowPatches(x), wm, true)
					want := expected[o][p]
					for i := range want.Data {
						if math.Float32bits(want.Data[i]) != math.Float32bits(got.Data[i]) {
							t.Errorf("owner %d iter %d phase %s: y[%d] = %v, want %v",
								o, it, ph.name, i, got.Data[i], want.Data[i])
							return
						}
					}
				}
			}
		}(o)
	}

	// Concurrent Forwards on one clean shared array (the batch-parallel
	// evaluation pattern) against the same shared Matrix. The readers mix
	// binary, pooled and analog input, so the view's dequantized weights
	// and level table are built while other readers use it.
	shared := mk(tensor.NewParallel(2))
	scratch.ClearFaults()
	scratch.SetBypass(false)
	inputs := []struct {
		x      *tensor.Tensor
		binary bool
	}{{x, true}, {randPooledInput(rng, b, k, 0.4), false}, {randAnalogInput(rng, b, k), false}}
	wantClean := make([]*tensor.Tensor, len(inputs))
	for i, in := range inputs {
		wantClean[i] = scratch.Forward(tensor.RowPatches(in.x), wm, in.binary)
	}
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			in, want := inputs[g%len(inputs)], wantClean[g%len(inputs)]
			for it := 0; it < iters; it++ {
				got := shared.Forward(tensor.RowPatches(in.x), wm, in.binary)
				for i := range want.Data {
					if math.Float32bits(want.Data[i]) != math.Float32bits(got.Data[i]) {
						t.Errorf("shared reader %d iter %d: y[%d] = %v, want %v",
							g, it, i, got.Data[i], want.Data[i])
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
}
