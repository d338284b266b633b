package mapping

import (
	"math/rand"
	"testing"
	"testing/quick"

	"falvolt/internal/faults"
	"falvolt/internal/tensor"
)

func TestDeriveSingleTile(t *testing.T) {
	// 4x4 array, 4x4 weights: weight (m,k) maps to PE(k, m) one-to-one.
	fm := faults.NewMap(4, 4)
	_ = fm.Add(faults.StuckAtFault{Row: 2, Col: 1, Bit: 31, Pol: faults.StuckAt1})
	mask, err := Derive(fm, 4, 4)
	if err != nil {
		t.Fatal(err)
	}
	if mask.Count() != 1 {
		t.Fatalf("Count = %d, want 1", mask.Count())
	}
	// Weight w[m=1][k=2] is the only pruned one.
	if !mask.Pruned[1*4+2] {
		t.Error("expected weight (m=1,k=2) pruned")
	}
}

func TestDeriveReusePrunesMultipleWeights(t *testing.T) {
	// K=8 on a 4x4 array: two K tiles, so one faulty PE prunes two weights
	// per mapped output column (the paper's array-reuse effect).
	fm := faults.NewMap(4, 4)
	_ = fm.Add(faults.StuckAtFault{Row: 1, Col: 0, Bit: 31, Pol: faults.StuckAt1})
	mask, err := Derive(fm, 8, 8)
	if err != nil {
		t.Fatal(err)
	}
	// Columns m ∈ {0, 4} map to PE col 0; rows k ∈ {1, 5} map to PE row 1.
	want := map[[2]int]bool{{0, 1}: true, {0, 5}: true, {4, 1}: true, {4, 5}: true}
	if mask.Count() != len(want) {
		t.Fatalf("Count = %d, want %d", mask.Count(), len(want))
	}
	for key := range want {
		if !mask.Pruned[key[0]*8+key[1]] {
			t.Errorf("expected weight (m=%d,k=%d) pruned", key[0], key[1])
		}
	}
}

func TestDeriveErrors(t *testing.T) {
	fm := faults.NewMap(4, 4)
	if _, err := Derive(fm, 0, 4); err == nil {
		t.Error("zero M should error")
	}
	if _, err := Derive(fm, 4, -1); err == nil {
		t.Error("negative K should error")
	}
}

func TestFractionMatchesFaultRateSingleTileFullUse(t *testing.T) {
	// When the weight matrix exactly covers the array once, the pruned
	// fraction equals the PE fault rate.
	rng := rand.New(rand.NewSource(11))
	fm, err := faults.Generate(8, 8, faults.GenSpec{NumFaulty: 16, BitMode: faults.MSBBits}, rng)
	if err != nil {
		t.Fatal(err)
	}
	mask, err := Derive(fm, 8, 8)
	if err != nil {
		t.Fatal(err)
	}
	if frac := float64(mask.Count()) / float64(len(mask.Pruned)); frac != fm.FaultRate() {
		t.Errorf("pruned fraction %v != fault rate %v", frac, fm.FaultRate())
	}
}

func TestApplyZeroesOnlyPruned(t *testing.T) {
	fm := faults.NewMap(2, 2)
	_ = fm.Add(faults.StuckAtFault{Row: 0, Col: 0, Bit: 5, Pol: faults.StuckAt0})
	mask, err := Derive(fm, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	w := tensor.FromSlice([]float32{1, 2, 3, 4}, 2, 2)
	mask.Apply(w)
	// Pruned: (m=0,k=0) only.
	if w.Data[0] != 0 {
		t.Error("pruned weight not zeroed")
	}
	if w.Data[1] != 2 || w.Data[2] != 3 || w.Data[3] != 4 {
		t.Errorf("unpruned weights modified: %v", w.Data)
	}
}

func TestApplyPanicsOnSizeMismatch(t *testing.T) {
	mask := &PruneMask{M: 2, K: 2, Pruned: make([]bool, 4)}
	defer func() {
		if recover() == nil {
			t.Error("size mismatch should panic")
		}
	}()
	mask.Apply(tensor.New(3, 3))
}

func TestDeriveConsistentWithPERowCol(t *testing.T) {
	// Property: a weight is pruned iff its PE (k mod R, m mod C) is faulty.
	err := quick.Check(func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		rows, cols := 4+rng.Intn(5), 4+rng.Intn(5)
		fm, err := faults.Generate(rows, cols, faults.GenSpec{NumFaulty: 1 + rng.Intn(rows*cols/2), BitMode: faults.RandomBit, PolMode: faults.RandomPol}, rng)
		if err != nil {
			return false
		}
		faulty := make(map[[2]int]bool)
		for _, f := range fm.Faults {
			faulty[[2]int{f.Row, f.Col}] = true
		}
		m, k := 1+rng.Intn(20), 1+rng.Intn(20)
		mask, err := Derive(fm, m, k)
		if err != nil {
			return false
		}
		for mi := 0; mi < m; mi++ {
			for ki := 0; ki < k; ki++ {
				want := faulty[[2]int{ki % rows, mi % cols}]
				if mask.Pruned[mi*k+ki] != want {
					return false
				}
			}
		}
		return true
	}, &quick.Config{MaxCount: 30})
	if err != nil {
		t.Error(err)
	}
}
