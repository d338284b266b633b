package systolic

import (
	"math/rand"
	"reflect"
	"testing"

	"falvolt/internal/faults"
	"falvolt/internal/tensor"
)

// TestSetBypassMask covers the selective bypass muxes RescueSNN-style
// salvage programs: per-PE selection composes with faults, is inert on
// healthy PEs, matches the global switch when it covers every faulty
// PE, and cannot leak across ClearFaults.
func TestSetBypassMask(t *testing.T) {
	a, err := New(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	rows, cols := a.Dims()

	if err := a.SetBypassMask(make([]bool, 3)); err == nil {
		t.Error("wrong-length mask should error")
	}

	fm := faults.NewMap(rows, cols)
	for _, f := range []faults.StuckAtFault{
		{Row: 0, Col: 1, Bit: 30, Pol: faults.StuckAt1},
		{Row: 2, Col: 3, Bit: 30, Pol: faults.StuckAt1},
	} {
		if err := fm.Add(f); err != nil {
			t.Fatal(err)
		}
	}
	if err := a.InjectFaults(fm); err != nil {
		t.Fatal(err)
	}
	if got := a.BypassedPEs(); got != 0 {
		t.Fatalf("no mask, no switch: %d PEs bypassed", got)
	}

	// Selecting one faulty PE bypasses exactly it; healthy entries are
	// inert.
	mask := make([]bool, rows*cols)
	mask[0*cols+1] = true // faulty
	mask[5*cols+5] = true // healthy: a bypass mux only routes around its own PE
	if err := a.SetBypassMask(mask); err != nil {
		t.Fatal(err)
	}
	if got := a.BypassedPEs(); got != 1 {
		t.Fatalf("selective mask bypassed %d PEs, want 1", got)
	}

	// A mask covering every faulty PE reproduces the global switch
	// bit-for-bit on a real workload.
	rng := rand.New(rand.NewSource(3))
	x := randSpikes(rng, 4, rows, 0.5)
	w := randMat(rng, cols, rows)
	wm := QuantizeMatrix(w, a.Config().Format)

	mask[0*cols+1] = true
	mask[2*cols+3] = true
	if err := a.SetBypassMask(mask); err != nil {
		t.Fatal(err)
	}
	if got := a.BypassedPEs(); got != 2 {
		t.Fatalf("full mask bypassed %d PEs, want 2", got)
	}
	yMask := a.Forward(tensor.RowPatches(x), wm, true)

	if err := a.SetBypassMask(nil); err != nil {
		t.Fatal(err)
	}
	a.SetBypass(true)
	yGlobal := a.Forward(tensor.RowPatches(x), wm, true)
	a.SetBypass(false)
	if !reflect.DeepEqual(yMask.Data, yGlobal.Data) {
		t.Fatal("selective mask over all faulty PEs differs from the global bypass switch")
	}

	// ClearFaults drops the mask: a reinjection starts unbypassed.
	if err := a.SetBypassMask(mask); err != nil {
		t.Fatal(err)
	}
	a.ClearFaults()
	if err := a.InjectFaults(fm); err != nil {
		t.Fatal(err)
	}
	if got := a.BypassedPEs(); got != 0 {
		t.Fatalf("mask leaked across ClearFaults: %d PEs bypassed", got)
	}
}
