package systolic

import (
	"math"
	"math/rand"
	"testing"

	"falvolt/internal/faults"
	"falvolt/internal/tensor"
)

func TestWeightFaultCorruptsColumn(t *testing.T) {
	a := mustNew(smallConfig())
	fm := faults.NewMap(8, 8)
	// Stuck-at-1 on a high weight bit of PE(0,0): weight w[m=0][k=0]
	// becomes hugely wrong whenever a spike gates it in.
	_ = fm.Add(faults.StuckAtFault{Row: 0, Col: 0, Bit: 30, Pol: faults.StuckAt1})
	if err := a.InjectWeightFaults(fm); err != nil {
		t.Fatal(err)
	}
	x := tensor.FromSlice([]float32{1, 0, 0, 0, 0, 0, 0, 0}, 1, 8)
	w := tensor.New(8, 8)
	w.Fill(0.25)
	got := a.Forward(tensor.RowPatches(x), QuantizeMatrix(w, a.Config().Format), true)
	// Column 0 corrupted: 0.25 with bit 30 forced = 0.25 + 2^30*2^-16.
	wantCorrupt := 0.25 + math.Ldexp(1, 30-16)
	if d := math.Abs(float64(got.At(0, 0)) - wantCorrupt); d > 1e-3 {
		t.Errorf("weight fault column = %v, want %v", got.At(0, 0), wantCorrupt)
	}
	// Other columns untouched.
	if d := math.Abs(float64(got.At(0, 1)) - 0.25); d > 1e-3 {
		t.Errorf("clean column = %v, want 0.25", got.At(0, 1))
	}
}

func TestWeightFaultOnlyFiresWithSpike(t *testing.T) {
	a := mustNew(smallConfig())
	fm := faults.NewMap(8, 8)
	_ = fm.Add(faults.StuckAtFault{Row: 2, Col: 0, Bit: 30, Pol: faults.StuckAt1})
	if err := a.InjectWeightFaults(fm); err != nil {
		t.Fatal(err)
	}
	// No spike at k=2: the corrupted weight is never accumulated, unlike
	// an accumulator fault which corrupts every passing partial sum.
	x := tensor.FromSlice([]float32{1, 1, 0, 1, 0, 0, 0, 0}, 1, 8)
	w := tensor.New(8, 8)
	w.Fill(0.125)
	got := a.Forward(tensor.RowPatches(x), QuantizeMatrix(w, a.Config().Format), true)
	if d := math.Abs(float64(got.At(0, 0)) - 0.375); d > 1e-3 {
		t.Errorf("weight fault fired without a spike: %v", got.At(0, 0))
	}
}

func TestWeightFaultBypassed(t *testing.T) {
	a := mustNew(smallConfig())
	fm := faults.NewMap(8, 8)
	_ = fm.Add(faults.StuckAtFault{Row: 0, Col: 0, Bit: 30, Pol: faults.StuckAt1})
	if err := a.InjectWeightFaults(fm); err != nil {
		t.Fatal(err)
	}
	a.SetBypass(true)
	x := tensor.FromSlice([]float32{1, 1, 0, 0, 0, 0, 0, 0}, 1, 8)
	w := tensor.New(8, 8)
	w.Fill(0.5)
	got := a.Forward(tensor.RowPatches(x), QuantizeMatrix(w, a.Config().Format), true)
	// PE(0,0) bypassed: only the k=1 weight contributes to column 0.
	if d := math.Abs(float64(got.At(0, 0)) - 0.5); d > 1e-3 {
		t.Errorf("bypassed weight fault column = %v, want 0.5", got.At(0, 0))
	}
}

func TestWeightFaultAnalogPath(t *testing.T) {
	a := mustNew(smallConfig())
	fm := faults.NewMap(8, 8)
	// Stuck-at-0 on all relevant bits of a weight: weight becomes ~0 so
	// the analog product vanishes.
	for bit := uint(0); bit < 31; bit++ {
		_ = fm.Add(faults.StuckAtFault{Row: 0, Col: 0, Bit: bit, Pol: faults.StuckAt0})
	}
	if err := a.InjectWeightFaults(fm); err != nil {
		t.Fatal(err)
	}
	x := tensor.FromSlice([]float32{0.5, 0, 0, 0, 0, 0, 0, 0}, 1, 8)
	w := tensor.New(8, 8)
	w.Fill(0.5)
	got := a.Forward(tensor.RowPatches(x), QuantizeMatrix(w, a.Config().Format), false)
	if math.Abs(float64(got.At(0, 0))) > 1e-3 {
		t.Errorf("zeroed weight should kill analog product, got %v", got.At(0, 0))
	}
}

func TestInjectWeightFaultsDimensionMismatch(t *testing.T) {
	a := mustNew(smallConfig())
	if err := a.InjectWeightFaults(faults.NewMap(4, 4)); err == nil {
		t.Error("mismatched dimensions should error")
	}
}

func TestScanTestWeightsRecovers(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a := mustNew(smallConfig())
	fm, err := faults.Generate(8, 8, faults.GenSpec{
		NumFaulty: 10, BitMode: faults.RandomBit, PolMode: faults.RandomPol,
	}, rng)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.InjectWeightFaults(fm); err != nil {
		t.Fatal(err)
	}
	rec := a.ScanTestWeights()
	key := func(f faults.StuckAtFault) [4]int {
		return [4]int{f.Row, f.Col, int(f.Bit), int(f.Pol)}
	}
	want := make(map[[4]int]bool)
	for _, f := range fm.Faults {
		want[key(f)] = true
	}
	if len(rec.Faults) != len(want) {
		t.Fatalf("recovered %d stuck bits, want %d", len(rec.Faults), len(want))
	}
	for _, f := range rec.Faults {
		if !want[key(f)] {
			t.Errorf("spurious recovered fault %v", f)
		}
	}
	// The accumulator scan must NOT see weight faults.
	if acc := a.ScanTest(); len(acc.Faults) != 0 {
		t.Errorf("accumulator scan picked up weight faults: %v", acc.Faults)
	}
}

func TestBothRegisterFaultsCoexist(t *testing.T) {
	a := mustNew(smallConfig())
	accFm := faults.NewMap(8, 8)
	_ = accFm.Add(faults.StuckAtFault{Row: 1, Col: 1, Bit: 29, Pol: faults.StuckAt1})
	wFm := faults.NewMap(8, 8)
	_ = wFm.Add(faults.StuckAtFault{Row: 2, Col: 2, Bit: 28, Pol: faults.StuckAt1})
	if err := a.InjectWeightFaults(wFm); err != nil {
		t.Fatal(err)
	}
	if err := a.InjectFaults(accFm); err != nil {
		t.Fatal(err)
	}
	if a.WeightFaultMap() == nil || a.FaultMap() == nil {
		t.Fatal("both maps should be installed")
	}
	// Both PEs must be bypassable.
	a.SetBypass(true)
	x := tensor.New(1, 8)
	x.Fill(1)
	w := tensor.New(8, 8)
	w.Fill(0.125)
	got := a.Forward(tensor.RowPatches(x), QuantizeMatrix(w, a.Config().Format), true)
	// Columns 1 and 2 each lose exactly one 0.125 contribution.
	if d := math.Abs(float64(got.At(0, 1)) - 0.875); d > 1e-3 {
		t.Errorf("column 1 = %v, want 0.875", got.At(0, 1))
	}
	if d := math.Abs(float64(got.At(0, 2)) - 0.875); d > 1e-3 {
		t.Errorf("column 2 = %v, want 0.875", got.At(0, 2))
	}
	a.ClearFaults()
	if a.WeightFaultMap() != nil || a.FaultMap() != nil {
		t.Error("ClearFaults must drop both maps")
	}
}
