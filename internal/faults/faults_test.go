package faults

import (
	"math/rand"
	"testing"
	"testing/quick"

	"falvolt/internal/fixed"
)

func TestPolarityString(t *testing.T) {
	if StuckAt0.String() != "sa0" || StuckAt1.String() != "sa1" {
		t.Errorf("polarity strings wrong: %v %v", StuckAt0, StuckAt1)
	}
}

func TestStuckAtFaultApply(t *testing.T) {
	f := StuckAtFault{Row: 0, Col: 0, Bit: 3, Pol: StuckAt1}
	if got := f.Apply(0); got != 8 {
		t.Errorf("sa1 bit3 on 0 = %d, want 8", got)
	}
	f.Pol = StuckAt0
	if got := f.Apply(0xF); got != 0x7 {
		t.Errorf("sa0 bit3 on 0xF = %d, want 7", got)
	}
}

func TestMapAddValidation(t *testing.T) {
	m := NewMap(4, 4)
	if err := m.Add(StuckAtFault{Row: 4, Col: 0}); err == nil {
		t.Error("row out of range should error")
	}
	if err := m.Add(StuckAtFault{Row: 0, Col: -1}); err == nil {
		t.Error("negative col should error")
	}
	if err := m.Add(StuckAtFault{Row: 0, Col: 0, Bit: 32}); err == nil {
		t.Error("bit 32 should error")
	}
	if err := m.Add(StuckAtFault{Row: 3, Col: 3, Bit: 31}); err != nil {
		t.Errorf("valid fault rejected: %v", err)
	}
}

func TestNumFaultyPEsDedup(t *testing.T) {
	m := NewMap(4, 4)
	_ = m.Add(StuckAtFault{Row: 1, Col: 1, Bit: 0, Pol: StuckAt0})
	_ = m.Add(StuckAtFault{Row: 1, Col: 1, Bit: 5, Pol: StuckAt1})
	_ = m.Add(StuckAtFault{Row: 2, Col: 0, Bit: 3, Pol: StuckAt1})
	if got := m.NumFaultyPEs(); got != 2 {
		t.Errorf("NumFaultyPEs = %d, want 2 (two bits on one PE dedup)", got)
	}
	if got := m.FaultRate(); got != 2.0/16.0 {
		t.Errorf("FaultRate = %v, want 0.125", got)
	}
}

func TestMasksComposition(t *testing.T) {
	m := NewMap(2, 2)
	_ = m.Add(StuckAtFault{Row: 0, Col: 1, Bit: 2, Pol: StuckAt1})
	_ = m.Add(StuckAtFault{Row: 0, Col: 1, Bit: 4, Pol: StuckAt0})
	or, clear := m.Masks()
	idx := 0*2 + 1
	if or[idx] != 1<<2 {
		t.Errorf("orMask = %b, want bit2", or[idx])
	}
	if clear[idx] != 1<<4 {
		t.Errorf("clearMask = %b, want bit4", clear[idx])
	}
	// The composed transform: force bit2 high, bit4 low.
	w := fixed.ForceBits(0b10000, or[idx], clear[idx])
	if w != 0b00100 {
		t.Errorf("composed transform = %b, want 00100", w)
	}
}

func TestGenerateCountAndBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	m, err := Generate(16, 16, GenSpec{NumFaulty: 40, BitMode: RandomBit, PolMode: RandomPol}, rng)
	if err != nil {
		t.Fatal(err)
	}
	if got := m.NumFaultyPEs(); got != 40 {
		t.Errorf("NumFaultyPEs = %d, want 40 (sampling without replacement)", got)
	}
	for _, f := range m.Faults {
		if f.Row < 0 || f.Row >= 16 || f.Col < 0 || f.Col >= 16 {
			t.Errorf("fault out of bounds: %v", f)
		}
		if f.Bit >= fixed.WordBits {
			t.Errorf("bit out of range: %v", f)
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a, err := Generate(8, 8, GenSpec{NumFaulty: 10, BitMode: MSBBits, Pol: StuckAt1}, rand.New(rand.NewSource(42)))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(8, 8, GenSpec{NumFaulty: 10, BitMode: MSBBits, Pol: StuckAt1}, rand.New(rand.NewSource(42)))
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Faults) != len(b.Faults) {
		t.Fatal("same seed produced different fault counts")
	}
	for i := range a.Faults {
		if a.Faults[i] != b.Faults[i] {
			t.Errorf("fault %d differs: %v vs %v", i, a.Faults[i], b.Faults[i])
		}
	}
}

func TestGenerateMSBBitsRange(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	m, err := Generate(8, 8, GenSpec{NumFaulty: 30, BitMode: MSBBits}, rng)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range m.Faults {
		if f.Bit < 24 || f.Bit > 31 {
			t.Errorf("MSBBits produced bit %d outside [24,31]", f.Bit)
		}
	}
}

func TestGenerateErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	if _, err := Generate(2, 2, GenSpec{NumFaulty: 5}, rng); err == nil {
		t.Error("more faults than PEs should error")
	}
	if _, err := Generate(2, 2, GenSpec{NumFaulty: -1}, rng); err == nil {
		t.Error("negative fault count should error")
	}
	if _, err := GenerateRate(2, 2, 1.5, GenSpec{}, rng); err == nil {
		t.Error("rate > 1 should error")
	}
}

func TestGenerateRate(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	m, err := GenerateRate(16, 16, 0.25, GenSpec{BitMode: FixedBit, Bit: 30, Pol: StuckAt1}, rng)
	if err != nil {
		t.Fatal(err)
	}
	if got := m.NumFaultyPEs(); got != 64 {
		t.Errorf("25%% of 256 = %d PEs, want 64", got)
	}
}

func TestCloneIndependence(t *testing.T) {
	m := NewMap(4, 4)
	_ = m.Add(StuckAtFault{Row: 1, Col: 1, Bit: 2, Pol: StuckAt1})
	c := m.Clone()
	_ = c.Add(StuckAtFault{Row: 2, Col: 2, Bit: 3, Pol: StuckAt0})
	if len(m.Faults) != 1 {
		t.Error("Clone must not share fault slice")
	}
}

func TestGeneratePropertyDistinctPEs(t *testing.T) {
	err := quick.Check(func(seed int64, nRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(nRaw) % 65
		m, err := Generate(8, 8, GenSpec{NumFaulty: n, BitMode: RandomBit, PolMode: RandomPol}, rng)
		if err != nil {
			return false
		}
		return m.NumFaultyPEs() == n && len(m.Faults) == n
	}, &quick.Config{MaxCount: 50})
	if err != nil {
		t.Error(err)
	}
}
