package faults

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// activeCount returns how many strikes of s corrupt timestep t.
func activeCount(s *TransientSchedule, t int) int {
	n := 0
	for _, st := range s.Strikes {
		if st.ActiveAt(t) {
			n++
		}
	}
	return n
}

func TestTransientStrikeActiveWindow(t *testing.T) {
	s := TransientStrike{Row: 1, Col: 1, Bit: 30, Pol: StuckAt1, Start: 3, Duration: 2}
	for tt, want := range map[int]bool{0: false, 2: false, 3: true, 4: true, 5: false, 100: false} {
		if got := s.ActiveAt(tt); got != want {
			t.Errorf("ActiveAt(%d) = %v, want %v", tt, got, want)
		}
	}
}

func TestTransientScheduleAddValidation(t *testing.T) {
	s := NewTransientSchedule(4, 4)
	bad := []TransientStrike{
		{Row: 4, Col: 0, Duration: 1},                     // row out of range
		{Row: 0, Col: -1, Duration: 1},                    // negative col
		{Row: 0, Col: 0, Bit: 32, Duration: 1},            // bit outside word
		{Row: 0, Col: 0, Start: -1, Duration: 1},          // negative start
		{Row: 0, Col: 0, Duration: 0},                     // zero duration
		{Row: 3, Col: 3, Bit: 31, Start: 5, Duration: -2}, // negative duration
	}
	for _, st := range bad {
		if err := s.Add(st); err == nil {
			t.Errorf("Add(%+v) should error", st)
		}
	}
	if err := s.Add(TransientStrike{Row: 3, Col: 3, Bit: 31, Pol: StuckAt0, Start: 0, Duration: 1}); err != nil {
		t.Errorf("valid strike rejected: %v", err)
	}
	// Validate must catch the same defects on hand-built schedules.
	hand := &TransientSchedule{Rows: 4, Cols: 4, Strikes: []TransientStrike{{Row: 0, Col: 0, Duration: 0}}}
	if err := hand.Validate(); err == nil {
		t.Error("Validate accepted a zero-duration strike")
	}
	if err := (&TransientSchedule{Rows: 0, Cols: 4}).Validate(); err == nil {
		t.Error("Validate accepted an empty grid")
	}
}

func TestTransientScheduleCountsAndHorizon(t *testing.T) {
	s := NewTransientSchedule(8, 8)
	must := func(st TransientStrike) {
		t.Helper()
		if err := s.Add(st); err != nil {
			t.Fatal(err)
		}
	}
	must(TransientStrike{Row: 0, Col: 0, Bit: 31, Pol: StuckAt1, Start: 1, Duration: 2}) // active t1,t2
	must(TransientStrike{Row: 1, Col: 2, Bit: 30, Pol: StuckAt0, Start: 2, Duration: 1}) // active t2
	must(TransientStrike{Row: 7, Col: 7, Bit: 24, Pol: StuckAt1, Start: 5, Duration: 3}) // active t5..t7
	for tt, want := range map[int]int{0: 0, 1: 1, 2: 2, 3: 0, 5: 1, 7: 1, 8: 0} {
		if got := activeCount(s, tt); got != want {
			t.Errorf("ActiveCount(%d) = %d, want %d", tt, got, want)
		}
	}
	if got := s.Horizon(); got != 8 {
		t.Errorf("Horizon = %d, want 8", got)
	}
	if got := NewTransientSchedule(4, 4).Horizon(); got != 0 {
		t.Errorf("empty schedule Horizon = %d, want 0", got)
	}
}

func TestActiveMasksComposeAndZero(t *testing.T) {
	s := NewTransientSchedule(2, 2)
	must := func(st TransientStrike) {
		t.Helper()
		if err := s.Add(st); err != nil {
			t.Fatal(err)
		}
	}
	// Two strikes on the same PE active at t=0: bits compose; one sa0
	// strike elsewhere.
	must(TransientStrike{Row: 0, Col: 1, Bit: 2, Pol: StuckAt1, Start: 0, Duration: 1})
	must(TransientStrike{Row: 0, Col: 1, Bit: 5, Pol: StuckAt1, Start: 0, Duration: 2})
	must(TransientStrike{Row: 1, Col: 0, Bit: 4, Pol: StuckAt0, Start: 0, Duration: 1})
	or := make([]uint32, 4)
	cl := make([]uint32, 4)
	s.ActiveMasks(0, or, cl)
	if or[1] != 1<<2|1<<5 {
		t.Errorf("or[0,1] = %#x, want bits 2+5", or[1])
	}
	if cl[2] != 1<<4 {
		t.Errorf("clear[1,0] = %#x, want bit 4", cl[2])
	}
	// At t=1 only the duration-2 strike remains, and stale entries from
	// the previous fill must be zeroed.
	s.ActiveMasks(1, or, cl)
	if or[1] != 1<<5 {
		t.Errorf("t=1 or[0,1] = %#x, want bit 5 only", or[1])
	}
	if cl[2] != 0 {
		t.Errorf("t=1 clear[1,0] = %#x, want 0 (stale mask not cleared)", cl[2])
	}
}

func TestGenerateTransientDeterministicDistinct(t *testing.T) {
	spec := TransientSpec{Strikes: 20, BitMode: MSBBits, Pol: StuckAt1, PolMode: RandomPol, Start: 3, MaxDuration: 4}
	a, err := GenerateTransient(8, 8, spec, rand.New(rand.NewSource(6)))
	if err != nil {
		t.Fatal(err)
	}
	b, err := GenerateTransient(8, 8, spec, rand.New(rand.NewSource(6)))
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Strikes) != 20 || len(b.Strikes) != 20 {
		t.Fatalf("strike counts %d/%d, want 20", len(a.Strikes), len(b.Strikes))
	}
	seen := map[[2]int]bool{}
	for i, st := range a.Strikes {
		if st != b.Strikes[i] {
			t.Errorf("strike %d differs under same seed: %v vs %v", i, st, b.Strikes[i])
		}
		pe := [2]int{st.Row, st.Col}
		if seen[pe] {
			t.Errorf("PE (%d,%d) struck twice", st.Row, st.Col)
		}
		seen[pe] = true
		if st.Start != 3 {
			t.Errorf("strike %d start %d, want 3", i, st.Start)
		}
		if st.Duration < 1 || st.Duration > 4 {
			t.Errorf("strike %d duration %d outside [1,4]", i, st.Duration)
		}
		if st.Bit < 24 || st.Bit > 31 {
			t.Errorf("strike %d bit %d outside MSB range", i, st.Bit)
		}
	}
}

func TestGenerateTransientErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	if _, err := GenerateTransient(2, 2, TransientSpec{Strikes: 5}, rng); err == nil {
		t.Error("more strikes than PEs should error")
	}
	if _, err := GenerateTransient(2, 2, TransientSpec{Strikes: -1}, rng); err == nil {
		t.Error("negative strike count should error")
	}
	if _, err := GenerateTransient(2, 2, TransientSpec{Strikes: 1, Start: -1}, rng); err == nil {
		t.Error("negative start should error")
	}
	if _, err := GenerateTransient(2, 2, TransientSpec{Strikes: 1, MaxDuration: -1}, rng); err == nil {
		t.Error("negative max duration should error")
	}
}

// TestGenerateTransientPropertyDecays: every generated schedule has a
// finite horizon bounded by Start+MaxDuration, and no strike is active
// at or past it — the "soft" in soft error.
func TestGenerateTransientPropertyDecays(t *testing.T) {
	err := quick.Check(func(seed int64, nRaw, durRaw uint8) bool {
		n := int(nRaw) % 65
		maxDur := 1 + int(durRaw)%5
		s, err := GenerateTransient(8, 8, TransientSpec{
			Strikes: n, BitMode: RandomBit, PolMode: RandomPol, Start: 2, MaxDuration: maxDur,
		}, rand.New(rand.NewSource(seed)))
		if err != nil {
			return false
		}
		if n > 0 && (s.Horizon() <= 2 || s.Horizon() > 2+maxDur) {
			return false
		}
		return activeCount(s, s.Horizon()) == 0 && (n == 0 || activeCount(s, 2) == n)
	}, &quick.Config{MaxCount: 60})
	if err != nil {
		t.Error(err)
	}
}

func TestTransientCloneIndependence(t *testing.T) {
	s := NewTransientSchedule(4, 4)
	if err := s.Add(TransientStrike{Row: 1, Col: 1, Bit: 3, Pol: StuckAt1, Start: 0, Duration: 1}); err != nil {
		t.Fatal(err)
	}
	c := s.Clone()
	if err := c.Add(TransientStrike{Row: 2, Col: 2, Bit: 4, Pol: StuckAt0, Start: 0, Duration: 1}); err != nil {
		t.Fatal(err)
	}
	if len(s.Strikes) != 1 {
		t.Error("Clone must not share the strike slice")
	}
}
