package faults

import (
	"fmt"
	"math/rand"

	"falvolt/internal/fixed"
)

// TransientStrike is one soft-error event (the SoftSNN fault class): a
// particle strike upsets output bit Bit of PE (Row, Col)'s accumulator
// at inference timestep Start. The upset holds — the bit reads as
// forced to Pol on every accumulation — for Duration timesteps, then
// the PE recovers completely. A permanent fault is the Duration → ∞
// limit of this.
type TransientStrike struct {
	Row, Col int
	Bit      uint
	Pol      Polarity
	// Start is the first affected timestep; Duration the number of
	// consecutive timesteps the upset persists (at least 1).
	Start, Duration int
}

// ActiveAt reports whether the strike corrupts timestep t.
func (s TransientStrike) ActiveAt(t int) bool {
	return t >= s.Start && t < s.Start+s.Duration
}

// String implements fmt.Stringer.
func (s TransientStrike) String() string {
	return fmt.Sprintf("PE(%d,%d) bit%d %s @t%d+%d", s.Row, s.Col, s.Bit, s.Pol, s.Start, s.Duration)
}

// TransientSchedule is the full soft-error scenario of one inference:
// every strike that will occur, against a rows x cols array. It answers
// "which accumulator bits are forced at timestep t" — the question
// systolic.Array.SetTimestep asks once per timestep.
type TransientSchedule struct {
	Rows, Cols int
	Strikes    []TransientStrike
}

// NewTransientSchedule returns an empty schedule for a rows x cols array.
func NewTransientSchedule(rows, cols int) *TransientSchedule {
	return &TransientSchedule{Rows: rows, Cols: cols}
}

// Add appends a strike after validating coordinates, bit and window.
func (s *TransientSchedule) Add(st TransientStrike) error {
	if st.Row < 0 || st.Row >= s.Rows || st.Col < 0 || st.Col >= s.Cols {
		return fmt.Errorf("faults: PE(%d,%d) outside %dx%d array", st.Row, st.Col, s.Rows, s.Cols)
	}
	if st.Bit >= fixed.WordBits {
		return fmt.Errorf("faults: bit %d outside %d-bit word", st.Bit, fixed.WordBits)
	}
	if st.Start < 0 || st.Duration < 1 {
		return fmt.Errorf("faults: strike window t%d+%d invalid (start >= 0, duration >= 1)", st.Start, st.Duration)
	}
	s.Strikes = append(s.Strikes, st)
	return nil
}

// Validate re-checks every strike (for schedules built by hand or
// decoded from JSON rather than through Add).
func (s *TransientSchedule) Validate() error {
	if s.Rows <= 0 || s.Cols <= 0 {
		return fmt.Errorf("faults: invalid schedule grid %dx%d", s.Rows, s.Cols)
	}
	probe := &TransientSchedule{Rows: s.Rows, Cols: s.Cols}
	for _, st := range s.Strikes {
		if err := probe.Add(st); err != nil {
			return err
		}
	}
	return nil
}

// Horizon returns the first timestep at which every strike has decayed
// (0 for an empty schedule): from Horizon() on, the array is clean.
func (s *TransientSchedule) Horizon() int {
	h := 0
	for _, st := range s.Strikes {
		if end := st.Start + st.Duration; end > h {
			h = end
		}
	}
	return h
}

// ActiveMasks fills per-PE OR/AND-clear force masks (row-major,
// row*Cols+col, like Map.Masks) with the strikes active at timestep t.
// The slices must each hold Rows*Cols entries; they are zeroed first.
func (s *TransientSchedule) ActiveMasks(t int, orMask, clearMask []uint32) {
	clear(orMask)
	clear(clearMask)
	for _, st := range s.Strikes {
		if !st.ActiveAt(t) {
			continue
		}
		idx := st.Row*s.Cols + st.Col
		bit := uint32(1) << st.Bit
		if st.Pol == StuckAt1 {
			orMask[idx] |= bit
		} else {
			clearMask[idx] |= bit
		}
	}
}

// Clone returns a deep copy of the schedule.
func (s *TransientSchedule) Clone() *TransientSchedule {
	c := NewTransientSchedule(s.Rows, s.Cols)
	c.Strikes = append([]TransientStrike(nil), s.Strikes...)
	return c
}

// String summarises the schedule.
func (s *TransientSchedule) String() string {
	return fmt.Sprintf("TransientSchedule{%dx%d, %d strikes, horizon t%d}",
		s.Rows, s.Cols, len(s.Strikes), s.Horizon())
}

// TransientSpec describes a randomly generated soft-error burst,
// mirroring GenSpec's knobs plus the time dimension.
type TransientSpec struct {
	// Strikes is the number of distinct PEs struck.
	Strikes int
	// Bit / BitMode / Pol / PolMode choose each strike's upset bit and
	// polarity exactly as in GenSpec.
	Bit     uint
	BitMode BitMode
	Pol     Polarity
	PolMode PolMode
	// Start is the timestep the burst lands on.
	Start int
	// MaxDuration bounds the per-strike decay: each strike holds for
	// 1 + rng.Intn(MaxDuration) timesteps (0 or 1 = every strike decays
	// after a single timestep).
	MaxDuration int
}

// GenerateTransient draws a random schedule for a rows x cols array
// according to spec, using rng for reproducibility. Distinct PEs are
// struck (sampled without replacement, like Generate); it errors if
// Strikes exceeds the array size or the window is invalid.
func GenerateTransient(rows, cols int, spec TransientSpec, rng *rand.Rand) (*TransientSchedule, error) {
	total := rows * cols
	if spec.Strikes < 0 || spec.Strikes > total {
		return nil, fmt.Errorf("faults: cannot strike %d PEs in %dx%d array", spec.Strikes, rows, cols)
	}
	if spec.Start < 0 {
		return nil, fmt.Errorf("faults: strike timestep %d negative", spec.Start)
	}
	if spec.MaxDuration < 0 {
		return nil, fmt.Errorf("faults: max duration %d negative", spec.MaxDuration)
	}
	maxDur := spec.MaxDuration
	if maxDur < 1 {
		maxDur = 1
	}
	s := NewTransientSchedule(rows, cols)
	perm := rng.Perm(total)[:spec.Strikes]
	for _, idx := range perm {
		st := TransientStrike{Row: idx / cols, Col: idx % cols, Start: spec.Start}
		switch spec.BitMode {
		case RandomBit:
			st.Bit = uint(rng.Intn(fixed.WordBits))
		case MSBBits:
			st.Bit = uint(24 + rng.Intn(8))
		default:
			st.Bit = spec.Bit
		}
		switch spec.PolMode {
		case RandomPol:
			if rng.Intn(2) == 1 {
				st.Pol = StuckAt1
			} else {
				st.Pol = StuckAt0
			}
		default:
			st.Pol = spec.Pol
		}
		st.Duration = 1 + rng.Intn(maxDur)
		if err := s.Add(st); err != nil {
			return nil, err
		}
	}
	return s, nil
}
