package faults

import (
	"fmt"
	"math/rand"

	"falvolt/internal/fixed"
)

// Polarity is the stuck value of a faulty bit.
type Polarity uint8

const (
	// StuckAt0 forces the bit low on every cycle.
	StuckAt0 Polarity = iota
	// StuckAt1 forces the bit high on every cycle.
	StuckAt1
)

// String implements fmt.Stringer ("sa0"/"sa1" per the paper's figures).
func (p Polarity) String() string {
	if p == StuckAt1 {
		return "sa1"
	}
	return "sa0"
}

// StuckAtFault is a single permanent fault: PE at (Row, Col) has
// accumulator output bit Bit stuck at Pol. Bit 0 is the LSB; bit 31 the
// MSB/sign bit of the 32-bit fixed-point word.
type StuckAtFault struct {
	Row, Col int
	Bit      uint
	Pol      Polarity
}

// Apply forces the fault's bit on a word, the elementary corruption
// applied at the accumulator output on every accumulation step.
func (f StuckAtFault) Apply(w fixed.Word) fixed.Word {
	return fixed.ForceBit(w, f.Bit, f.Pol == StuckAt1)
}

// String implements fmt.Stringer.
func (f StuckAtFault) String() string {
	return fmt.Sprintf("PE(%d,%d) bit%d %s", f.Row, f.Col, f.Bit, f.Pol)
}

// Map is a fault map for an NxN systolic array: the set of faulty PEs with
// their stuck bits. Multiple faults may target the same PE (multiple stuck
// bits); their bit-forcing composes.
type Map struct {
	Rows, Cols int
	Faults     []StuckAtFault
}

// NewMap returns an empty fault map for a rows x cols array.
func NewMap(rows, cols int) *Map {
	return &Map{Rows: rows, Cols: cols}
}

// Add appends a fault after validating its coordinates and bit.
func (m *Map) Add(f StuckAtFault) error {
	if f.Row < 0 || f.Row >= m.Rows || f.Col < 0 || f.Col >= m.Cols {
		return fmt.Errorf("faults: PE(%d,%d) outside %dx%d array", f.Row, f.Col, m.Rows, m.Cols)
	}
	if f.Bit >= fixed.WordBits {
		return fmt.Errorf("faults: bit %d outside %d-bit word", f.Bit, fixed.WordBits)
	}
	m.Faults = append(m.Faults, f)
	return nil
}

// NumFaultyPEs returns the number of distinct faulty PEs (several stuck
// bits on one PE count once).
func (m *Map) NumFaultyPEs() int {
	seen := make(map[[2]int]struct{}, len(m.Faults))
	for _, f := range m.Faults {
		seen[[2]int{f.Row, f.Col}] = struct{}{}
	}
	return len(seen)
}

// FaultRate returns the fraction of PEs that are faulty.
func (m *Map) FaultRate() float64 {
	total := m.Rows * m.Cols
	if total == 0 {
		return 0
	}
	return float64(m.NumFaultyPEs()) / float64(total)
}

// Masks compacts the map into per-PE OR/AND-clear mask pairs for fast
// application inside the systolic inner loop. The returned slices are
// indexed row*Cols+col; orMask bits are forced high, clearMask bits low.
func (m *Map) Masks() (orMask, clearMask []uint32) {
	n := m.Rows * m.Cols
	orMask = make([]uint32, n)
	clearMask = make([]uint32, n)
	for _, f := range m.Faults {
		idx := f.Row*m.Cols + f.Col
		bit := uint32(1) << f.Bit
		if f.Pol == StuckAt1 {
			orMask[idx] |= bit
		} else {
			clearMask[idx] |= bit
		}
	}
	return orMask, clearMask
}

// Clone returns a deep copy of the map.
func (m *Map) Clone() *Map {
	c := NewMap(m.Rows, m.Cols)
	c.Faults = append([]StuckAtFault(nil), m.Faults...)
	return c
}

// String summarises the map.
func (m *Map) String() string {
	return fmt.Sprintf("FaultMap{%dx%d, %d faulty PEs (%.3f%%), %d stuck bits}",
		m.Rows, m.Cols, m.NumFaultyPEs(), 100*m.FaultRate(), len(m.Faults))
}

// GenSpec describes a randomly generated fault map, mirroring the paper's
// experimental knobs: how many PEs are faulty, which bit positions are
// targeted, and the stuck polarity.
type GenSpec struct {
	// NumFaulty is the number of distinct faulty PEs to place.
	NumFaulty int
	// Bit is the stuck bit position used when BitMode is FixedBit.
	Bit uint
	// BitMode selects how the stuck bit of each faulty PE is chosen.
	BitMode BitMode
	// Pol is the stuck polarity used when PolMode is FixedPol.
	Pol Polarity
	// PolMode selects how polarity is chosen.
	PolMode PolMode
}

// BitMode selects the stuck-bit position policy for generated faults.
type BitMode uint8

const (
	// FixedBit uses GenSpec.Bit for every fault.
	FixedBit BitMode = iota
	// RandomBit draws the bit uniformly from [0, 32).
	RandomBit
	// MSBBits draws from the high-order bits [24, 32), the paper's
	// worst-case regime for Fig. 5b/5c.
	MSBBits
)

// PolMode selects the polarity policy for generated faults.
type PolMode uint8

const (
	// FixedPol uses GenSpec.Pol for every fault.
	FixedPol PolMode = iota
	// RandomPol draws sa0/sa1 with equal probability.
	RandomPol
)

// Generate draws a random fault map for a rows x cols array according to
// spec, using rng for reproducibility. Distinct PEs are sampled without
// replacement; it errors if NumFaulty exceeds the array size.
func Generate(rows, cols int, spec GenSpec, rng *rand.Rand) (*Map, error) {
	total := rows * cols
	if spec.NumFaulty < 0 || spec.NumFaulty > total {
		return nil, fmt.Errorf("faults: cannot place %d faults in %dx%d array", spec.NumFaulty, rows, cols)
	}
	m := NewMap(rows, cols)
	// Sample distinct PE indices without replacement (partial Fisher-Yates
	// over a lazily-materialized permutation; fine for the sizes used here).
	perm := rng.Perm(total)[:spec.NumFaulty]
	for _, idx := range perm {
		f := StuckAtFault{Row: idx / cols, Col: idx % cols}
		switch spec.BitMode {
		case RandomBit:
			f.Bit = uint(rng.Intn(fixed.WordBits))
		case MSBBits:
			f.Bit = uint(24 + rng.Intn(8))
		default:
			f.Bit = spec.Bit
		}
		switch spec.PolMode {
		case RandomPol:
			if rng.Intn(2) == 1 {
				f.Pol = StuckAt1
			} else {
				f.Pol = StuckAt0
			}
		default:
			f.Pol = spec.Pol
		}
		if err := m.Add(f); err != nil {
			return nil, err
		}
	}
	return m, nil
}

// GenerateRate places round(rate*rows*cols) faulty PEs; convenience wrapper
// for the paper's "% of faulty PEs" axis.
func GenerateRate(rows, cols int, rate float64, spec GenSpec, rng *rand.Rand) (*Map, error) {
	if rate < 0 || rate > 1 {
		return nil, fmt.Errorf("faults: rate %v outside [0,1]", rate)
	}
	spec.NumFaulty = int(rate*float64(rows*cols) + 0.5)
	return Generate(rows, cols, spec, rng)
}
