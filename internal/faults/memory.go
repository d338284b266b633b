package faults

import (
	"fmt"
	"math"

	"falvolt/internal/fixed"
)

// MemoryFaults models bit-flips in the weight SRAM at per-bit rates
// (the ReSpawn fault class): stored weight words are corrupted by the
// memory itself, before they ever reach a PE. Whether bit b of word w
// flips is decided by a pure hash of (Seed, w, b) compared against
// BitRate[b], so an instance is fully determined by its fields — the
// same (seed, rates) flips the same bits of the same words on every
// array, engine, shard and worker, in any evaluation order. Flips are
// XOR (a flipped bit inverts), unlike the stuck-at Map's forced bits.
//
// The word index is the flat position in the stored weight matrix
// (w[m][k] has index m*K+k, matching systolic.Matrix.Words), which is
// what the SRAM actually addresses.
type MemoryFaults struct {
	// Seed selects the flip instance.
	Seed int64 `json:"seed"`
	// BitRate[b] is the probability that bit b (0 = LSB) of any stored
	// word is flipped. All entries must lie in [0, 1].
	BitRate [fixed.WordBits]float64 `json:"bitRate"`
}

// Validate checks every per-bit rate is a probability.
func (m *MemoryFaults) Validate() error {
	for b, r := range m.BitRate {
		if math.IsNaN(r) || r < 0 || r > 1 {
			return fmt.Errorf("faults: bit %d flip rate %v outside [0,1]", b, r)
		}
	}
	return nil
}

// Clone returns a copy (MemoryFaults is a value type; this keeps the
// injection API symmetric with Map.Clone so callers can mutate their
// original freely).
func (m *MemoryFaults) Clone() *MemoryFaults {
	c := *m
	return &c
}

// FlipMask returns the XOR mask for stored word index w: bit b is set
// iff the hash draw for (Seed, w, b) lands under BitRate[b].
func (m *MemoryFaults) FlipMask(word int) uint32 {
	var mask uint32
	for b := uint(0); b < fixed.WordBits; b++ {
		r := m.BitRate[b]
		if r <= 0 {
			continue
		}
		if r >= 1 || hashUnit(m.Seed, word, b) < r {
			mask |= uint32(1) << b
		}
	}
	return mask
}

// FlipWord applies the word's flip mask: the value the SRAM returns
// for stored word index w whose intended content is v.
func (m *MemoryFaults) FlipWord(word int, v fixed.Word) fixed.Word {
	mask := m.FlipMask(word)
	if mask == 0 {
		return v
	}
	return fixed.Word(uint32(v) ^ mask)
}

// String summarises the instance.
func (m *MemoryFaults) String() string {
	var minR, maxR float64 = 1, 0
	for _, r := range m.BitRate {
		minR = math.Min(minR, r)
		maxR = math.Max(maxR, r)
	}
	return fmt.Sprintf("MemoryFaults{seed=%d, bit rates %.2g..%.2g}", m.Seed, minR, maxR)
}

// hashUnit maps (seed, word, bit) to a uniform draw in [0, 1) with a
// splitmix64-style finalizer. Counter-based rather than sequential RNG
// on purpose: every (word, bit) cell has its own independent draw, so
// the flip decision never depends on which other words were examined
// or in what order.
func hashUnit(seed int64, word int, bit uint) float64 {
	x := uint64(seed)
	x ^= uint64(word)*0x9E3779B97F4A7C15 + 0x2545F4914F6CDD1D
	x ^= uint64(bit) * 0xBF58476D1CE4E5B9
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return float64(x>>11) / (1 << 53)
}

// BitProfile shapes a scalar fault rate into per-bit SRAM flip rates.
type BitProfile uint8

const (
	// ProfileDecay is the ReSpawn-style approximate-SRAM profile: the
	// LSB flips at the full rate and each higher bit is progressively
	// better retained (rate × 2^(-bit/4), ≈210× safer at the MSB).
	ProfileDecay BitProfile = iota
	// ProfileUniform flips every bit position at the same rate.
	ProfileUniform
	// ProfileMSB concentrates all flips on the high-order bits
	// [24, 32) — the worst-case regime, mirroring faults.MSBBits.
	ProfileMSB
)

// String implements fmt.Stringer.
func (p BitProfile) String() string {
	switch p {
	case ProfileUniform:
		return "uniform"
	case ProfileMSB:
		return "msb"
	}
	return "decay"
}

// ParseBitProfile maps a profile name ("" = "decay") to its value.
func ParseBitProfile(s string) (BitProfile, error) {
	switch s {
	case "", "decay":
		return ProfileDecay, nil
	case "uniform":
		return ProfileUniform, nil
	case "msb":
		return ProfileMSB, nil
	}
	return 0, fmt.Errorf("faults: unknown bit profile %q (want decay, uniform or msb)", s)
}

// BitRates expands a scalar rate into the profile's per-bit rates.
func BitRates(p BitProfile, rate float64) ([fixed.WordBits]float64, error) {
	var rates [fixed.WordBits]float64
	if math.IsNaN(rate) || rate < 0 || rate > 1 {
		return rates, fmt.Errorf("faults: rate %v outside [0,1]", rate)
	}
	switch p {
	case ProfileUniform:
		for b := range rates {
			rates[b] = rate
		}
	case ProfileMSB:
		for b := 24; b < fixed.WordBits; b++ {
			rates[b] = rate
		}
	case ProfileDecay:
		for b := range rates {
			rates[b] = rate * math.Pow(2, -float64(b)/4)
		}
	default:
		return rates, fmt.Errorf("faults: unknown bit profile %d", p)
	}
	return rates, nil
}
