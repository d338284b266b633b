// Package fixed implements the signed fixed-point arithmetic used by the
// processing elements (PEs) of a systolic-array SNN accelerator.
//
// The paper's PE datapath (Fig. 3a) is a 32-bit fixed-point adder–subtractor
// feeding an accumulator register. Stuck-at faults are injected on single
// output bits of that register, so this package exposes both the arithmetic
// (quantize, add, saturate) and the bit-level view (ForceBit) of a word.
//
// Words are two's-complement int32 in a configurable Q-format: IntBits
// integer bits (including sign) and FracBits fractional bits, with
// IntBits+FracBits == 32. The default format, Q16.16, comfortably holds the
// partial sums of a 256-row systolic column of SNN weights (|w| ≲ 4).
package fixed

import (
	"fmt"
	"math"
)

// Word is a single two's-complement fixed-point value as stored in a PE
// accumulator. Its numeric meaning depends on the Format that produced it.
type Word = int32

// WordBits is the width of a PE accumulator word in bits.
const WordBits = 32

// Format describes a Q-format fixed-point encoding of a 32-bit word.
type Format struct {
	// FracBits is the number of fractional bits (the binary point position).
	// Valid range is 0..31; the remaining 32-FracBits bits are integer bits
	// including the sign bit.
	FracBits uint
}

// Q16x16 is the default PE accumulator format: 16 integer bits (incl. sign)
// and 16 fractional bits, range [-32768, 32768) with resolution 2^-16.
var Q16x16 = Format{FracBits: 16}

// Q8x24 trades range for precision: range [-128, 128), resolution 2^-24.
var Q8x24 = Format{FracBits: 24}

// Q24x8 trades precision for range: range [-2^23, 2^23), resolution 2^-8.
var Q24x8 = Format{FracBits: 8}

// Scale returns the value of one least-significant bit, 2^-FracBits.
func (f Format) Scale() float64 { return math.Ldexp(1, -int(f.FracBits)) }

// Valid reports whether the format is usable (FracBits in 0..31).
func (f Format) Valid() bool { return f.FracBits < WordBits }

// String implements fmt.Stringer, e.g. "Q16.16".
func (f Format) String() string {
	return fmt.Sprintf("Q%d.%d", WordBits-int(f.FracBits), f.FracBits)
}

// Quantize converts a float to the nearest representable fixed-point word,
// saturating at the format's range limits. NaN quantizes to zero, matching
// the behaviour of a hardware datapath that never produces NaNs.
//
// Scaling multiplies by the exact power of two 2^FracBits, which rounds
// nothing: the product equals math.Ldexp(x, FracBits) for every input,
// overflow to ±Inf included, at a fraction of the cost.
func (f Format) Quantize(x float64) Word {
	if math.IsNaN(x) {
		return 0
	}
	scaled := math.Round(x * float64(uint64(1)<<f.FracBits))
	if scaled >= float64(math.MaxInt32) {
		return math.MaxInt32
	}
	if scaled <= float64(math.MinInt32) {
		return math.MinInt32
	}
	return Word(scaled)
}

// Dequantize converts a fixed-point word back to a float.
func (f Format) Dequantize(w Word) float64 {
	return math.Ldexp(float64(w), -int(f.FracBits))
}

// QuantizeSlice quantizes a float32 slice into a freshly allocated word slice.
func (f Format) QuantizeSlice(xs []float32) []Word {
	ws := make([]Word, len(xs))
	for i, x := range xs {
		ws[i] = f.Quantize(float64(x))
	}
	return ws
}

// DequantizeSlice converts words back into a freshly allocated float32 slice.
func (f Format) DequantizeSlice(ws []Word) []float32 {
	xs := make([]float32, len(ws))
	for i, w := range ws {
		xs[i] = float32(f.Dequantize(w))
	}
	return xs
}

// AddSat returns a+b with two's-complement saturation, mirroring a hardware
// saturating adder. Overflow clamps to MaxInt32/MinInt32.
func AddSat(a, b Word) Word {
	return Word(min(max(int64(a)+int64(b), math.MinInt32), math.MaxInt32))
}

// AddWrap returns a+b with two's-complement wraparound, the behaviour of a
// plain binary adder with no overflow detection.
func AddWrap(a, b Word) Word {
	return Word(uint32(a) + uint32(b)) //nolint:gosec // intentional wraparound
}

// ForceBit returns w with bit position bit (0 = LSB, 31 = MSB/sign) forced
// to the given stuck value. This is the elementary stuck-at fault transform
// applied to an accumulator output register.
func ForceBit(w Word, bit uint, stuckHigh bool) Word {
	if bit >= WordBits {
		return w
	}
	mask := uint32(1) << bit
	u := uint32(w)
	if stuckHigh {
		u |= mask
	} else {
		u &^= mask
	}
	return Word(u)
}

// ForceBits applies several stuck-at transforms at once: bits set in orMask
// are forced high, bits set in andClearMask are forced low. A PE with
// multiple stuck bits composes into a single mask pair.
func ForceBits(w Word, orMask, andClearMask uint32) Word {
	return Word((uint32(w) | orMask) &^ andClearMask)
}

// Bit reports the value of bit position bit in w.
func Bit(w Word, bit uint) bool {
	if bit >= WordBits {
		return false
	}
	return uint32(w)&(uint32(1)<<bit) != 0
}
