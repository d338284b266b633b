package fixed

import (
	"math"
	"testing"
	"testing/quick"
)

func TestFormatString(t *testing.T) {
	if got := Q16x16.String(); got != "Q16.16" {
		t.Errorf("Q16x16.String() = %q, want Q16.16", got)
	}
	if got := Q8x24.String(); got != "Q8.24" {
		t.Errorf("Q8x24.String() = %q, want Q8.24", got)
	}
}

func TestQuantizeRoundTrip(t *testing.T) {
	f := Q16x16
	cases := []float64{0, 1, -1, 0.5, -0.5, 3.1415926, -2.718, 100.25, -100.25}
	for _, x := range cases {
		w := f.Quantize(x)
		back := f.Dequantize(w)
		if math.Abs(back-x) > f.Scale() {
			t.Errorf("round trip %v -> %v -> %v exceeds one LSB", x, w, back)
		}
	}
}

func TestQuantizeSaturation(t *testing.T) {
	f := Q16x16
	if w := f.Quantize(1e9); w != math.MaxInt32 {
		t.Errorf("Quantize(+huge) = %d, want MaxInt32", w)
	}
	if w := f.Quantize(-1e9); w != math.MinInt32 {
		t.Errorf("Quantize(-huge) = %d, want MinInt32", w)
	}
	if w := f.Quantize(math.NaN()); w != 0 {
		t.Errorf("Quantize(NaN) = %d, want 0", w)
	}
}

func TestQuantizeExactValues(t *testing.T) {
	f := Q16x16
	if w := f.Quantize(1.0); w != 1<<16 {
		t.Errorf("Quantize(1.0) = %d, want %d", w, 1<<16)
	}
	if w := f.Quantize(-1.0); w != -(1 << 16) {
		t.Errorf("Quantize(-1.0) = %d, want %d", w, -(1 << 16))
	}
	if w := f.Quantize(0.5); w != 1<<15 {
		t.Errorf("Quantize(0.5) = %d, want %d", w, 1<<15)
	}
}

// TestQuantizeEdgeCases pins Quantize on the inputs where scaling by
// 2^FracBits, rounding and clamping could disagree between
// implementations: signed zeros, exact half-LSB ties (rounded away from
// zero), NaN, infinities, subnormals, MaxFloat64 and the words on
// either side of the int32 limits.
func TestQuantizeEdgeCases(t *testing.T) {
	const (
		maxW = math.MaxInt32
		minW = math.MinInt32
	)
	nan, inf := math.NaN(), math.Inf(1)
	tiny := math.SmallestNonzeroFloat64
	bigSub := math.Float64frombits(0x000fffffffffffff) // largest subnormal
	for _, f := range []Format{Q16x16, Q8x24, Q24x8} {
		lsb := math.Ldexp(1, -int(f.FracBits))
		cases := []struct {
			name string
			x    float64
			want Word
		}{
			{"+0", 0, 0},
			{"-0", math.Copysign(0, -1), 0},
			{"+half", 0.5 * lsb, 1},
			{"-half", -0.5 * lsb, -1},
			{"below half", math.Nextafter(0.5, 0) * lsb, 0},
			{"+1.5", 1.5 * lsb, 2},
			{"+2.5", 2.5 * lsb, 3},
			{"-2.5", -2.5 * lsb, -3},
			{"NaN", nan, 0},
			{"+Inf", inf, maxW},
			{"-Inf", -inf, minW},
			{"+subnormal", tiny, 0},
			{"-subnormal", -tiny, 0},
			{"largest subnormal", bigSub, 0},
			{"+MaxFloat64", math.MaxFloat64, maxW},
			{"-MaxFloat64", -math.MaxFloat64, minW},
			{"MaxInt32-1", (maxW - 1) * lsb, maxW - 1},
			{"MaxInt32-half", (maxW - 0.5) * lsb, maxW},
			{"MaxInt32", maxW * lsb, maxW},
			{"MaxInt32+half", (maxW + 0.5) * lsb, maxW},
			{"MaxInt32+1", (maxW + 1) * lsb, maxW},
			{"MinInt32+1", (minW + 1) * lsb, minW + 1},
			{"MinInt32+half", (minW + 0.5) * lsb, minW},
			{"MinInt32", minW * lsb, minW},
			{"MinInt32-1", (minW - 1) * lsb, minW},
		}
		for _, c := range cases {
			if got := f.Quantize(c.x); got != c.want {
				t.Errorf("%v Quantize(%s = %g) = %d, want %d", f, c.name, c.x, got, c.want)
			}
		}
	}
}

func TestAddSat(t *testing.T) {
	if got := AddSat(math.MaxInt32, 1); got != math.MaxInt32 {
		t.Errorf("AddSat overflow = %d, want saturation", got)
	}
	if got := AddSat(math.MinInt32, -1); got != math.MinInt32 {
		t.Errorf("AddSat underflow = %d, want saturation", got)
	}
	if got := AddSat(2, 3); got != 5 {
		t.Errorf("AddSat(2,3) = %d, want 5", got)
	}
}

func TestAddWrap(t *testing.T) {
	if got := AddWrap(math.MaxInt32, 1); got != math.MinInt32 {
		t.Errorf("AddWrap(MaxInt32,1) = %d, want MinInt32 (wraparound)", got)
	}
	if got := AddWrap(10, 20); got != 30 {
		t.Errorf("AddWrap(10,20) = %d, want 30", got)
	}
}

func TestForceBit(t *testing.T) {
	var w Word = 0
	w = ForceBit(w, 0, true)
	if w != 1 {
		t.Errorf("ForceBit(0, bit0, high) = %d, want 1", w)
	}
	w = ForceBit(w, 0, false)
	if w != 0 {
		t.Errorf("ForceBit(1, bit0, low) = %d, want 0", w)
	}
	// Forcing the sign bit high makes the word negative.
	w = ForceBit(0, 31, true)
	if w >= 0 {
		t.Errorf("ForceBit sign high should be negative, got %d", w)
	}
	// Out of range bit is a no-op.
	if got := ForceBit(42, 99, true); got != 42 {
		t.Errorf("ForceBit out-of-range changed value: %d", got)
	}
}

func TestForceBitIdempotent(t *testing.T) {
	err := quick.Check(func(w Word, bitRaw uint8, high bool) bool {
		bit := uint(bitRaw) % WordBits
		once := ForceBit(w, bit, high)
		twice := ForceBit(once, bit, high)
		return once == twice
	}, nil)
	if err != nil {
		t.Error(err)
	}
}

func TestForceBitOnlyTouchesOneBit(t *testing.T) {
	err := quick.Check(func(w Word, bitRaw uint8, high bool) bool {
		bit := uint(bitRaw) % WordBits
		forced := ForceBit(w, bit, high)
		diff := uint32(forced) ^ uint32(w)
		// Either no change or exactly the targeted bit flipped.
		return diff == 0 || diff == uint32(1)<<bit
	}, nil)
	if err != nil {
		t.Error(err)
	}
}

func TestForceBits(t *testing.T) {
	// Force bit 3 high and bit 1 low on 0b0010 -> 0b1000.
	got := ForceBits(0b0010, 1<<3, 1<<1)
	if got != 0b1000 {
		t.Errorf("ForceBits = %b, want 1000", got)
	}
}

func TestBit(t *testing.T) {
	if !Bit(4, 2) {
		t.Error("Bit(4,2) should be set")
	}
	if Bit(4, 1) {
		t.Error("Bit(4,1) should be clear")
	}
	if Bit(4, 99) {
		t.Error("Bit out of range should be false")
	}
	if !Bit(-1, 31) {
		t.Error("Bit(-1,31) sign bit should be set")
	}
}

func TestQuantizeMonotonic(t *testing.T) {
	f := Q16x16
	err := quick.Check(func(a, b float32) bool {
		x, y := float64(a), float64(b)
		if math.IsNaN(x) || math.IsNaN(y) {
			return true
		}
		if x > y {
			x, y = y, x
		}
		return f.Quantize(x) <= f.Quantize(y)
	}, nil)
	if err != nil {
		t.Error(err)
	}
}

func TestAddSatCommutative(t *testing.T) {
	err := quick.Check(func(a, b Word) bool {
		return AddSat(a, b) == AddSat(b, a)
	}, nil)
	if err != nil {
		t.Error(err)
	}
}

func TestDequantizeQuantizeExact(t *testing.T) {
	// Every word should survive dequantize->quantize exactly (fixed-point
	// values are exactly representable as float64).
	f := Q16x16
	err := quick.Check(func(w Word) bool {
		return f.Quantize(f.Dequantize(w)) == w
	}, nil)
	if err != nil {
		t.Error(err)
	}
}

func TestFormatRanges(t *testing.T) {
	if !Q16x16.Valid() || !Q8x24.Valid() || !Q24x8.Valid() {
		t.Error("standard formats must be valid")
	}
	if (Format{FracBits: 32}).Valid() {
		t.Error("FracBits=32 must be invalid")
	}
}
