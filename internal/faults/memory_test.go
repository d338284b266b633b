package faults

import (
	"math"
	"math/bits"
	"math/rand"
	"testing"
	"testing/quick"

	"falvolt/internal/fixed"
)

func uniformRates(rate float64) [fixed.WordBits]float64 {
	var r [fixed.WordBits]float64
	for b := range r {
		r[b] = rate
	}
	return r
}

func TestMemoryFaultsValidate(t *testing.T) {
	m := &MemoryFaults{Seed: 1}
	if err := m.Validate(); err != nil {
		t.Errorf("zero rates rejected: %v", err)
	}
	m.BitRate[5] = 1.5
	if err := m.Validate(); err == nil {
		t.Error("rate > 1 should error")
	}
	m.BitRate[5] = -0.1
	if err := m.Validate(); err == nil {
		t.Error("negative rate should error")
	}
	m.BitRate[5] = math.NaN()
	if err := m.Validate(); err == nil {
		t.Error("NaN rate should error")
	}
}

func TestFlipMaskRateEdges(t *testing.T) {
	zero := &MemoryFaults{Seed: 17}
	ones := &MemoryFaults{Seed: 17, BitRate: uniformRates(1)}
	for w := 0; w < 200; w++ {
		if got := zero.FlipMask(w); got != 0 {
			t.Fatalf("rate 0: word %d mask %#x, want 0", w, got)
		}
		if got := ones.FlipMask(w); got != ^uint32(0) {
			t.Fatalf("rate 1: word %d mask %#x, want all bits", w, got)
		}
	}
}

// TestFlipWordInvolution: flips are XOR, so reading the same word twice
// through the same instance undoes the corruption — and never depends on
// any other word having been read.
func TestFlipWordInvolution(t *testing.T) {
	m := &MemoryFaults{Seed: 5, BitRate: uniformRates(0.3)}
	err := quick.Check(func(word int32, v fixed.Word) bool {
		w := int(word & 0xFFFF)
		once := m.FlipWord(w, v)
		mask := m.FlipMask(w)
		return fixed.Word(uint32(once)^mask) == v
	}, &quick.Config{MaxCount: 200})
	if err != nil {
		t.Error(err)
	}
}

// TestFlipMaskCounterBased: the flip decision for a (word, bit) cell is
// a pure function of (Seed, word, bit) — identical however many other
// cells are queried, in whatever order. This is the property the
// shard-split reproducibility of bitflip campaigns rests on.
func TestFlipMaskCounterBased(t *testing.T) {
	a := &MemoryFaults{Seed: 23, BitRate: uniformRates(0.2)}
	b := &MemoryFaults{Seed: 23, BitRate: uniformRates(0.2)}
	// Query a forward, b backward and twice; masks must agree per word.
	const n = 500
	fwd := make([]uint32, n)
	for w := 0; w < n; w++ {
		fwd[w] = a.FlipMask(w)
	}
	for w := n - 1; w >= 0; w-- {
		if got := b.FlipMask(w); got != fwd[w] {
			t.Fatalf("word %d: reverse-order mask %#x, forward %#x", w, got, fwd[w])
		}
		if got := b.FlipMask(w); got != fwd[w] {
			t.Fatalf("word %d: repeat mask %#x, forward %#x", w, got, fwd[w])
		}
	}
	// Different seeds must realize different instances.
	c := &MemoryFaults{Seed: 24, BitRate: uniformRates(0.2)}
	same := true
	for w := 0; w < n; w++ {
		if c.FlipMask(w) != fwd[w] {
			same = false
			break
		}
	}
	if same {
		t.Error("seeds 23 and 24 realized identical flip instances")
	}
}

// TestCountFlipsTracksRate: realized flip density over many words should
// sit near the configured rate (law of large numbers; the hash is only
// useful if it is roughly uniform).
func TestCountFlipsTracksRate(t *testing.T) {
	const rate, words = 0.1, 4000
	m := &MemoryFaults{Seed: 101, BitRate: uniformRates(rate)}
	flips := 0
	for w := 0; w < words; w++ {
		flips += bits.OnesCount32(m.FlipMask(w))
	}
	got := float64(flips) / float64(words*fixed.WordBits)
	if math.Abs(got-rate) > 0.01 {
		t.Errorf("realized flip density %.4f, configured rate %.4f", got, rate)
	}
}

func TestBitRatesProfiles(t *testing.T) {
	const rate = 0.25
	uni, err := BitRates(ProfileUniform, rate)
	if err != nil {
		t.Fatal(err)
	}
	for b, r := range uni {
		if r != rate {
			t.Fatalf("uniform bit %d rate %v, want %v", b, r, rate)
		}
	}
	msb, err := BitRates(ProfileMSB, rate)
	if err != nil {
		t.Fatal(err)
	}
	for b, r := range msb {
		want := 0.0
		if b >= 24 {
			want = rate
		}
		if r != want {
			t.Fatalf("msb bit %d rate %v, want %v", b, r, want)
		}
	}
	decay, err := BitRates(ProfileDecay, rate)
	if err != nil {
		t.Fatal(err)
	}
	if decay[0] != rate {
		t.Errorf("decay LSB rate %v, want full rate %v", decay[0], rate)
	}
	for b := 1; b < fixed.WordBits; b++ {
		if decay[b] >= decay[b-1] {
			t.Fatalf("decay profile not strictly decreasing at bit %d: %v >= %v", b, decay[b], decay[b-1])
		}
	}
	if _, err := BitRates(ProfileUniform, 1.2); err == nil {
		t.Error("rate > 1 should error")
	}
	if _, err := BitRates(ProfileUniform, math.NaN()); err == nil {
		t.Error("NaN rate should error")
	}
}

func TestParseBitProfile(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want BitProfile
	}{
		{"", ProfileDecay}, {"decay", ProfileDecay},
		{"uniform", ProfileUniform}, {"msb", ProfileMSB},
	} {
		got, err := ParseBitProfile(tc.in)
		if err != nil || got != tc.want {
			t.Errorf("ParseBitProfile(%q) = %v, %v; want %v", tc.in, got, err, tc.want)
		}
		if tc.in != "" && got.String() != tc.in {
			t.Errorf("profile %v String() = %q, want %q", got, got.String(), tc.in)
		}
	}
	if _, err := ParseBitProfile("gaussian"); err == nil {
		t.Error("unknown profile should error")
	}
}

func TestMemoryFaultsCloneIndependence(t *testing.T) {
	m := &MemoryFaults{Seed: 1, BitRate: uniformRates(0.5)}
	c := m.Clone()
	c.Seed = 2
	c.BitRate[0] = 0
	if m.Seed != 1 || m.BitRate[0] != 0.5 {
		t.Error("Clone shares state with the original")
	}
}

// TestHashUnitUniform: coarse uniformity check of the (seed, word, bit)
// hash — decile occupancy over many draws should be flat within a few
// percent, and draws must stay in [0, 1).
func TestHashUnitUniform(t *testing.T) {
	var buckets [10]int
	const n = 20000
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < n; i++ {
		u := hashUnit(rng.Int63(), rng.Intn(1<<20), uint(rng.Intn(32)))
		if u < 0 || u >= 1 {
			t.Fatalf("hashUnit outside [0,1): %v", u)
		}
		buckets[int(u*10)]++
	}
	for d, c := range buckets {
		frac := float64(c) / n
		if math.Abs(frac-0.1) > 0.02 {
			t.Errorf("decile %d occupancy %.3f, want ~0.1", d, frac)
		}
	}
}
