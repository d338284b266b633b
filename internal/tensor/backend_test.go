package tensor

import (
	"math"
	"math/rand"
	"sync/atomic"
	"testing"
)

// testWorkerCounts are the parallel configurations every equivalence test
// sweeps, per the acceptance criteria (1, 2 and 8 workers).
var testWorkerCounts = []int{1, 2, 8}

func randTensor(rng *rand.Rand, shape ...int) *Tensor {
	t := New(shape...)
	for i := range t.Data {
		// Mix sparsity in: the GEMM kernels have zero-skip fast paths.
		if rng.Float64() < 0.3 {
			continue
		}
		t.Data[i] = float32(rng.NormFloat64())
	}
	return t
}

// assertBitIdentical fails unless a and b match bit for bit.
func assertBitIdentical(t *testing.T, ctx string, a, b *Tensor) {
	t.Helper()
	if !a.SameShape(b) {
		t.Fatalf("%s: shape %v vs %v", ctx, a.Shape, b.Shape)
	}
	for i := range a.Data {
		if math.Float32bits(a.Data[i]) != math.Float32bits(b.Data[i]) {
			t.Fatalf("%s: element %d differs: %v (%#08x) vs %v (%#08x)",
				ctx, i, a.Data[i], math.Float32bits(a.Data[i]), b.Data[i], math.Float32bits(b.Data[i]))
		}
	}
}

// gemmShapes deliberately includes odd, prime and degenerate extents.
var gemmShapes = [][3]int{ // m, k, n
	{1, 1, 1},
	{3, 5, 7},
	{17, 3, 9},
	{1, 64, 5},
	{33, 1, 13},
	{64, 33, 65},
	{7, 128, 1},
}

func TestParallelGEMMBitIdenticalToSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, w := range testWorkerCounts {
		par := NewParallel(w)
		for _, s := range gemmShapes {
			m, k, n := s[0], s[1], s[2]
			a := randTensor(rng, m, k)
			b := randTensor(rng, k, n)
			at := randTensor(rng, k, m)
			bt := randTensor(rng, n, k)

			assertBitIdentical(t, "MatMul",
				MatMulUsing(Serial(), a, b), MatMulUsing(par, a, b))
			assertBitIdentical(t, "MatMulTransA",
				MatMulTransAUsing(Serial(), at, b), MatMulTransAUsing(par, at, b))
			assertBitIdentical(t, "MatMulTransB",
				MatMulTransBUsing(Serial(), a, bt), MatMulTransBUsing(par, a, bt))
		}
	}
}

func TestParallelGEMMIntoScratchDst(t *testing.T) {
	// Scratch destinations carry garbage; the kernels must fully
	// overwrite them.
	rng := rand.New(rand.NewSource(2))
	par := NewParallel(4)
	a := randTensor(rng, 9, 11)
	b := randTensor(rng, 11, 6)
	want := MatMulUsing(Serial(), a, b)
	dst := GetScratch(9, 6)
	for i := range dst.Data {
		dst.Data[i] = float32(math.NaN())
	}
	par.MatMul(dst, a, b)
	assertBitIdentical(t, "MatMul into scratch", want, dst)
	ReleaseScratch(dst)
}

// TestParallelIm2ColCol2ImBitIdentical checks the parallel lowering
// (Im2Patches) against the dense serial reference and the parallel Col2Im
// against the serial one.
func TestParallelIm2ColCol2ImBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	convs := []struct{ inC, inH, inW, outC, k, stride, pad, n int }{
		{1, 5, 5, 2, 3, 1, 1, 1},
		{3, 7, 5, 4, 3, 2, 1, 3},
		{2, 9, 9, 5, 5, 2, 2, 4},
		{4, 16, 16, 8, 3, 1, 1, 2},
	}
	for _, w := range testWorkerCounts {
		par := NewParallel(w)
		for _, c := range convs {
			cs, err := NewConvShape(c.inC, c.inH, c.inW, c.outC, c.k, c.k, c.stride, c.pad)
			if err != nil {
				t.Fatal(err)
			}
			x := randTensor(rng, c.n, c.inC, c.inH, c.inW)
			pp := Im2Patches(par, x, cs)
			assertBitIdentical(t, "Im2Patches", Im2Col(x, cs), denseOf(pp))
			pp.Release()

			g := randTensor(rng, c.n*cs.PatchesPerItem, cs.K)
			assertBitIdentical(t, "Col2Im",
				Col2ImUsing(Serial(), g, c.n, cs), Col2ImUsing(par, g, c.n, cs))
		}
	}
}

func TestParallelElementwiseBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for _, n := range []int{1, 257, 100_003} {
		a := randTensor(rng, n)
		b := randTensor(rng, n)
		for _, w := range testWorkerCounts {
			par := NewParallel(w)
			s1, s2 := a.Clone(), a.Clone()
			Serial().AddInPlace(s1, b)
			par.AddInPlace(s2, b)
			assertBitIdentical(t, "AddInPlace", s1, s2)
			Serial().Scale(s1, 0.37)
			par.Scale(s2, 0.37)
			assertBitIdentical(t, "Scale", s1, s2)
		}
	}
}

func TestForCoversRangeDisjointly(t *testing.T) {
	for _, w := range testWorkerCounts {
		par := NewParallel(w)
		for _, n := range []int{0, 1, 7, 1000} {
			hits := make([]int32, n)
			par.For(n, func(lo, hi int) {
				for i := lo; i < hi; i++ {
					atomic.AddInt32(&hits[i], 1)
				}
			})
			for i, h := range hits {
				if h != 1 {
					t.Fatalf("workers=%d n=%d: index %d covered %d times", w, n, i, h)
				}
			}
		}
	}
}

func TestMapCoversAllItemsWithValidSlots(t *testing.T) {
	for _, w := range testWorkerCounts {
		par := NewParallel(w)
		const n = 153
		hits := make([]int32, n)
		var badSlot atomic.Int32
		par.Map(n, func(slot, i int) {
			if slot < 0 || slot >= par.Workers() {
				badSlot.Store(1)
			}
			atomic.AddInt32(&hits[i], 1)
		})
		if badSlot.Load() != 0 {
			t.Fatalf("workers=%d: slot outside [0, %d)", w, par.Workers())
		}
		for i, h := range hits {
			if h != 1 {
				t.Fatalf("workers=%d: item %d ran %d times", w, i, h)
			}
		}
	}
}

func TestNestedParallelCallsDoNotDeadlock(t *testing.T) {
	par := NewParallel(2)
	var count atomic.Int32
	par.Map(8, func(slot, i int) {
		// Nested fan-out from inside a lane must complete even with every
		// worker busy.
		par.For(64, func(lo, hi int) { count.Add(int32(hi - lo)) })
	})
	if got := count.Load(); got != 8*64 {
		t.Fatalf("nested For covered %d iterations, want %d", got, 8*64)
	}
}

func TestBackendSelectionByName(t *testing.T) {
	cases := []struct {
		name    string
		want    string
		workers int // 0 = don't check
		err     bool
	}{
		{name: "serial", want: "serial"},
		{name: "parallel", want: "parallel"},
		{name: "parallel:3", want: "parallel", workers: 3},
		{name: "Parallel:2", want: "parallel", workers: 2},
		{name: "parallel:x", err: true},
		{name: "gpu", err: true},
	}
	for _, c := range cases {
		b, err := backendByName(c.name)
		if c.err {
			if err == nil {
				t.Errorf("backendByName(%q): expected error", c.name)
			}
			continue
		}
		if err != nil {
			t.Errorf("backendByName(%q): %v", c.name, err)
			continue
		}
		if b.Name() != c.want {
			t.Errorf("backendByName(%q).Name() = %q, want %q", c.name, b.Name(), c.want)
		}
		if c.workers != 0 && b.Workers() != c.workers {
			t.Errorf("backendByName(%q).Workers() = %d, want %d", c.name, b.Workers(), c.workers)
		}
	}
	if err := SetDefaultByName("bogus"); err == nil {
		t.Error("SetDefaultByName(bogus): expected error")
	}
}

func TestDefaultFallsBackOnInvalidEnv(t *testing.T) {
	// An invalid FALVOLT_BACKEND must degrade to the auto choice, never
	// to a nil backend (which would panic at first use).
	t.Setenv("FALVOLT_BACKEND", "bogus")
	defaultMu.Lock()
	prev := defaultBackend
	defaultBackend = nil
	defaultMu.Unlock()
	defer SetDefault(func() Backend {
		if prev != nil {
			return prev
		}
		return Serial()
	}())
	b := Default()
	if b == nil {
		t.Fatal("Default() returned nil on invalid FALVOLT_BACKEND")
	}
	// Must be usable.
	b.For(4, func(lo, hi int) {})
}

func TestScratchRoundTrip(t *testing.T) {
	s := GetScratch(4, 5)
	if s.Len() != 20 || s.Shape[0] != 4 || s.Shape[1] != 5 {
		t.Fatalf("scratch shape %v len %d", s.Shape, s.Len())
	}
	for i := range s.Data {
		s.Data[i] = float32(i)
	}
	ReleaseScratch(s)
	if s.Data != nil {
		t.Fatal("ReleaseScratch must detach the buffer")
	}
	// Reuse path: a second scratch of smaller size must come back usable.
	s2 := GetScratch(3)
	if len(s2.Data) != 3 {
		t.Fatalf("scratch len %d, want 3", len(s2.Data))
	}
	ReleaseScratch(s2)
	ReleaseScratch(nil) // must not panic
}
