package tensor

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewAndLen(t *testing.T) {
	a := New(2, 3, 4)
	if a.Len() != 24 {
		t.Errorf("Len = %d, want 24", a.Len())
	}
	if a.Rank() != 3 {
		t.Errorf("Rank = %d, want 3", a.Rank())
	}
	for _, v := range a.Data {
		if v != 0 {
			t.Fatal("New tensor must be zero-filled")
		}
	}
}

func TestAtSet(t *testing.T) {
	a := New(2, 3)
	a.Set(7, 1, 2)
	if got := a.At(1, 2); got != 7 {
		t.Errorf("At(1,2) = %v, want 7", got)
	}
	if got := a.Data[1*3+2]; got != 7 {
		t.Errorf("row-major layout wrong: Data[5] = %v", got)
	}
}

func TestAtPanicsOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("At out of range should panic")
		}
	}()
	New(2, 2).At(2, 0)
}

func TestReshapeSharesData(t *testing.T) {
	a := New(2, 3)
	b := a.Reshape(3, 2)
	b.Data[0] = 42
	if a.Data[0] != 42 {
		t.Error("Reshape must share underlying data")
	}
	defer func() {
		if recover() == nil {
			t.Error("Reshape volume mismatch should panic")
		}
	}()
	a.Reshape(5)
}

func TestCloneIndependent(t *testing.T) {
	a := New(4)
	a.Fill(1)
	b := a.Clone()
	b.Data[0] = 9
	if a.Data[0] != 1 {
		t.Error("Clone must deep-copy")
	}
}

func TestAddSubScale(t *testing.T) {
	a := FromSlice([]float32{1, 2, 3}, 3)
	b := FromSlice([]float32{10, 20, 30}, 3)
	a.AddInPlace(b)
	if a.Data[2] != 33 {
		t.Errorf("AddInPlace: got %v", a.Data)
	}
	a.SubInPlace(b)
	if a.Data[2] != 3 {
		t.Errorf("SubInPlace: got %v", a.Data)
	}
	a.Scale(2)
	if a.Data[0] != 2 {
		t.Errorf("Scale: got %v", a.Data)
	}
}

func TestSumMeanMaxAbs(t *testing.T) {
	a := FromSlice([]float32{-4, 1, 3}, 3)
	if a.Sum() != 0 {
		t.Errorf("Sum = %v, want 0", a.Sum())
	}
	if a.Mean() != 0 {
		t.Errorf("Mean = %v, want 0", a.Mean())
	}
}

func TestArgmax(t *testing.T) {
	a := FromSlice([]float32{0, 5, 2, 9, 1, 1}, 2, 3)
	if got := a.Argmax(0); got != 1 {
		t.Errorf("Argmax row0 = %d, want 1", got)
	}
	if got := a.Argmax(1); got != 0 {
		t.Errorf("Argmax row1 = %d, want 0", got)
	}
}

func TestMatMulSmall(t *testing.T) {
	a := FromSlice([]float32{1, 2, 3, 4}, 2, 2)
	b := FromSlice([]float32{5, 6, 7, 8}, 2, 2)
	c := MatMul(a, b)
	want := []float32{19, 22, 43, 50}
	for i, w := range want {
		if c.Data[i] != w {
			t.Errorf("MatMul[%d] = %v, want %v", i, c.Data[i], w)
		}
	}
}

func TestMatMulTransBMatchesMatMul(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a := New(3, 4)
	a.RandNormal(rng, 1)
	b := New(4, 5)
	b.RandNormal(rng, 1)
	// Build Bᵀ explicitly and compare MatMulTransB(a, bT) with MatMul(a, b).
	bt := New(5, 4)
	for i := 0; i < 4; i++ {
		for j := 0; j < 5; j++ {
			bt.Set(b.At(i, j), j, i)
		}
	}
	c1 := MatMul(a, b)
	c2 := MatMulTransB(a, bt)
	for i := range c1.Data {
		if math.Abs(float64(c1.Data[i]-c2.Data[i])) > 1e-5 {
			t.Fatalf("MatMulTransB mismatch at %d: %v vs %v", i, c1.Data[i], c2.Data[i])
		}
	}
}

func TestMatMulTransAMatchesMatMul(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	a := New(4, 3) // Aᵀ is 3x4
	a.RandNormal(rng, 1)
	b := New(4, 5)
	b.RandNormal(rng, 1)
	at := New(3, 4)
	for i := 0; i < 4; i++ {
		for j := 0; j < 3; j++ {
			at.Set(a.At(i, j), j, i)
		}
	}
	c1 := MatMul(at, b)
	c2 := MatMulTransA(a, b)
	for i := range c1.Data {
		if math.Abs(float64(c1.Data[i]-c2.Data[i])) > 1e-5 {
			t.Fatalf("MatMulTransA mismatch at %d: %v vs %v", i, c1.Data[i], c2.Data[i])
		}
	}
}

func TestMatMulIdentity(t *testing.T) {
	err := quick.Check(func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(6)
		a := New(n, n)
		a.RandNormal(rng, 1)
		id := New(n, n)
		for i := 0; i < n; i++ {
			id.Set(1, i, i)
		}
		c := MatMul(a, id)
		for i := range a.Data {
			if math.Abs(float64(a.Data[i]-c.Data[i])) > 1e-6 {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 20})
	if err != nil {
		t.Error(err)
	}
}

func TestConvShapeDerivation(t *testing.T) {
	cs, err := NewConvShape(2, 8, 8, 4, 3, 3, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if cs.OutH != 8 || cs.OutW != 8 {
		t.Errorf("same-pad 3x3 stride1 should preserve extent, got %dx%d", cs.OutH, cs.OutW)
	}
	if cs.K != 2*3*3 {
		t.Errorf("K = %d, want 18", cs.K)
	}
	if _, err := NewConvShape(1, 2, 2, 1, 5, 5, 1, 0); err == nil {
		t.Error("kernel larger than input without pad should error")
	}
	if _, err := NewConvShape(1, 4, 4, 1, 3, 3, 0, 0); err == nil {
		t.Error("zero stride should error")
	}
	if _, err := NewConvShape(1, 4, 4, 1, 3, 3, 1, -1); err == nil {
		t.Error("negative pad should error")
	}
}

func TestIm2ColKnownValues(t *testing.T) {
	// 1x1x3x3 input, 2x2 kernel, stride 1, no pad -> 4 patches of 4 values.
	x := FromSlice([]float32{
		1, 2, 3,
		4, 5, 6,
		7, 8, 9,
	}, 1, 1, 3, 3)
	cs, err := NewConvShape(1, 3, 3, 1, 2, 2, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	cols := Im2Col(x, cs)
	if cols.Shape[0] != 4 || cols.Shape[1] != 4 {
		t.Fatalf("cols shape = %v, want [4 4]", cols.Shape)
	}
	want := [][]float32{
		{1, 2, 4, 5},
		{2, 3, 5, 6},
		{4, 5, 7, 8},
		{5, 6, 8, 9},
	}
	for r, wr := range want {
		for c, wv := range wr {
			if got := cols.At(r, c); got != wv {
				t.Errorf("cols[%d][%d] = %v, want %v", r, c, got, wv)
			}
		}
	}
}

func TestIm2ColPaddingZeros(t *testing.T) {
	x := FromSlice([]float32{1, 2, 3, 4}, 1, 1, 2, 2)
	cs, err := NewConvShape(1, 2, 2, 1, 3, 3, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	cols := Im2Col(x, cs)
	// First patch centered at (0,0): top row and left column are padding.
	first := cols.Data[0:9]
	want := []float32{0, 0, 0, 0, 1, 2, 0, 3, 4}
	for i, wv := range want {
		if first[i] != wv {
			t.Errorf("padded patch[%d] = %v, want %v", i, first[i], wv)
		}
	}
}

func TestCol2ImAdjoint(t *testing.T) {
	// <Im2Col(x), y> == <x, Col2Im(y)> — the defining adjoint property.
	rng := rand.New(rand.NewSource(3))
	cs, err := NewConvShape(2, 5, 5, 3, 3, 3, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	n := 2
	x := New(n, cs.InC, cs.InH, cs.InW)
	x.RandNormal(rng, 1)
	y := New(n*cs.PatchesPerItem, cs.K)
	y.RandNormal(rng, 1)

	cols := Im2Col(x, cs)
	var lhs float64
	for i := range cols.Data {
		lhs += float64(cols.Data[i]) * float64(y.Data[i])
	}
	back := Col2Im(y, n, cs)
	var rhs float64
	for i := range x.Data {
		rhs += float64(x.Data[i]) * float64(back.Data[i])
	}
	if math.Abs(lhs-rhs) > 1e-2*(1+math.Abs(lhs)) {
		t.Errorf("adjoint property violated: %v vs %v", lhs, rhs)
	}
}

func TestAvgPool2(t *testing.T) {
	x := FromSlice([]float32{
		1, 2, 3, 4,
		5, 6, 7, 8,
		9, 10, 11, 12,
		13, 14, 15, 16,
	}, 1, 1, 4, 4)
	p := New(1, 1, 2, 2)
	AvgPool2(p, x)
	want := []float32{3.5, 5.5, 11.5, 13.5}
	for i, wv := range want {
		if p.Data[i] != wv {
			t.Errorf("pool[%d] = %v, want %v", i, p.Data[i], wv)
		}
	}
}

func TestAvgPool2BackwardAdjoint(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	x := New(2, 3, 6, 6)
	x.RandNormal(rng, 1)
	g := New(2, 3, 3, 3)
	g.RandNormal(rng, 1)
	p := New(2, 3, 3, 3)
	AvgPool2(p, x)
	var lhs float64
	for i := range p.Data {
		lhs += float64(p.Data[i]) * float64(g.Data[i])
	}
	back := AvgPool2Backward(g, 6, 6)
	var rhs float64
	for i := range x.Data {
		rhs += float64(x.Data[i]) * float64(back.Data[i])
	}
	if math.Abs(lhs-rhs) > 1e-3*(1+math.Abs(lhs)) {
		t.Errorf("pool adjoint violated: %v vs %v", lhs, rhs)
	}
}

func TestFromSlicePanicsOnBadLength(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("FromSlice with wrong length should panic")
		}
	}()
	FromSlice([]float32{1, 2, 3}, 2, 2)
}

func TestKaimingNormalStd(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	a := New(10000)
	a.KaimingNormal(rng, 50)
	var sum, sq float64
	for _, v := range a.Data {
		sum += float64(v)
		sq += float64(v) * float64(v)
	}
	mean := sum / float64(a.Len())
	std := math.Sqrt(sq/float64(a.Len()) - mean*mean)
	want := math.Sqrt(2.0 / 50.0)
	if math.Abs(std-want) > 0.01 {
		t.Errorf("Kaiming std = %v, want ~%v", std, want)
	}
}
