package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// sparseInput returns x [n, c, h, w] whose entries are nonzero with
// probability density: binary spikes (1) or, when analog, normal values.
// Analog zeros alternate between +0 and −0.
func sparseInput(rng *rand.Rand, density float64, analog bool, n, c, h, w int) *Tensor {
	x := New(n, c, h, w)
	negZero := float32(math.Copysign(0, -1))
	for i := range x.Data {
		switch {
		case rng.Float64() >= density:
			if analog && i%2 == 1 {
				x.Data[i] = negZero
			}
		case analog:
			x.Data[i] = float32(rng.NormFloat64())
		default:
			x.Data[i] = 1
		}
	}
	return x
}

// denseOf materializes p as the [N*P, K] matrix it encodes.
func denseOf(p *Patches) *Tensor {
	d := New(p.Rows(), p.Shape.K)
	for r := 0; r < p.Rows(); r++ {
		for t := p.RowPtr[r]; t < p.RowPtr[r+1]; t++ {
			d.Data[r*p.Shape.K+int(p.Col[t])] = p.Val[t]
		}
	}
	return d
}

// patchShapes covers stride 1 and 2, pad 0 and 1, and ragged extents.
var patchShapes = []struct{ n, inC, inH, inW, outC, k, stride, pad int }{
	{1, 1, 5, 5, 3, 3, 1, 1},
	{3, 2, 7, 9, 5, 3, 2, 1},
	{2, 3, 6, 5, 4, 3, 2, 0},
	{4, 2, 8, 8, 16, 3, 1, 0},
	{2, 1, 4, 6, 9, 1, 1, 0},
}

// checkPatchRows fails unless p holds exactly the nonzero entries of
// dense [Rows, K] (±0 dropped, NaN kept) with columns strictly ascending
// in every row.
func checkPatchRows(t *testing.T, ctx string, dense *Tensor, p *Patches) {
	t.Helper()
	k := dense.Shape[1]
	if p.Rows() != dense.Shape[0] || p.Shape.K != k {
		t.Fatalf("%s: %d rows of K=%d, want %v", ctx, p.Rows(), p.Shape.K, dense.Shape)
	}
	for r := 0; r < p.Rows(); r++ {
		for q := p.RowPtr[r]; q < p.RowPtr[r+1]; q++ {
			if p.Val[q] == 0 {
				t.Fatalf("%s: row %d stores a zero", ctx, r)
			}
			if q > p.RowPtr[r] && p.Col[q] <= p.Col[q-1] {
				t.Fatalf("%s: row %d columns not ascending", ctx, r)
			}
		}
	}
	want := dense.Clone()
	for i, v := range want.Data {
		if v == 0 {
			want.Data[i] = 0 // −0 entries are dropped like +0
		}
	}
	assertBitIdentical(t, ctx, want, denseOf(p))
}

// checkRowLowerings checks RowPatches and PermuteCols against dense
// [Rows, K]: RowPatches(dense) holds its nonzero entries, and permuting
// its columns by perm equals lowering the column-permuted dense matrix.
func checkRowLowerings(t *testing.T, ctx string, dense *Tensor, perm []int) {
	t.Helper()
	p := RowPatches(dense)
	checkPatchRows(t, ctx+" RowPatches", dense, p)
	n, k := dense.Shape[0], dense.Shape[1]
	moved := New(n, k)
	for i, kk := range perm {
		for r := 0; r < n; r++ {
			moved.Data[r*k+i] = dense.Data[r*k+kk]
		}
	}
	p.PermuteCols(perm)
	checkPatchRows(t, ctx+" PermuteCols", moved, p)
	p.Release()
}

// TestIm2PatchesMatchesIm2ColParallel checks the sparse lowering holds
// exactly Im2Col's nonzero entries, columns strictly ascending, on every
// engine and at spike densities from 0 to 100%, and checks the row
// lowerings (RowPatches, PermuteCols) on the same dense patch matrices
// and on a K=7 matrix (not a multiple of any even array height) holding
// ±0, NaN, an infinity and an all-zero row.
func TestIm2PatchesMatchesIm2ColParallel(t *testing.T) {
	negZero := float32(math.Copysign(0, -1))
	nan := float32(math.NaN())
	edge := FromSlice([]float32{
		1, negZero, 0, nan, -2, 0, 0.5,
		0, negZero, 0, 0, negZero, 0, 0,
		negZero, 3, float32(math.Inf(-1)), 0, 0, nan, 1,
	}, 3, 7)
	if p := RowPatches(edge); p.RowPtr[1] != 4 || p.RowPtr[2] != 4 {
		t.Fatalf("row pointers %v: want row 0 to keep 4 entries (NaN included) and row 1 none", p.RowPtr)
	}
	checkRowLowerings(t, "edge identity", edge, []int{0, 1, 2, 3, 4, 5, 6})
	checkRowLowerings(t, "edge reversed", edge, []int{6, 5, 4, 3, 2, 1, 0})
	checkRowLowerings(t, "edge rotated", edge, []int{3, 4, 5, 6, 0, 1, 2})

	rng := rand.New(rand.NewSource(31))
	engines := []Backend{Serial()}
	for _, w := range testWorkerCounts {
		engines = append(engines, NewParallel(w))
	}
	for _, sh := range patchShapes {
		cs, err := NewConvShape(sh.inC, sh.inH, sh.inW, sh.outC, sh.k, sh.k, sh.stride, sh.pad)
		if err != nil {
			t.Fatal(err)
		}
		for _, density := range []float64{0, 0.05, 0.3, 1} {
			for _, analog := range []bool{false, true} {
				x := sparseInput(rng, density, analog, sh.n, sh.inC, sh.inH, sh.inW)
				if analog && density > 0 {
					x.Data[len(x.Data)/2] = nan
				}
				dense := Im2Col(x, cs) // copies −0 pixels; the lowerings drop them
				for _, e := range engines {
					p := Im2Patches(e, x, cs)
					if p.N != sh.n {
						t.Fatalf("%+v: N=%d", sh, p.N)
					}
					checkPatchRows(t, fmt.Sprintf("%s %+v", e.Name(), sh), dense, p)
					p.Release()
				}
				checkRowLowerings(t, fmt.Sprintf("%+v", sh), dense, rng.Perm(cs.K))
			}
		}
	}
}

// denseTransB is the dense dot-product reference: every kk term, zeros
// included, accumulated kk ascending from +0.
func denseTransB(a, b *Tensor) *Tensor {
	m, k, n := a.Shape[0], a.Shape[1], b.Shape[0]
	c := New(m, n)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			var s float32
			for kk := 0; kk < k; kk++ {
				s += a.Data[i*k+kk] * b.Data[j*k+kk]
			}
			c.Data[i*n+j] = s
		}
	}
	return c
}

// TestPatchesGEMMsMatchDenseParallel checks the two sparse convolution
// GEMMs bit for bit against the dense formulation over Im2Col: the
// forward against a full dot product, the weight gradient against
// MatMulTransA, with all-negative weights and zero-laced gradients.
func TestPatchesGEMMsMatchDenseParallel(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	engines := []Backend{Serial()}
	for _, w := range testWorkerCounts {
		engines = append(engines, NewParallel(w))
	}
	for _, sh := range patchShapes {
		cs, err := NewConvShape(sh.inC, sh.inH, sh.inW, sh.outC, sh.k, sh.k, sh.stride, sh.pad)
		if err != nil {
			t.Fatal(err)
		}
		w := randTensor(rng, cs.M, cs.K)
		for i, v := range w.Data {
			w.Data[i] = -float32(math.Abs(float64(v)))
		}
		for _, density := range []float64{0, 0.05, 0.3, 1} {
			x := sparseInput(rng, density, density == 0.3, sh.n, sh.inC, sh.inH, sh.inW)
			cols := Im2Col(x, cs)
			g := randTensor(rng, cols.Shape[0], cs.M)
			wantY := denseTransB(cols, w)
			wantGW := randTensor(rng, cs.M, cs.K)
			base := wantGW.Clone()
			wantGW.AddInPlace(MatMulTransAUsing(Serial(), g, cols))
			for _, e := range engines {
				p := Im2Patches(e, x, cs)
				y := New(cols.Shape[0], cs.M)
				p.MatMulTransB(e, y, w)
				assertBitIdentical(t, e.Name()+" forward", wantY, y)
				gw := base.Clone()
				p.AddWeightGrad(e, gw, g)
				assertBitIdentical(t, e.Name()+" weight grad", wantGW, gw)
				p.Release()
			}
		}
	}
}

// TestMatMulTransBZeroHeavyParallel checks the zero-skipping dot-product
// kernel against the dense reference on a mostly-zero a (all-zero rows
// included) and an all-negative b, on both engines.
func TestMatMulTransBZeroHeavyParallel(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	for _, s := range gemmShapes {
		m, k, n := s[0], s[1], s[2]
		a := New(m, k)
		for i := range a.Data {
			if i/k%3 != 0 && rng.Float64() < 0.1 { // every third row stays zero
				a.Data[i] = float32(rng.NormFloat64())
			}
		}
		b := New(n, k)
		for i := range b.Data {
			b.Data[i] = -float32(math.Abs(rng.NormFloat64()))
		}
		want := denseTransB(a, b)
		assertBitIdentical(t, "serial", want, MatMulTransBUsing(Serial(), a, b))
		for _, w := range testWorkerCounts {
			assertBitIdentical(t, "parallel", want, MatMulTransBUsing(NewParallel(w), a, b))
		}
	}
}
