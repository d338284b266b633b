package tensor

import (
	"fmt"
	"slices"
	"sync"
)

// Patches is the spike-sparse lowering of a convolution input: the im2col
// patch matrix [N*OutH*OutW, K] (the one the dense reference Im2Col
// builds), held as compressed sparse rows. Row r = (b*OutH + oy)*OutW + ox is one
// receptive-field patch; its nonzero entries are Col[RowPtr[r]:RowPtr[r+1]]
// (column indices kk, strictly ascending) with values
// Val[RowPtr[r]:RowPtr[r+1]]. Exact zeros (±0) are not stored.
//
// Spike inputs are mostly zero (the convs of the N-MNIST and MNIST models
// see 5–50% dense patches), so the GEMMs that read the patch matrix — the
// forward product and the weight gradient — visit only the stored
// entries.
//
// Exactness. Every output element keeps the accumulation order of the
// dense kernels over the same matrix (kk ascending forward, r ascending
// for the weight gradient); the only terms dropped are products with an
// exactly zero patch factor. The accumulators start at +0 and under
// round-to-nearest never become −0, so adding a ±0 product leaves them
// bitwise unchanged — provided the other factor is finite. With a NaN or
// ±Inf weight (or gradient) the dense product 0·Inf would have been NaN;
// the sparse kernels leave that term out instead.
type Patches struct {
	N      int       // batch items
	Shape  ConvShape // the lowering the patches belong to
	RowPtr []int     // len N*PatchesPerItem+1
	Col    []int32   // ascending within each row
	Val    []float32

	next []int // per-row fill cursor, reused across builds
	nz   []int // per-pixel nonzero-channel tallies of count, reused too
	// The cover tables of the conv shape covShape (rows, columns), which
	// depend on nothing else: a build for the same shape reuses them,
	// one for another shape rebuilds them in their storage.
	covShape ConvShape
	ys, xs   coverTable
}

var patchesPool = sync.Pool{New: func() any { return new(Patches) }}

// Rows returns the number of patch rows, N*PatchesPerItem.
func (p *Patches) Rows() int { return len(p.RowPtr) - 1 }

// Release returns p's buffers for reuse by a later Im2Patches. p must not
// be used afterwards.
func (p *Patches) Release() { patchesPool.Put(p) }

// Im2Patches lowers x [N, InC, InH, InW] into the patch rows of cs.
//
// Every nonzero pixel feeds the at most KH·KW patch rows whose receptive
// field covers it. A counting pass sizes the rows (it tallies the nonzero
// channels of each pixel position, then adds each tally to the rows the
// position feeds), and a fill pass sends each nonzero pixel, in NCHW
// order, to its rows' cursors. For a fixed patch row, a later pixel in
// NCHW order (higher channel, or same channel and later row/column) lands
// at a higher column kk = (c*KH + ky)*KW + kx, so visiting pixels in NCHW
// order leaves every row's columns ascending without a sort. Both passes
// partition over batch items, whose patch rows are disjoint.
func Im2Patches(e Backend, x *Tensor, cs ConvShape) *Patches {
	if x.Rank() != 4 || x.Shape[1] != cs.InC || x.Shape[2] != cs.InH || x.Shape[3] != cs.InW {
		panic(fmt.Sprintf("tensor: Im2Patches input shape %v does not match conv %+v", x.Shape, cs))
	}
	n := x.Shape[0]
	rows := n * cs.PatchesPerItem
	p := patchesPool.Get().(*Patches)
	p.N, p.Shape = n, cs
	p.RowPtr = resize(p.RowPtr, rows+1)
	p.next = resize(p.next, rows)
	p.nz = resize(p.nz, n*cs.InH*cs.InW)
	if p.ys.tab == nil || p.covShape != cs {
		p.covShape = cs
		p.ys.build(cs.InH, cs.KH, cs.OutH, cs.Stride, cs.Pad, cs.OutW, cs.KW)
		p.xs.build(cs.InW, cs.KW, cs.OutW, cs.Stride, cs.Pad, 1, 1)
	}
	ys, xs := p.ys.tab, p.xs.tab

	clear(p.next)
	e.For(n, func(b0, b1 int) { p.count(x, ys, xs, b0, b1) })
	p.RowPtr[0] = 0
	for r, c := range p.next {
		p.RowPtr[r+1] = p.RowPtr[r] + c
	}
	nnz := p.RowPtr[rows]
	p.Col = resize(p.Col, nnz)
	p.Val = resize(p.Val, nnz)
	copy(p.next, p.RowPtr[:rows])
	e.For(n, func(b0, b1 int) { p.fill(x, ys, xs, b0, b1) })
	return p
}

// RowPatches holds the rows of x [N, K] as patch rows, by a plain scan:
// the lowering of a 1×1 convolution over x viewed as [N, K, 1, 1].
func RowPatches(x *Tensor) *Patches {
	if x.Rank() != 2 {
		panic(fmt.Sprintf("tensor: RowPatches input shape %v, want [N K]", x.Shape))
	}
	n, k := x.Shape[0], x.Shape[1]
	p := patchesPool.Get().(*Patches)
	p.N, p.Shape = n, ConvShape{InC: k, InH: 1, InW: 1, KH: 1, KW: 1, Stride: 1, OutH: 1, OutW: 1, K: k, PatchesPerItem: 1}
	p.RowPtr = append(p.RowPtr[:0], 0)
	// Write every entry but keep only nonzeros: no branch on the spikes.
	col, val := resize(p.Col, n*k), resize(p.Val, n*k)
	t := 0
	for r := 0; r < n; r++ {
		for kk, v := range x.Data[r*k : (r+1)*k] {
			col[t], val[t] = int32(kk), v
			if v != 0 {
				t++
			}
		}
		p.RowPtr = append(p.RowPtr, t)
	}
	p.Col, p.Val = col[:t], val[:t]
	return p
}

// PermuteCols rewrites p in place as the patches of the matrix whose
// column i is column perm[i] of p's: each stored column moves to its slot
// through the inverse of perm, and an insertion sort restores each row's
// ascending order. perm must be a permutation of [0, K).
func (p *Patches) PermuteCols(perm []int) {
	if len(perm) != p.Shape.K {
		panic(fmt.Sprintf("tensor: PermuteCols permutation length %d, want K=%d", len(perm), p.Shape.K))
	}
	slot := make([]int32, len(perm))
	for i, kk := range perm {
		slot[kk] = int32(i)
	}
	for r := 0; r < p.Rows(); r++ {
		cols, vals := p.Col[p.RowPtr[r]:p.RowPtr[r+1]], p.Val[p.RowPtr[r]:p.RowPtr[r+1]]
		for i, kk := range cols {
			c, v := slot[kk], vals[i]
			j := i
			for ; j > 0 && cols[j-1] > c; j-- {
				cols[j], vals[j] = cols[j-1], vals[j-1]
			}
			cols[j], vals[j] = c, v
		}
	}
}

// resize returns s with length n, reallocating only when it is too small.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// cover is one (output position, kernel tap) pair whose receptive field
// includes a given input coordinate, pre-scaled for row and column
// arithmetic: row offset out*outScale, column offset tap*tapScale.
type cover struct{ out, tap int }

// coverTable lists, for every input coordinate i in [0, in), the
// (output, tap) pairs with out*stride + tap - pad == i, in ascending tap
// order: entry i's pairs are tab[i], slices of flat.
type coverTable struct {
	tab  [][]cover
	flat []cover
}

// build fills c for one axis of a convolution, reusing its storage.
func (c *coverTable) build(in, taps, outLen, stride, pad, outScale, tapScale int) {
	if cap(c.flat) < in*taps {
		c.flat = make([]cover, 0, in*taps)
	}
	c.tab, c.flat = resize(c.tab, in), c.flat[:0]
	tab := c.tab
	for i := 0; i < in; i++ {
		start := len(c.flat)
		for tap := 0; tap < taps; tap++ {
			o := i + pad - tap
			if o < 0 || o%stride != 0 || o/stride >= outLen {
				continue
			}
			c.flat = append(c.flat, cover{out: o / stride * outScale, tap: tap * tapScale})
		}
		tab[i] = c.flat[start:len(c.flat):len(c.flat)]
	}
}

// count adds to p.next[r] the number of stored entries of every patch
// row r of batch items [b0, b1). A pixel position feeds the same rows in
// every channel, so the position's nonzero channels are tallied first and
// each tally is sent to the position's rows once.
func (p *Patches) count(x *Tensor, ys, xs [][]cover, b0, b1 int) {
	cs := p.Shape
	plane := cs.InH * cs.InW
	next := p.next
	for b := b0; b < b1; b++ {
		nz := p.nz[b*plane : (b+1)*plane]
		clear(nz)
		for c := 0; c < cs.InC; c++ {
			for i, v := range x.Data[(b*cs.InC+c)*plane : (b*cs.InC+c+1)*plane] {
				if v != 0 {
					nz[i]++
				}
			}
		}
		rowBase := b * cs.PatchesPerItem
		for iy := 0; iy < cs.InH; iy++ {
			for ix, t := range nz[iy*cs.InW : (iy+1)*cs.InW] {
				if t == 0 {
					continue
				}
				for _, cy := range ys[iy] {
					for _, cx := range xs[ix] {
						next[rowBase+cy.out+cx.out] += t
					}
				}
			}
		}
	}
}

// fill visits the nonzero pixels of batch items [b0, b1) in NCHW order
// and stores each patch entry (r, kk) a pixel feeds at the row's cursor
// p.next[r].
func (p *Patches) fill(x *Tensor, ys, xs [][]cover, b0, b1 int) {
	cs := p.Shape
	plane := cs.InH * cs.InW
	taps := cs.KH * cs.KW
	next, col, val := p.next, p.Col, p.Val
	for b := b0; b < b1; b++ {
		rowBase := b * cs.PatchesPerItem
		for c := 0; c < cs.InC; c++ {
			src := x.Data[(b*cs.InC+c)*plane : (b*cs.InC+c+1)*plane]
			kBase := c * taps
			for iy := 0; iy < cs.InH; iy++ {
				line := src[iy*cs.InW : (iy+1)*cs.InW]
				for ix, v := range line {
					if v == 0 {
						continue
					}
					for _, cy := range ys[iy] {
						for _, cx := range xs[ix] {
							r := rowBase + cy.out + cx.out
							t := next[r]
							col[t], val[t] = int32(kBase+cy.tap+cx.tap), v
							next[r] = t + 1
						}
					}
				}
			}
		}
	}
}

// MatMulTransB computes dst = patches·wᵀ for w [M, K], dst [N*P, M]: the
// convolution's forward GEMM. w is transposed once into scratch so each
// patch row becomes an axpy sweep (gemmAxpyPanel) over the rows of wᵀ
// selected by its nonzero columns, kk ascending per output element.
// Work is partitioned over patch rows.
func (p *Patches) MatMulTransB(e Backend, dst, w *Tensor) {
	if w.Rank() != 2 || w.Shape[1] != p.Shape.K {
		panic(fmt.Sprintf("tensor: Patches.MatMulTransB weight shape %v, want [M %d]", w.Shape, p.Shape.K))
	}
	m, k := w.Shape[0], w.Shape[1]
	checkDst(dst, p.Rows(), m)
	wt := GetScratch(k, m)
	for mi := 0; mi < m; mi++ {
		for kk, v := range w.Data[mi*k : (mi+1)*k] {
			wt.Data[kk*m+mi] = v
		}
	}
	e.For(p.Rows(), func(r0, r1 int) {
		for r := r0; r < r1; r++ {
			crow := dst.Data[r*m : (r+1)*m]
			clear(crow)
			lo, hi := p.RowPtr[r], p.RowPtr[r+1]
			for q := lo; q < hi; q += gemmPanelK {
				qe := min(q+gemmPanelK, hi)
				gemmAxpyPanel(crow, p.Col[q:qe], p.Val[q:qe], wt.Data, m)
			}
		}
	})
	ReleaseScratch(wt)
}

// AddWeightGrad computes wgrad += gᵀ·patches for g [N*P, M] and wgrad
// [M, K]: the convolution's weight gradient. The product accumulates
// into a [K, M] scratch matrix, patch rows r ascending for every element
// (each stored entry (r, kk, v) adds v·g[r] to scratch row kk), and is
// then added transposed into wgrad. Work is partitioned over kk ranges,
// one per engine worker: each range walks all patch rows but touches only
// its own columns, found by binary search in the sorted row.
func (p *Patches) AddWeightGrad(e Backend, wgrad, g *Tensor) {
	k := p.Shape.K
	if g.Rank() != 2 || g.Shape[0] != p.Rows() {
		panic(fmt.Sprintf("tensor: Patches.AddWeightGrad gradient shape %v, want [%d M]", g.Shape, p.Rows()))
	}
	m := g.Shape[1]
	if wgrad.Rank() != 2 || wgrad.Shape[0] != m || wgrad.Shape[1] != k {
		panic(fmt.Sprintf("tensor: Patches.AddWeightGrad wgrad shape %v, want [%d %d]", wgrad.Shape, m, k))
	}
	gt := GetScratch(k, m)
	units := min(e.Workers(), k)
	e.For(units, func(u0, u1 int) {
		for u := u0; u < u1; u++ {
			k0, k1 := u*k/units, (u+1)*k/units
			acc := gt.Data[k0*m : k1*m]
			clear(acc)
			for r := 0; r < p.Rows(); r++ {
				cols := p.Col[p.RowPtr[r]:p.RowPtr[r+1]]
				vals := p.Val[p.RowPtr[r]:p.RowPtr[r+1]]
				lo, hi := 0, len(cols)
				if k0 > 0 {
					lo, _ = slices.BinarySearch(cols, int32(k0))
				}
				if k1 < k {
					hi, _ = slices.BinarySearch(cols, int32(k1))
				}
				if lo == hi {
					continue
				}
				gradAxpyRow(gt.Data, cols[lo:hi], vals[lo:hi], g.Data[r*m:(r+1)*m])
			}
			for kk := k0; kk < k1; kk++ {
				for mi, v := range gt.Data[kk*m : (kk+1)*m] {
					wgrad.Data[mi*k+kk] += v
				}
			}
		}
	})
	ReleaseScratch(gt)
}

// gradAxpyRow computes acc[kk] += v·grow for every entry (kk, v) of one
// patch row, where acc is [K, M] row-major and grow is the row's output
// gradient, register-blocked over gemmBlockJ gradient columns.
func gradAxpyRow(acc []float32, cols []int32, vals []float32, grow []float32) {
	m := len(grow)
	j := 0
	for ; j+gemmBlockJ <= m; j += gemmBlockJ {
		gb := grow[j : j+gemmBlockJ : j+gemmBlockJ]
		g0, g1, g2, g3 := gb[0], gb[1], gb[2], gb[3]
		g4, g5, g6, g7 := gb[4], gb[5], gb[6], gb[7]
		for t, kk := range cols {
			v := vals[t]
			off := int(kk)*m + j
			a := acc[off : off+gemmBlockJ : off+gemmBlockJ]
			a[0] += v * g0
			a[1] += v * g1
			a[2] += v * g2
			a[3] += v * g3
			a[4] += v * g4
			a[5] += v * g5
			a[6] += v * g6
			a[7] += v * g7
		}
	}
	for ; j < m; j++ {
		gv := grow[j]
		for t, kk := range cols {
			acc[int(kk)*m+j] += vals[t] * gv
		}
	}
}
