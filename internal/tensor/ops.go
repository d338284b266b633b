package tensor

import "fmt"

// This file holds the allocation + delegation layer of the tensor ops:
// each package-level function allocates its result and routes the work
// through the process-default Backend (see backend.go). The row-range
// kernels at the bottom are shared by the Serial and Parallel engines;
// both partition work over output rows (or batch items) and run the same
// per-row loops, which is what makes the engines bit-identical.

// MatMul computes C = A·B for A of shape [m,k] and B of shape [k,n],
// returning a new [m,n] tensor. It is the reference float GEMM against
// which the systolic-array simulator is validated.
func MatMul(a, b *Tensor) *Tensor {
	return MatMulUsing(Default(), a, b)
}

// MatMulUsing is MatMul on an explicit backend.
func MatMulUsing(e Backend, a, b *Tensor) *Tensor {
	c := New(a.Shape[0], b.Shape[len(b.Shape)-1])
	e.MatMul(c, a, b)
	return c
}

// MatMulTransB computes C = A·Bᵀ for A [m,k] and B [n,k], returning [m,n].
// Used in backward passes where the weight matrix is consumed transposed.
func MatMulTransB(a, b *Tensor) *Tensor {
	return MatMulTransBUsing(Default(), a, b)
}

// MatMulTransBUsing is MatMulTransB on an explicit backend.
func MatMulTransBUsing(e Backend, a, b *Tensor) *Tensor {
	c := New(a.Shape[0], b.Shape[0])
	e.MatMulTransB(c, a, b)
	return c
}

// MatMulTransA computes C = Aᵀ·B for A [k,m] and B [k,n], returning [m,n].
// Used to accumulate weight gradients (inputᵀ · gradOut).
func MatMulTransA(a, b *Tensor) *Tensor {
	return MatMulTransAUsing(Default(), a, b)
}

// MatMulTransAUsing is MatMulTransA on an explicit backend.
func MatMulTransAUsing(e Backend, a, b *Tensor) *Tensor {
	c := New(a.Shape[len(a.Shape)-1], b.Shape[len(b.Shape)-1])
	e.MatMulTransA(c, a, b)
	return c
}

// ConvShape describes a 2-D convolution lowering: input [N,C,H,W] with a
// [OutC, C, KH, KW] kernel, stride and zero padding. It captures the sizes
// needed by Im2Col/Col2Im and by the systolic weight-mapping logic.
type ConvShape struct {
	InC, InH, InW  int // input channels and spatial extent
	OutC           int // output channels
	KH, KW         int // kernel extent
	Stride, Pad    int
	OutH, OutW     int // derived output extent
	K              int // reduction (GEMM inner) dimension = InC*KH*KW
	M              int // GEMM output dimension = OutC
	PatchesPerItem int // OutH*OutW columns per batch item
}

// NewConvShape validates and derives a convolution lowering.
func NewConvShape(inC, inH, inW, outC, kh, kw, stride, pad int) (ConvShape, error) {
	if stride <= 0 {
		return ConvShape{}, fmt.Errorf("tensor: stride must be positive, got %d", stride)
	}
	if pad < 0 {
		return ConvShape{}, fmt.Errorf("tensor: pad must be non-negative, got %d", pad)
	}
	outH := (inH+2*pad-kh)/stride + 1
	outW := (inW+2*pad-kw)/stride + 1
	if outH <= 0 || outW <= 0 {
		return ConvShape{}, fmt.Errorf("tensor: conv output empty for input %dx%d kernel %dx%d stride %d pad %d", inH, inW, kh, kw, stride, pad)
	}
	return ConvShape{
		InC: inC, InH: inH, InW: inW,
		OutC: outC, KH: kh, KW: kw,
		Stride: stride, Pad: pad,
		OutH: outH, OutW: outW,
		K: inC * kh * kw, M: outC,
		PatchesPerItem: outH * outW,
	}, nil
}

// Im2Col lowers input x [N, InC, InH, InW] into the dense patch matrix
// [N*OutH*OutW, K], one receptive-field patch per row: the serial
// reference the tests hold Im2Patches to. Nothing else builds it.
func Im2Col(x *Tensor, cs ConvShape) *Tensor {
	out := New(x.Shape[0]*cs.PatchesPerItem, cs.K)
	im2ColRows(out, x, cs, 0, out.Shape[0])
	return out
}

// Col2Im scatters a patch-gradient matrix of shape [N*OutH*OutW, K] back to
// an input-gradient tensor [N, InC, InH, InW], summing overlapping patches.
// It is the adjoint of Im2Col.
func Col2Im(cols *Tensor, n int, cs ConvShape) *Tensor {
	return Col2ImUsing(Default(), cols, n, cs)
}

// Col2ImUsing is Col2Im on an explicit backend.
func Col2ImUsing(e Backend, cols *Tensor, n int, cs ConvShape) *Tensor {
	out := New(n, cs.InC, cs.InH, cs.InW)
	e.Col2Im(out, cols, cs)
	return out
}

// AvgPool2 performs non-overlapping 2x2 average pooling of x [N,C,H,W]
// (H and W must be even) into out [N,C,H/2,W/2]. Every element of out is
// written, so it may come from GetScratch.
func AvgPool2(out, x *Tensor) {
	n, c, h, w := x.Shape[0], x.Shape[1], x.Shape[2], x.Shape[3]
	if h%2 != 0 || w%2 != 0 {
		panic(fmt.Sprintf("tensor: AvgPool2 needs even spatial dims, got %dx%d", h, w))
	}
	oh, ow := h/2, w/2
	for b := 0; b < n; b++ {
		for ch := 0; ch < c; ch++ {
			ibase := (b*c + ch) * h * w
			obase := (b*c + ch) * oh * ow
			for oy := 0; oy < oh; oy++ {
				for ox := 0; ox < ow; ox++ {
					iy, ix := oy*2, ox*2
					s := x.Data[ibase+iy*w+ix] + x.Data[ibase+iy*w+ix+1] +
						x.Data[ibase+(iy+1)*w+ix] + x.Data[ibase+(iy+1)*w+ix+1]
					out.Data[obase+oy*ow+ox] = s * 0.25
				}
			}
		}
	}
}

// AvgPool2Backward distributes output gradients of shape [N,C,H/2,W/2]
// uniformly back over the 2x2 input windows, returning [N,C,H,W].
func AvgPool2Backward(grad *Tensor, h, w int) *Tensor {
	n, c := grad.Shape[0], grad.Shape[1]
	oh, ow := grad.Shape[2], grad.Shape[3]
	if oh*2 != h || ow*2 != w {
		panic(fmt.Sprintf("tensor: AvgPool2Backward dims mismatch: grad %dx%d input %dx%d", oh, ow, h, w))
	}
	out := New(n, c, h, w)
	for b := 0; b < n; b++ {
		for ch := 0; ch < c; ch++ {
			gbase := (b*c + ch) * oh * ow
			obase := (b*c + ch) * h * w
			for oy := 0; oy < oh; oy++ {
				for ox := 0; ox < ow; ox++ {
					g := grad.Data[gbase+oy*ow+ox] * 0.25
					iy, ix := oy*2, ox*2
					out.Data[obase+iy*w+ix] += g
					out.Data[obase+iy*w+ix+1] += g
					out.Data[obase+(iy+1)*w+ix] += g
					out.Data[obase+(iy+1)*w+ix+1] += g
				}
			}
		}
	}
	return out
}

// --- row-range kernels shared by the Serial and Parallel backends ---
//
// Every kernel processes output rows [r0, r1) (or batch items for
// col2Im). Each output element is produced by exactly one kernel call and
// accumulated in the same inner-loop order regardless of how rows are
// partitioned, so any partition yields bit-identical results.
//
// Blocking scheme. The GEMM kernels are register-blocked over the j
// (output column) dimension with a kk-panel loop:
//
//   - matMulRows / matMulTransARows (axpy-style, kk-outer): per output
//     row, the nonzero kk positions (and their values) are collected once
//     — spike inputs are mostly zeros, and the old per-element zero test
//     cost a hard-to-predict branch per (kk, j) — then swept in panels of
//     gemmPanelK events. Each panel updates the row in register blocks of
//     gemmBlockJ columns, so b's panel rows stay cache-hot across the j
//     sweep and each b element is multiplied against a register, not a
//     memory-resident accumulator.
//   - matMulTransBRows (dot-product style): the same per-row nonzero
//     list, then four output columns per pass over it, amortizing the
//     list loads fourfold; there is no panel to keep hot.
//
// Bit-identity contract: for every output element the sequence of
// floating-point additions is the dense scalar kernel's — kk ascending —
// minus the terms whose a entry is exactly zero (±0). Every accumulator
// starts at +0 and under round-to-nearest never becomes −0, so adding a
// ±0 product would leave it bitwise unchanged: skipping those terms is
// exact whenever the b operand is finite (0·Inf and 0·NaN are NaN, which
// the dense kernel would have propagated). Register accumulators spill to
// dst between panels, which is exact in float32. Any future SIMD backend
// must preserve the same per-element accumulation order or switch the
// equivalence tests to tolerance-based comparison (see README
// "Performance"). patches.go's sparse convolution kernels follow the same
// contract.

const (
	// gemmPanelK is the kk-panel length: the number of (nonzero) reduction
	// steps applied to the whole output row before moving to the next
	// panel. 128 panel rows of b at typical n keep the panel inside L2.
	gemmPanelK = 128
	// gemmBlockJ is the register-block width over output columns.
	gemmBlockJ = 8
)

// gemmAxpyPanel computes crow[j] += Σ_t avs[t]·b[nz[t]][j] for one panel,
// register-blocked over j. Spilling crow between panels is exact, and
// within a panel each element accumulates in t (= kk) ascending order.
func gemmAxpyPanel(crow []float32, nz []int32, avs []float32, bdata []float32, n int) {
	j := 0
	for ; j+gemmBlockJ <= n; j += gemmBlockJ {
		c := crow[j : j+gemmBlockJ : j+gemmBlockJ]
		c0, c1, c2, c3 := c[0], c[1], c[2], c[3]
		c4, c5, c6, c7 := c[4], c[5], c[6], c[7]
		for t, kk := range nz {
			av := avs[t]
			off := int(kk) * n
			bp := bdata[off+j : off+j+gemmBlockJ : off+j+gemmBlockJ]
			c0 += av * bp[0]
			c1 += av * bp[1]
			c2 += av * bp[2]
			c3 += av * bp[3]
			c4 += av * bp[4]
			c5 += av * bp[5]
			c6 += av * bp[6]
			c7 += av * bp[7]
		}
		c[0], c[1], c[2], c[3] = c0, c1, c2, c3
		c[4], c[5], c[6], c[7] = c4, c5, c6, c7
	}
	for ; j < n; j++ {
		s := crow[j]
		for t, kk := range nz {
			s += avs[t] * bdata[int(kk)*n+j]
		}
		crow[j] = s
	}
}

// matMulRows computes dst rows [r0, r1) of dst = a·b.
func matMulRows(dst, a, b *Tensor, k, n, r0, r1 int) {
	nz := make([]int32, 0, k)
	avs := make([]float32, 0, k)
	for i := r0; i < r1; i++ {
		arow := a.Data[i*k : (i+1)*k]
		crow := dst.Data[i*n : (i+1)*n]
		for j := range crow {
			crow[j] = 0
		}
		nz, avs = nz[:0], avs[:0]
		for kk, av := range arow {
			if av == 0 {
				continue // spike inputs are mostly zero; skip dead rows
			}
			nz = append(nz, int32(kk))
			avs = append(avs, av)
		}
		for p := 0; p < len(nz); p += gemmPanelK {
			q := min(p+gemmPanelK, len(nz))
			gemmAxpyPanel(crow, nz[p:q], avs[p:q], b.Data, n)
		}
	}
}

// matMulTransARows computes dst rows [r0, r1) of dst = aᵀ·b for a [k,m].
// For each output row i the reduction walks kk ascending, matching the
// serial kk-outer accumulation order element for element. Collecting the
// nonzero (kk, value) pairs up front also turns a's strided column reads
// into one pass instead of one per j-block.
func matMulTransARows(dst, a, b *Tensor, m, k, n, r0, r1 int) {
	nz := make([]int32, 0, k)
	avs := make([]float32, 0, k)
	for i := r0; i < r1; i++ {
		crow := dst.Data[i*n : (i+1)*n]
		for j := range crow {
			crow[j] = 0
		}
		nz, avs = nz[:0], avs[:0]
		for kk := 0; kk < k; kk++ {
			av := a.Data[kk*m+i]
			if av == 0 {
				continue
			}
			nz = append(nz, int32(kk))
			avs = append(avs, av)
		}
		for p := 0; p < len(nz); p += gemmPanelK {
			q := min(p+gemmPanelK, len(nz))
			gemmAxpyPanel(crow, nz[p:q], avs[p:q], b.Data, n)
		}
	}
}

// matMulTransBRows computes dst rows [r0, r1) of dst = a·bᵀ. Like
// matMulRows it collects each arow's nonzero (kk, value) pairs once, then
// takes four dot products per sweep of that list, kk ascending.
func matMulTransBRows(dst, a, b *Tensor, k, n, r0, r1 int) {
	nz := make([]int32, 0, k)
	avs := make([]float32, 0, k)
	for i := r0; i < r1; i++ {
		crow := dst.Data[i*n : (i+1)*n]
		nz, avs = nz[:0], avs[:0]
		for kk, av := range a.Data[i*k : (i+1)*k] {
			if av == 0 {
				continue
			}
			nz = append(nz, int32(kk))
			avs = append(avs, av)
		}
		avs := avs[:len(nz)] // lets the compiler drop avs[t]'s bounds check
		j := 0
		for ; j+4 <= n; j += 4 {
			b0 := b.Data[j*k : (j+1)*k]
			b1 := b.Data[(j+1)*k : (j+2)*k]
			b2 := b.Data[(j+2)*k : (j+3)*k]
			b3 := b.Data[(j+3)*k : (j+4)*k]
			var s0, s1, s2, s3 float32
			for t, kk := range nz {
				av := avs[t]
				s0 += av * b0[kk]
				s1 += av * b1[kk]
				s2 += av * b2[kk]
				s3 += av * b3[kk]
			}
			crow[j], crow[j+1], crow[j+2], crow[j+3] = s0, s1, s2, s3
		}
		for ; j < n; j++ {
			brow := b.Data[j*k : (j+1)*k]
			var s float32
			for t, kk := range nz {
				s += avs[t] * brow[kk]
			}
			crow[j] = s
		}
	}
}

// im2ColRows fills dst patch rows [r0, r1); row = (b*OutH + oy)*OutW + ox.
func im2ColRows(dst, x *Tensor, cs ConvShape, r0, r1 int) {
	chanStride := cs.InH * cs.InW
	itemStride := cs.InC * chanStride
	for row := r0; row < r1; row++ {
		b := row / cs.PatchesPerItem
		rem := row - b*cs.PatchesPerItem
		oy := rem / cs.OutW
		ox := rem - oy*cs.OutW
		base := b * itemStride
		dstRow := dst.Data[row*cs.K : (row+1)*cs.K]
		col := 0
		for c := 0; c < cs.InC; c++ {
			cbase := base + c*chanStride
			for ky := 0; ky < cs.KH; ky++ {
				iy := oy*cs.Stride + ky - cs.Pad
				for kx := 0; kx < cs.KW; kx++ {
					ix := ox*cs.Stride + kx - cs.Pad
					if iy >= 0 && iy < cs.InH && ix >= 0 && ix < cs.InW {
						dstRow[col] = x.Data[cbase+iy*cs.InW+ix]
					} else {
						dstRow[col] = 0
					}
					col++
				}
			}
		}
	}
}

// col2ImItems scatters patches of batch items [b0, b1) into dst. Patches
// of one item overlap, so the per-item scatter stays sequential (in the
// serial patch order); distinct items never overlap.
func col2ImItems(dst, cols *Tensor, cs ConvShape, b0, b1 int) {
	chanStride := cs.InH * cs.InW
	itemStride := cs.InC * chanStride
	for b := b0; b < b1; b++ {
		base := b * itemStride
		item := dst.Data[base : base+itemStride]
		for i := range item {
			item[i] = 0
		}
		row := b * cs.PatchesPerItem
		for oy := 0; oy < cs.OutH; oy++ {
			for ox := 0; ox < cs.OutW; ox++ {
				src := cols.Data[row*cs.K : (row+1)*cs.K]
				col := 0
				for c := 0; c < cs.InC; c++ {
					cbase := base + c*chanStride
					for ky := 0; ky < cs.KH; ky++ {
						iy := oy*cs.Stride + ky - cs.Pad
						for kx := 0; kx < cs.KW; kx++ {
							ix := ox*cs.Stride + kx - cs.Pad
							if iy >= 0 && iy < cs.InH && ix >= 0 && ix < cs.InW {
								dst.Data[cbase+iy*cs.InW+ix] += src[col]
							}
							col++
						}
					}
				}
				row++
			}
		}
	}
}

// addRange computes dst[lo:hi] += src[lo:hi].
func addRange(dst, src []float32, lo, hi int) {
	d, s := dst[lo:hi], src[lo:hi]
	for i, v := range s {
		d[i] += v
	}
}

// scaleRange computes data[lo:hi] *= s.
func scaleRange(data []float32, s float32, lo, hi int) {
	d := data[lo:hi]
	for i := range d {
		d[i] *= s
	}
}
