package snn

import (
	"fmt"

	"falvolt/internal/fixed"
	"falvolt/internal/systolic"
	"falvolt/internal/tensor"
)

// Deployment transforms: the mitigation zoo interposes on the layer ->
// array seam without touching the array's datapath. A plain deployment
// (no permutations, no clamp) takes exactly the pre-transform code
// path, so existing campaigns stay bit-identical.

// install quantizes the layer's weights for the deployment, storing
// them slot-permuted when a fault-aware remap is set. Permuting the
// quantized words equals quantizing the permuted float matrix — the
// quantizer is per-element — so the remapped GEMM computes the same
// logical products on different PEs.
func (d *Deployment) install(w *tensor.Tensor) {
	q := systolic.QuantizeMatrix(w, d.Array.Config().Format)
	if d.MPerm == nil && d.KPerm == nil {
		d.weights = q
		return
	}
	if d.MPerm != nil && len(d.MPerm) != q.M {
		panic(fmt.Sprintf("snn: MPerm length %d does not match GEMM M=%d", len(d.MPerm), q.M))
	}
	if d.KPerm != nil && len(d.KPerm) != q.K {
		panic(fmt.Sprintf("snn: KPerm length %d does not match GEMM K=%d", len(d.KPerm), q.K))
	}
	words := make([]fixed.Word, len(q.Words))
	for j := 0; j < q.M; j++ {
		src := j
		if d.MPerm != nil {
			src = d.MPerm[j]
		}
		srow := q.Words[src*q.K : (src+1)*q.K]
		drow := words[j*q.K : (j+1)*q.K]
		if d.KPerm == nil {
			copy(drow, srow)
		} else {
			for i, ki := range d.KPerm {
				drow[i] = srow[ki]
			}
		}
	}
	d.weights = &systolic.Matrix{M: q.M, K: q.K, Words: words, Format: q.Format}
}

// forward runs the deployed GEMM on the layer's patch rows: move each
// input onto its remapped array row (in place: the caller owns x and
// discards it afterwards), stream through the array, unpermute the
// outputs, then apply the range restriction. All transforms are
// identities when unset. The result is a scratch tensor (see Layer).
func (d *Deployment) forward(x *tensor.Patches) *tensor.Tensor {
	if d.KPerm != nil {
		x.PermuteCols(d.KPerm)
	}
	y := d.Array.Forward(x, d.weights, d.Binary)
	if d.MPerm != nil {
		n, m := y.Shape[0], y.Shape[1]
		out := tensor.GetScratch(n, m)
		for b := 0; b < n; b++ {
			src := y.Data[b*m : (b+1)*m]
			dst := out.Data[b*m : (b+1)*m]
			for j, mj := range d.MPerm {
				dst[mj] = src[j]
			}
		}
		tensor.ReleaseScratch(y)
		y = out
	}
	if d.ClampLo != nil {
		n, m := y.Shape[0], y.Shape[1]
		for b := 0; b < n; b++ {
			row := y.Data[b*m : (b+1)*m]
			for i := range row {
				if row[i] < d.ClampLo[i] {
					row[i] = d.ClampLo[i]
				} else if row[i] > d.ClampHi[i] {
					row[i] = d.ClampHi[i]
				}
			}
		}
	}
	return y
}
