// Package mapping derives which logical network weights land on faulty
// processing elements of a systolic array, producing the prune masks that
// drive fault-aware pruning (FaP) and the FalVolt retraining pipeline.
//
// Under the weight-stationary dataflow (see internal/systolic), the weight
// w[m][k] of a layer lowered to a GEMM with M outputs and K reduction
// inputs is pre-stored in PE(k mod Rows, m mod Cols) for every tile that
// covers it. Because the array is reused across tiles — and across layers,
// timesteps and samples — bypassing one faulty PE prunes ⌈K/Rows⌉·⌈M/Cols⌉
// weights of every layer mapped onto it (paper §IV).
package mapping

import (
	"fmt"

	"falvolt/internal/faults"
	"falvolt/internal/tensor"
)

// PruneMask marks, for one layer's [M, K] weight matrix, the weights that
// map onto faulty PEs and must be pruned (set to zero, PE bypassed).
type PruneMask struct {
	M, K   int
	Pruned []bool // row-major [M*K]
}

// Derive computes the prune mask of an [m, k] weight matrix for the given
// fault map, using the same weight-stationary placement as the simulator.
func Derive(fm *faults.Map, m, k int) (*PruneMask, error) {
	if m <= 0 || k <= 0 {
		return nil, fmt.Errorf("mapping: invalid GEMM shape %dx%d", m, k)
	}
	if fm.Rows <= 0 || fm.Cols <= 0 {
		return nil, fmt.Errorf("mapping: invalid array %dx%d", fm.Rows, fm.Cols)
	}
	faultyPE := make([]bool, fm.Rows*fm.Cols)
	for _, f := range fm.Faults {
		faultyPE[f.Row*fm.Cols+f.Col] = true
	}
	// Precompute per-k faulty rows and per-m faulty columns once, then
	// combine; avoids the full M*K*faults scan.
	rowOf := make([]int, k)
	for ki := 0; ki < k; ki++ {
		rowOf[ki] = ki % fm.Rows
	}
	mask := &PruneMask{M: m, K: k, Pruned: make([]bool, m*k)}
	for mi := 0; mi < m; mi++ {
		col := mi % fm.Cols
		base := mi * k
		for ki := 0; ki < k; ki++ {
			if faultyPE[rowOf[ki]*fm.Cols+col] {
				mask.Pruned[base+ki] = true
			}
		}
	}
	return mask, nil
}

// Count returns the number of pruned weights.
func (p *PruneMask) Count() int {
	n := 0
	for _, b := range p.Pruned {
		if b {
			n++
		}
	}
	return n
}

// Apply zeroes the pruned entries of a weight tensor shaped [M, K]
// (Algorithm 1 lines 2 and 13: before retraining and at the end of every
// retraining epoch).
func (p *PruneMask) Apply(w *tensor.Tensor) {
	if w.Len() != len(p.Pruned) {
		panic(fmt.Sprintf("mapping: weight size %d does not match mask %dx%d", w.Len(), p.M, p.K))
	}
	for i, pr := range p.Pruned {
		if pr {
			w.Data[i] = 0
		}
	}
}
