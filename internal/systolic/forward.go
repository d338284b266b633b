package systolic

import (
	"fmt"
	"sync"
	"sync/atomic"

	"falvolt/internal/fixed"
	"falvolt/internal/tensor"
)

// The spike-sparse data plane. SNN spike trains are mostly zeros and the
// paper's multiplier-less PE either gates a weight into the accumulator or
// does nothing, so a fault-free, bypass-free column's pass is fully
// determined by the nonzero input positions. Forward therefore builds a
// CSR event list over the input once per call (cost B×K) and reuses it
// across all M output columns: clean columns iterate only over spikes.
// Columns holding a faulty or bypassed PE keep a slow path that walks
// every PE — stuck-bit forcing applies on every accumulation step and
// bypass skips must be counted — but on column-contiguous fault state and
// precompiled weights (compile.go), with no modulo, no per-element weight
// forcing and no float64 round-trip in the loop.
//
// Every path accumulates each output word in the exact per-element order
// of a textbook column walk (the tests' scalar reference model): skipping
// a zero add is exact because AddSat(acc, 0) == AddWrap(acc, 0) == acc,
// and stuck-bit forcing of faulty PEs is never skipped. The contract — bit-identical outputs,
// Stats and spike counters across paths, engines and worker counts — is
// what future SIMD backends must also satisfy.

// events is a per-call CSR index of the nonzero input entries, grouped by
// (batch row, K-tile) so per-tile fixed-point accumulation (and its
// saturation behaviour) is preserved exactly.
type events struct {
	idx  []int32 // ascending k of nonzero x entries, grouped by (bi, tile)
	offs []int32 // len b*numKTiles+1; group g spans idx[offs[g]:offs[g+1]]
	// rowTotals[r] counts nonzero inputs landing on PE row r, summed over
	// the whole batch; built only when per-PE spike counting is on. Every
	// output column m receives exactly these counts at PE column m%Cols.
	rowTotals []uint64
}

var eventPool = sync.Pool{New: func() any { return new(events) }}

// buildEvents scans x ([b, k]) once and fills a pooled events value.
func buildEvents(x *tensor.Tensor, k, rows int, wantTotals bool) *events {
	ev := eventPool.Get().(*events)
	b := x.Shape[0]
	ev.idx = ev.idx[:0]
	ev.offs = ev.offs[:0]
	ev.offs = append(ev.offs, 0)
	if wantTotals {
		if cap(ev.rowTotals) < rows {
			ev.rowTotals = make([]uint64, rows)
		}
		ev.rowTotals = ev.rowTotals[:rows]
		clear(ev.rowTotals)
	} else {
		ev.rowTotals = nil
	}
	for bi := 0; bi < b; bi++ {
		xrow := x.Data[bi*k : (bi+1)*k]
		for k0 := 0; k0 < k; k0 += rows {
			k1 := min(k0+rows, k)
			for kk := k0; kk < k1; kk++ {
				if xrow[kk] != 0 {
					ev.idx = append(ev.idx, int32(kk))
					if wantTotals {
						ev.rowTotals[kk-k0]++
					}
				}
			}
			ev.offs = append(ev.offs, int32(len(ev.idx)))
		}
	}
	return ev
}

// spikeBufPool recycles per-chunk spike-counter buffers (satellite of the
// sparse plane: one buffered merge per chunk replaces an atomic add per
// spiking element).
var spikeBufPool = sync.Pool{New: func() any { return new([]uint64) }}

func getSpikeBuf(n int) *[]uint64 {
	p := spikeBufPool.Get().(*[]uint64)
	if cap(*p) < n {
		*p = make([]uint64, n)
	}
	*p = (*p)[:n]
	clear(*p)
	return p
}

// Forward computes Y = X · Wᵀ on the (possibly faulty) array: X is
// [B, K] inputs, W is a quantized [M, K] matrix, and the result is a
// float [B, M] tensor dequantized from the fixed-point column sums.
//
// If binary is true, X is treated as spikes: any non-zero entry gates the
// weight into the accumulator (the paper's multiplier-less PE). If false,
// each contribution is the quantized product w*x (used for the analog
// encoder layer; same accumulator datapath, same fault exposure).
//
// The pass is parallelized across output columns on the array's engine:
// each output word y[b][m] is still produced by one sequential chain of
// accumulations in the serial order, so results (and all statistics) are
// bit-identical on every engine, and — by the event-list construction
// above — to the per-element column walk. Concurrent Forward calls on one
// Array are safe; statistics and spike counters merge atomically.
func (a *Array) Forward(x *tensor.Tensor, w *Matrix, binary bool) *tensor.Tensor {
	if x.Rank() != 2 {
		panic("systolic: Forward requires rank-2 input")
	}
	if x.Shape[1] != w.K {
		panic(fmt.Sprintf("systolic: input K %d != weight K %d", x.Shape[1], w.K))
	}
	b := x.Shape[0]
	y := tensor.New(b, w.M)
	rows, cols := a.cfg.Rows, a.cfg.Cols
	numKTiles := (w.K + rows - 1) / rows
	numMTiles := (w.M + cols - 1) / cols
	atomic.AddUint64(&a.stats.TilePasses, uint64(numKTiles*numMTiles))
	atomic.AddUint64(&a.stats.MACCycles, uint64(numKTiles*numMTiles)*uint64(rows+cols+b-2))

	scale := float32(w.Format.Scale())
	format := a.cfg.Format
	sat := a.cfg.Saturate
	tiles := w.tilesFor(a, !binary)

	// Only PE rows < usedRows ever see an input: tiles are Rows-aligned,
	// so a K smaller than the grid leaves the bottom rows idle and their
	// faults unreachable. Column fast-path eligibility considers only
	// reachable PEs.
	usedRows := min(rows, w.K)
	fast := make([]bool, cols)
	anyFast := false
	usedCols := min(cols, w.M)
	for j := 0; j < usedCols; j++ {
		f := true
		if usedRows == rows {
			f = a.colClean[j] && !a.colBypassed[j]
		} else {
			for _, flt := range a.faultyT[j*rows : j*rows+usedRows] {
				if flt {
					f = false
					break
				}
			}
		}
		fast[j] = f
		anyFast = anyFast || f
	}

	counting := binary && a.spikeCount != nil
	var ev *events
	if anyFast || counting {
		ev = buildEvents(x, w.K, rows, counting)
	}

	a.engine().For(w.M, func(m0, m1 int) {
		var ps passStats
		var spikes *[]uint64
		if counting {
			spikes = getSpikeBuf(rows * cols)
		}
		for m := m0; m < m1; m++ {
			j := m % cols
			weff := tiles.eff[m*w.K : (m+1)*w.K]
			if fast[j] {
				if binary {
					fastBinaryColumn(y, ev, weff, x.Shape[0], numKTiles, m, w.M, scale, sat)
				} else {
					fastAnalogColumn(y, ev, x, tiles.deq[m*w.K:(m+1)*w.K], numKTiles, m, w.M, w.K, scale, format, sat)
				}
				ps.accumulations += uint64(b) * uint64(w.K)
			} else {
				a.slowColumn(y, x, weff, tiles.deq, m, j, w.M, w.K, scale, binary, &ps)
			}
			if counting {
				buf := *spikes
				for r, t := range ev.rowTotals[:usedRows] {
					if t != 0 {
						buf[r*cols+j] += t
					}
				}
			}
		}
		ps.mergeInto(&a.stats)
		if counting {
			for i, v := range *spikes {
				if v != 0 {
					atomic.AddUint64(&a.spikeCount[i], v)
				}
			}
			spikeBufPool.Put(spikes)
		}
	})

	if ev != nil {
		eventPool.Put(ev)
	}
	return y
}

// fastBinaryColumn fills output column m for a fault-free, bypass-free PE
// column: per (batch row, tile), a straight sum of the weights at spike
// positions — no per-element branches at all.
func fastBinaryColumn(y *tensor.Tensor, ev *events, weff []fixed.Word, b, numKTiles, m, mDim int, scale float32, sat bool) {
	if sat {
		for bi := 0; bi < b; bi++ {
			base := bi * numKTiles
			var total int64
			for kt := 0; kt < numKTiles; kt++ {
				var acc fixed.Word
				for _, kk := range ev.idx[ev.offs[base+kt]:ev.offs[base+kt+1]] {
					acc = fixed.AddSat(acc, weff[kk])
				}
				total += int64(acc)
			}
			y.Data[bi*mDim+m] = float32(total) * scale
		}
		return
	}
	for bi := 0; bi < b; bi++ {
		base := bi * numKTiles
		var total int64
		for kt := 0; kt < numKTiles; kt++ {
			var acc fixed.Word
			for _, kk := range ev.idx[ev.offs[base+kt]:ev.offs[base+kt+1]] {
				acc = fixed.AddWrap(acc, weff[kk])
			}
			total += int64(acc)
		}
		y.Data[bi*mDim+m] = float32(total) * scale
	}
}

// fastAnalogColumn is fastBinaryColumn for the analog encoder path: each
// spike contributes the quantized product of the input and the
// pre-dequantized effective weight.
func fastAnalogColumn(y *tensor.Tensor, ev *events, x *tensor.Tensor, deq []float64, numKTiles, m, mDim, kDim int, scale float32, format fixed.Format, sat bool) {
	b := x.Shape[0]
	for bi := 0; bi < b; bi++ {
		xrow := x.Data[bi*kDim : (bi+1)*kDim]
		base := bi * numKTiles
		var total int64
		for kt := 0; kt < numKTiles; kt++ {
			var acc fixed.Word
			for _, kk := range ev.idx[ev.offs[base+kt]:ev.offs[base+kt+1]] {
				add := format.Quantize(float64(xrow[kk]) * deq[kk])
				if sat {
					acc = fixed.AddSat(acc, add)
				} else {
					acc = fixed.AddWrap(acc, add)
				}
			}
			total += int64(acc)
		}
		y.Data[bi*mDim+m] = float32(total) * scale
	}
}

// slowColumn fills output column m for a PE column holding at least one
// faulty or bypassed PE. It walks every PE — stuck-bit forcing corrupts
// the accumulator on every step, spiking or not, and bypassed steps must
// be counted — but against column-contiguous fault state and precompiled
// weights, with the tile-local index doubling as the PE row. Two exact
// identities keep the walk branch-light: a no-spike step adds zero
// (AddSat(acc, 0) == AddWrap(acc, 0) == acc, so the spike gate becomes a
// conditional move), and a healthy PE's force masks are zero
// (ForceBits(acc, 0, 0) == acc, so forcing applies unconditionally).
func (a *Array) slowColumn(y, x *tensor.Tensor, weff []fixed.Word, deq []float64, m, j, mDim, kDim int, scale float32, binary bool, ps *passStats) {
	rows := a.cfg.Rows
	format := a.cfg.Format
	sat := a.cfg.Saturate
	base := j * rows
	byp := a.bypT[base : base+rows]
	orM := a.orT[base : base+rows]
	clM := a.clearT[base : base+rows]
	var deqrow []float64
	if !binary {
		deqrow = deq[m*kDim : (m+1)*kDim]
	}
	b := x.Shape[0]
	for bi := 0; bi < b; bi++ {
		xrow := x.Data[bi*kDim : (bi+1)*kDim]
		var total int64
		var bypassed uint64
		var steps uint64
		for k0 := 0; k0 < kDim; k0 += rows {
			k1 := k0 + rows
			if k1 > kDim {
				k1 = kDim
			}
			xs := xrow[k0:k1]
			steps += uint64(len(xs))
			var acc fixed.Word
			switch {
			case binary && sat:
				ws := weff[k0:k1]
				for i, xv := range xs {
					if byp[i] {
						bypassed++
						continue // pre-sum routed around the PE unchanged
					}
					wv := ws[i]
					if xv == 0 {
						wv = 0
					}
					acc = fixed.AddSat(acc, wv)
					acc = fixed.ForceBits(acc, orM[i], clM[i])
				}
			case binary:
				ws := weff[k0:k1]
				for i, xv := range xs {
					if byp[i] {
						bypassed++
						continue
					}
					wv := ws[i]
					if xv == 0 {
						wv = 0
					}
					acc = fixed.AddWrap(acc, wv)
					acc = fixed.ForceBits(acc, orM[i], clM[i])
				}
			default:
				dq := deqrow[k0:k1]
				for i, xv := range xs {
					if byp[i] {
						bypassed++
						continue
					}
					var add fixed.Word
					if xv != 0 {
						add = format.Quantize(float64(xv) * dq[i])
					}
					if sat {
						acc = fixed.AddSat(acc, add)
					} else {
						acc = fixed.AddWrap(acc, add)
					}
					acc = fixed.ForceBits(acc, orM[i], clM[i])
				}
			}
			total += int64(acc)
		}
		ps.bypassedSteps += bypassed
		ps.accumulations += steps - bypassed
		y.Data[bi*mDim+m] = float32(total) * scale
	}
}
