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
// does nothing, so a healthy PE with no spike leaves the partial sum
// unchanged. Forward therefore takes its input as patch rows
// (tensor.Patches: each row's nonzero inputs, ascending), cuts every row
// at the K-tile boundaries once per call (cost: the stored entries) and
// reuses the cut across all M output columns: every column iterates only
// over spikes. A column with no special row (a PE that forces
// accumulator bits or is bypassed) in reach takes a straight per-tile
// sum; any other column merges the spikes with its ascending special
// rows (colPass.walk), forcing bits and skipping bypassed PEs exactly
// where the hardware does. Weights come from precompiled tiles
// (compile.go), so no loop forces weight bits or round-trips through
// float64. An analog call whose stored inputs are all levels (0.25, 0.5,
// 0.75 or 1: an AvgPool2 of spikes, or event frames) reads each product
// from the tiles' per-weight level table, a load like the binary path's;
// any other analog call quantizes each product.
//
// Every path accumulates each output word in the exact per-element order
// of a textbook column walk (the tests' scalar reference model): skipping
// a zero add is exact because AddSat(acc, 0) == AddWrap(acc, 0) == acc,
// skipping a healthy PE's forcing is exact because ForceBits(acc, 0, 0)
// == acc, and a special row's forcing is never skipped. The contract —
// bit-identical outputs, Stats and spike counters across paths, engines
// and worker counts — is what future SIMD backends must also satisfy.

// events groups the input's stored entries by (batch row, K-tile), so
// per-tile fixed-point accumulation (and its saturation behaviour) is
// preserved exactly. The entries stay in the input's own slices.
type events struct {
	idx  []int32   // the input's Col: ascending k within each batch row
	val  []float32 // the input's Val, aligned with idx
	offs []int32   // len b*numKTiles+1; group g spans idx[offs[g]:offs[g+1]]
	// lvl[q] is the levelIndex of val[q] when every stored input of an
	// analog call is a level, else nil; lvlBuf keeps its storage pooled.
	lvl, lvlBuf []uint8
	// rowTotals[r] counts nonzero inputs landing on PE row r, summed over
	// the whole batch; built only when per-PE spike counting is on. Every
	// output column m receives exactly these counts at PE column m%Cols.
	rowTotals []uint64
}

var eventPool = sync.Pool{New: func() any { return new(events) }}

// buildEvents cuts every row of x at the tile boundaries (multiples of
// rows) and fills a pooled events value. For an analog call it also
// classifies the stored inputs as levels, once per call.
func buildEvents(x *tensor.Patches, rows int, wantTotals, analog bool) *events {
	ev := eventPool.Get().(*events)
	k := x.Shape.K
	ev.idx, ev.val = x.Col, x.Val
	ev.lvl = nil
	if analog {
		ev.lvlBuf = append(ev.lvlBuf[:0], make([]uint8, len(x.Val))...)
		ev.lvl = ev.lvlBuf
		for q, v := range x.Val {
			l := levelIndex(v)
			if l < 0 {
				ev.lvl = nil
				break
			}
			ev.lvl[q] = uint8(l)
		}
	}
	ev.offs = append(ev.offs[:0], 0)
	if wantTotals {
		if cap(ev.rowTotals) < rows {
			ev.rowTotals = make([]uint64, rows)
		}
		ev.rowTotals = ev.rowTotals[:rows]
		clear(ev.rowTotals)
	} else {
		ev.rowTotals = nil
	}
	for bi := 0; bi < x.Rows(); bi++ {
		q, end := x.RowPtr[bi], x.RowPtr[bi+1]
		for k0 := 0; k0 < k; k0 += rows {
			k1 := int32(min(k0+rows, k))
			for ; q < end && x.Col[q] < k1; q++ {
				if wantTotals {
					ev.rowTotals[int(x.Col[q])-k0]++
				}
			}
			ev.offs = append(ev.offs, int32(q))
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
// [B, K] inputs held as B patch rows (tensor.Im2Patches for a conv,
// tensor.RowPatches for a dense matrix), W is a quantized [M, K] matrix,
// and the result is a float [B, M] tensor dequantized from the
// fixed-point column sums. The result comes from the scratch pool
// (tensor.GetScratch); the caller may release it when it is dead.
//
// If binary is true, X is treated as spikes: any stored (non-zero) entry
// gates the weight into the accumulator (the paper's multiplier-less PE). If false,
// each contribution is the quantized product w*x (used for the analog
// encoder layer and the layers fed by AvgPool2; same accumulator
// datapath, same fault exposure).
//
// The pass is parallelized across output columns on the array's engine:
// each output word y[b][m] is still produced by one sequential chain of
// accumulations in the serial order, so results (and all statistics) are
// bit-identical on every engine, and — by the event-list construction
// above — to the per-element column walk. Concurrent Forward calls on one
// Array are safe; statistics and spike counters merge atomically.
func (a *Array) Forward(x *tensor.Patches, w *Matrix, binary bool) *tensor.Tensor {
	if x.Shape.K != w.K {
		panic(fmt.Sprintf("systolic: input K %d != weight K %d", x.Shape.K, w.K))
	}
	b := x.Rows()
	y := tensor.GetScratch(b, w.M) // every element is written below
	rows, cols := a.cfg.Rows, a.cfg.Cols
	numKTiles := (w.K + rows - 1) / rows
	numMTiles := (w.M + cols - 1) / cols
	atomic.AddUint64(&a.stats.TilePasses, uint64(numKTiles*numMTiles))
	atomic.AddUint64(&a.stats.MACCycles, uint64(numKTiles*numMTiles)*uint64(rows+cols+b-2))

	scale := float32(w.Format.Scale())
	format := a.cfg.Format
	sat := a.cfg.Saturate
	counting := binary && a.spikeCount != nil
	ev := buildEvents(x, rows, counting, !binary)
	tiles := w.tilesFor(a, !binary && ev.lvl == nil, ev.lvl != nil)

	// Only PE rows < usedRows ever see an input: tiles are Rows-aligned,
	// so a K smaller than the grid leaves the bottom rows idle and their
	// faults unreachable. A column takes the straight sum iff no special
	// row is reachable.
	usedRows := int32(min(rows, w.K))

	a.engine().For(w.M, func(m0, m1 int) {
		var ps passStats
		var spikes *[]uint64
		if counting {
			spikes = getSpikeBuf(rows * cols)
		}
		for m := m0; m < m1; m++ {
			j := m % cols
			weff := tiles.eff[m*w.K : (m+1)*w.K]
			var deq []float64
			var q4 []fixed.Word
			switch {
			case ev.lvl != nil:
				q4 = tiles.lvl[m*w.K*4 : (m+1)*w.K*4]
			case !binary:
				deq = tiles.deq[m*w.K : (m+1)*w.K]
			}
			switch sp := a.colSpecial(j); {
			case sp[0].row < usedRows:
				c := colPass{weff: weff, deq: deq, q4: q4, format: format, binary: binary, sat: sat, scale: scale}
				c.walk(y, ev, sp, b, w.K, rows, m, &ps)
			case binary:
				fastBinaryColumn(y, ev, weff, b, numKTiles, m, w.M, scale, sat)
				ps.accumulations += uint64(b) * uint64(w.K)
			case q4 != nil:
				fastLevelColumn(y, ev, q4, b, numKTiles, m, w.M, scale, sat)
				ps.accumulations += uint64(b) * uint64(w.K)
			default:
				fastAnalogColumn(y, ev, deq, b, numKTiles, m, w.M, scale, format, sat)
				ps.accumulations += uint64(b) * uint64(w.K)
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

	ev.idx, ev.val, ev.lvl = nil, nil, nil
	eventPool.Put(ev)
	return y
}

// fastBinaryColumn fills output column m for a PE column with no
// reachable special row: per (batch row, tile), a straight sum of the
// weights at spike positions — no per-element branches at all.
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

// fastLevelColumn is fastBinaryColumn for an analog call whose inputs
// are all levels: each stored input contributes its weight's quantized
// product with its level, read from the column's level table q4.
func fastLevelColumn(y *tensor.Tensor, ev *events, q4 []fixed.Word, b, numKTiles, m, mDim int, scale float32, sat bool) {
	for bi := 0; bi < b; bi++ {
		base := bi * numKTiles
		var total int64
		for kt := 0; kt < numKTiles; kt++ {
			var acc fixed.Word
			lo, hi := ev.offs[base+kt], ev.offs[base+kt+1]
			lv := ev.lvl[lo:hi]
			if sat {
				for q, kk := range ev.idx[lo:hi] {
					acc = fixed.AddSat(acc, q4[int(kk)*4+int(lv[q])])
				}
			} else {
				for q, kk := range ev.idx[lo:hi] {
					acc = fixed.AddWrap(acc, q4[int(kk)*4+int(lv[q])])
				}
			}
			total += int64(acc)
		}
		y.Data[bi*mDim+m] = float32(total) * scale
	}
}

// fastAnalogColumn is fastBinaryColumn for any other analog call (the
// MNIST encoder's pixels, say): each stored input contributes the
// quantized product of its value and the pre-dequantized effective
// weight.
func fastAnalogColumn(y *tensor.Tensor, ev *events, deq []float64, b, numKTiles, m, mDim int, scale float32, format fixed.Format, sat bool) {
	for bi := 0; bi < b; bi++ {
		base := bi * numKTiles
		var total int64
		for kt := 0; kt < numKTiles; kt++ {
			var acc fixed.Word
			lo, hi := ev.offs[base+kt], ev.offs[base+kt+1]
			vals := ev.val[lo:hi]
			for q, kk := range ev.idx[lo:hi] {
				add := format.Quantize(float64(vals[q]) * deq[kk])
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

// colPass is one output column's pass over a column with reachable
// special rows: its compiled weights (binary), their level table (level
// inputs) or their dequantized values (other analog), and the adder mode.
type colPass struct {
	weff        []fixed.Word
	deq         []float64
	q4          []fixed.Word // the column's level table; nil unless every input is a level
	vals        []float32    // the current group's input values (analog)
	lv          []uint8      // the current group's level indices (level inputs)
	format      fixed.Format
	binary, sat bool
	scale       float32
}

// walk fills output column m. Per (batch row, K-tile) it merges the
// tile's ascending spike list with the column's ascending special rows
// sp: between special rows only spikes add; at a special row a bypassed
// PE drops its spike and passes the pre-sum on, and any other PE adds
// its spike and then forces its stuck bits. Bypassed steps are counted
// per tile; every other step is an accumulation.
func (c *colPass) walk(y *tensor.Tensor, ev *events, sp []specialPE, b, kDim, rows, m int, ps *passStats) {
	mDim := y.Shape[1]
	var bypassed uint64
	g := 0 // event group (batch row, tile)
	for bi := 0; bi < b; bi++ {
		var total int64
		for k0 := 0; k0 < kDim; k0 += rows {
			end := int32(min(k0+rows, kDim))
			evs := ev.idx[ev.offs[g]:ev.offs[g+1]]
			c.vals = ev.val[ev.offs[g]:ev.offs[g+1]]
			if c.q4 != nil {
				c.lv = ev.lvl[ev.offs[g]:ev.offs[g+1]]
			}
			g++
			var acc fixed.Word
			i := 0 // next event
			for si := range sp {
				s := &sp[si]
				r := int32(k0) + s.row
				if r >= end {
					break // the sentinel, or a row past a ragged last tile
				}
				acc, i = c.span(acc, evs, i, r)
				if s.bypass {
					bypassed++
					if i < len(evs) && evs[i] == r {
						i++
					}
					continue
				}
				acc, i = c.span(acc, evs, i, r+1)
				acc = fixed.ForceBits(acc, s.or, s.clear)
			}
			acc, _ = c.span(acc, evs, i, end)
			total += int64(acc)
		}
		y.Data[bi*mDim+m] = float32(total) * c.scale
	}
	ps.bypassedSteps += bypassed
	ps.accumulations += uint64(b)*uint64(kDim) - bypassed
}

// span adds to acc the contributions of the events evs[i:] that lie
// below input index limit, and returns the new accumulator with the
// index of the first event it left. Each input mode × adder mode has its
// own loop, so no add branches on either.
func (c *colPass) span(acc fixed.Word, evs []int32, i int, limit int32) (fixed.Word, int) {
	switch {
	case c.binary && c.sat:
		for ; i < len(evs) && evs[i] < limit; i++ {
			acc = fixed.AddSat(acc, c.weff[evs[i]])
		}
	case c.binary:
		for ; i < len(evs) && evs[i] < limit; i++ {
			acc = fixed.AddWrap(acc, c.weff[evs[i]])
		}
	case c.q4 != nil && c.sat:
		for ; i < len(evs) && evs[i] < limit; i++ {
			acc = fixed.AddSat(acc, c.q4[int(evs[i])*4+int(c.lv[i])])
		}
	case c.q4 != nil:
		for ; i < len(evs) && evs[i] < limit; i++ {
			acc = fixed.AddWrap(acc, c.q4[int(evs[i])*4+int(c.lv[i])])
		}
	case c.sat:
		for ; i < len(evs) && evs[i] < limit; i++ {
			acc = fixed.AddSat(acc, c.format.Quantize(float64(c.vals[i])*c.deq[evs[i]]))
		}
	default:
		for ; i < len(evs) && evs[i] < limit; i++ {
			acc = fixed.AddWrap(acc, c.format.Quantize(float64(c.vals[i])*c.deq[evs[i]]))
		}
	}
	return acc, i
}
