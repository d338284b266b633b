package systolic

import (
	"fmt"
	"sync"
	"sync/atomic"

	"falvolt/internal/fixed"
	"falvolt/internal/tensor"
)

// The spike-sparse, row-major data plane. SNN spike trains are mostly
// zeros and the paper's multiplier-less PE either gates a weight into the
// accumulator or does nothing, so a healthy PE with no spike leaves the
// partial sum unchanged. Forward therefore takes its input as patch rows
// (tensor.Patches: each row's nonzero inputs, ascending) and cuts every
// row at the K-tile boundaries once per call (cost: the stored entries).
//
// Each patch row then runs through the array once per K-tile with a
// block of M accumulators, one per output column. Each stored input k
// adds one contiguous row of the K-major compiled weights (compile.go)
// into the whole block: the weights for a spike, their level products for
// a level input, or the quantized products of its value for any other
// analog input. The tile's inputs are merged with the special PEs (those
// that force accumulator bits or are bypassed) in row order, output
// column m sitting on PE column m%Cols: at a special row a bypassed
// column gets back its value from before the row's add, and a forced
// column takes its stuck bits after it, exactly where the hardware does.
// A tile with no special PE in reach is a straight sum.
//
// Every output word therefore sees the exact per-element sequence of a
// textbook column walk (the tests' scalar reference model): skipping a
// zero add is exact because AddSat(acc, 0) == AddWrap(acc, 0) == acc,
// skipping a healthy PE's forcing is exact because ForceBits(acc, 0, 0)
// == acc, and a special PE's forcing is never skipped. The contract —
// bit-identical outputs, Stats and spike counters across engines and
// worker counts — is what future SIMD backends must also satisfy.

// events is one Forward call's view of its input and of the array: the
// input's stored entries grouped by (batch row, K-tile), so per-tile
// fixed-point accumulation (and its saturation behaviour) is preserved
// exactly, and the special PEs the call's output columns meet. The
// entries stay in the input's own slices.
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
	// The call's special PEs by PE row, each PE column expanded to the
	// output columns it computes: force[foff[r]:foff[r+1]] force bits
	// on row r and byp[boff[r]:boff[r+1]] are the output columns
	// bypassed there. foff and boff have Rows+1 entries.
	force      []forcePE
	byp        []int32
	foff, boff []int32
}

// forcePE is output column col's PE on one special row: it forces the
// accumulator bits or high and clear low.
type forcePE struct {
	col       int32
	or, clear uint32
}

// expandSpecial fills ev's special-PE lists from the array's row-ordered
// special PEs for an M-column weight matrix on a rows x cols grid:
// output column m sits on PE column m%cols, so PE column j computes the
// output columns j, j+cols, ... below m.
func (ev *events) expandSpecial(special []specialPE, m, rows, cols int) {
	ev.force, ev.byp = ev.force[:0], ev.byp[:0]
	ev.foff, ev.boff = ev.foff[:0], ev.boff[:0]
	i := 0
	for r := int32(0); r < int32(rows); r++ {
		ev.foff = append(ev.foff, int32(len(ev.force)))
		ev.boff = append(ev.boff, int32(len(ev.byp)))
		for ; i < len(special) && special[i].row == r; i++ {
			s := special[i]
			for c := s.col; c < int32(m); c += int32(cols) {
				if s.bypass {
					ev.byp = append(ev.byp, c)
				} else {
					ev.force = append(ev.force, forcePE{col: c, or: s.or, clear: s.clear})
				}
			}
		}
	}
	ev.foff = append(ev.foff, int32(len(ev.force)))
	ev.boff = append(ev.boff, int32(len(ev.byp)))
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
// The pass is parallelized across patch rows on the array's engine: each
// row's block of M output words is produced by one worker, every word by
// one sequential chain of accumulations in the serial order, so results
// are bit-identical on every engine and — by the construction above — to
// the per-element column walk. Stats and spike counters are charged once
// per call. Concurrent Forward calls on one Array are safe; statistics
// and spike counters merge atomically.
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

	counting := binary && a.spikeCount != nil
	ev := buildEvents(x, rows, counting, !binary)
	tiles := w.tilesFor(a, !binary && ev.lvl == nil, ev.lvl != nil)
	ev.expandSpecial(a.special, w.M, rows, cols)
	p := rowPass{ev: ev, m: w.M, k: w.K, tile: rows, sat: a.cfg.Saturate,
		format: a.cfg.Format, scale: float32(w.Format.Scale())}
	switch {
	case binary:
		p.tab, p.stride = tiles.effT, 1
	case ev.lvl != nil:
		p.tab, p.stride = tiles.q4T, 4
	default:
		p.deqT = tiles.deqT
	}
	a.engine().For(b, func(r0, r1 int) { p.rows(y, r0, r1) })

	// Every tile of every patch row meets the same special PEs, so the
	// bypassed steps follow from the lists alone.
	var bypassed uint64
	for k0 := 0; k0 < w.K; k0 += rows {
		bypassed += uint64(ev.boff[min(rows, w.K-k0)])
	}
	bypassed *= uint64(b)
	atomic.AddUint64(&a.stats.Accumulations, uint64(b)*uint64(w.K)*uint64(w.M)-bypassed)
	if bypassed != 0 {
		atomic.AddUint64(&a.stats.BypassedSteps, bypassed)
	}
	if counting {
		// PE (r, j) sees row r's inputs once per output column on PE
		// column j.
		for j := 0; j < min(cols, w.M); j++ {
			n := uint64((w.M - j + cols - 1) / cols)
			for r, t := range ev.rowTotals {
				if t != 0 {
					atomic.AddUint64(&a.spikeCount[r*cols+j], t*n)
				}
			}
		}
	}

	ev.idx, ev.val, ev.lvl = nil, nil, nil
	eventPool.Put(ev)
	return y
}

// rowPass is one Forward call's row-major kernel: the cut input, the
// call's special PEs, the K-major weight rows the inputs select and the
// adder mode.
type rowPass struct {
	ev     *events
	m, k   int // output columns, reduction length
	tile   int // K-tile height: the array's Rows
	sat    bool
	format fixed.Format
	scale  float32
	tab    []fixed.Word // binary: effT (stride 1); level inputs: q4T (stride 4)
	stride int
	deqT   []float64 // any other analog input
}

// accBlock is one worker's accumulator block: a patch row's M column
// accumulators, their values before a bypassed row's add, and the
// per-tile column sums.
type accBlock struct {
	acc, prev []fixed.Word
	total     []int64
}

var accPool = sync.Pool{New: func() any { return new(accBlock) }}

// rows fills output rows [r0, r1) of y.
func (p *rowPass) rows(y *tensor.Tensor, r0, r1 int) {
	blk := accPool.Get().(*accBlock)
	acc, prev, total := grow(&blk.acc, p.m), grow(&blk.prev, p.m), grow(&blk.total, p.m)
	ev := p.ev
	numKTiles := (p.k + p.tile - 1) / p.tile
	for bi := r0; bi < r1; bi++ {
		clear(total)
		g := bi * numKTiles
		for k0 := 0; k0 < p.k; k0 += p.tile {
			lo, hi := ev.offs[g], ev.offs[g+1]
			g++
			clear(acc)
			n := min(p.tile, p.k-k0) // a ragged last tile ends early
			if ev.foff[n] == 0 && ev.boff[n] == 0 {
				p.add(acc, lo, hi) // no special PE in reach: a straight sum
			} else {
				p.special(acc, prev, lo, hi, k0, n)
			}
			for m, v := range acc {
				total[m] += int64(v)
			}
		}
		yrow := y.Data[bi*p.m : (bi+1)*p.m]
		for m, t := range total {
			yrow[m] = float32(t) * p.scale
		}
	}
	accPool.Put(blk)
}

// special accumulates the stored inputs [lo, hi) of one n-row K-tile
// starting at input k0 into acc, with the tile's special PEs. It walks
// the ascending inputs with a cursor fi over the row-ordered forcing
// PEs: before the input on PE row e adds, the PEs on the rows above e
// force their bits; at row e the bypassed columns keep their pre-sums
// (saved in prev) and the forcing PEs of row e act after the add.
func (p *rowPass) special(acc, prev []fixed.Word, lo, hi int32, k0, n int) {
	force, foff, byp, boff := p.ev.force, p.ev.foff, p.ev.byp, p.ev.boff
	fi := int32(0)
	for q := lo; q < hi; q++ {
		e := int(p.ev.idx[q]) - k0
		for ; fi < foff[e]; fi++ {
			s := &force[fi]
			acc[s.col] = fixed.ForceBits(acc[s.col], s.or, s.clear)
		}
		if b0, b1 := boff[e], boff[e+1]; b0 < b1 {
			bs := byp[b0:b1]
			for _, c := range bs {
				prev[c] = acc[c]
			}
			p.add(acc, q, q+1)
			for _, c := range bs {
				acc[c] = prev[c]
			}
		} else {
			p.add(acc, q, q+1)
		}
		for ; fi < foff[e+1]; fi++ {
			s := &force[fi]
			acc[s.col] = fixed.ForceBits(acc[s.col], s.or, s.clear)
		}
	}
	for ; fi < foff[n]; fi++ { // the rest of the tile
		s := &force[fi]
		acc[s.col] = fixed.ForceBits(acc[s.col], s.or, s.clear)
	}
}

// grow returns *s resized to n, reallocating only when it is too small.
func grow[T any](s *[]T, n int) []T {
	if cap(*s) < n {
		*s = make([]T, n)
	}
	return (*s)[:n]
}

// add adds the contributions of stored inputs [q0, q1) into the
// accumulator block: one weight row for each spike or level input, or
// the quantized products of any other analog input. Each input mode has
// its own loop, so no add branches on it.
func (p *rowPass) add(acc []fixed.Word, q0, q1 int32) {
	m, idx := p.m, p.ev.idx
	switch {
	case p.stride == 1:
		for q := q0; q < q1; q++ {
			o := int(idx[q]) * m
			addRow(acc, p.tab[o:o+m:o+m], p.sat)
		}
	case p.stride == 4:
		lvl := p.ev.lvl
		for q := q0; q < q1; q++ {
			o := (int(idx[q])*4 + int(lvl[q])) * m
			addRow(acc, p.tab[o:o+m:o+m], p.sat)
		}
	default:
		acc = acc[:m]
		for q := q0; q < q1; q++ {
			o := int(idx[q]) * m
			v := float64(p.ev.val[q])
			for j, d := range p.deqT[o : o+m : o+m] {
				add := p.format.Quantize(v * d)
				if p.sat {
					acc[j] = fixed.AddSat(acc[j], add)
				} else {
					acc[j] = fixed.AddWrap(acc[j], add)
				}
			}
		}
	}
}

// addRow adds the weight row w into the accumulator block acc.
func addRow(acc, w []fixed.Word, sat bool) {
	acc = acc[:len(w)]
	if sat {
		for j, v := range w {
			acc[j] = fixed.AddSat(acc[j], v)
		}
		return
	}
	for j, v := range w {
		acc[j] = fixed.AddWrap(acc[j], v)
	}
}
