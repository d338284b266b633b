// Package systolic is a functional simulator of an NxN systolic-array SNN
// accelerator ("systolicSNN") as described in the paper: a dense grid of
// processing elements (PEs), each a fixed-point adder–subtractor plus
// accumulator register and internal spike counter (Fig. 3a). Binary input
// spikes stream across rows; filter weights are pre-stored in the PEs
// (weight-stationary); partial sums flow down columns.
//
// Permanent stuck-at faults are injected on single output bits of PE
// accumulator registers and corrupt every accumulation step of every tile
// pass — the array is reused across layers, timesteps and samples, so a
// single fault recurs constantly. A bypass multiplexer (Fig. 3b) can route
// the incoming partial sum around a faulty PE, which skips its weight's
// contribution (equivalent to pruning that weight) and stops the
// corruption.
package systolic

import (
	"fmt"
	"sync"
	"sync/atomic"

	"falvolt/internal/faults"
	"falvolt/internal/fixed"
	"falvolt/internal/tensor"
)

// Config describes an accelerator instance.
type Config struct {
	// Rows, Cols give the PE grid extent (paper default 256x256).
	Rows, Cols int
	// Format is the fixed-point encoding of weights and accumulators.
	Format fixed.Format
	// Saturate selects a saturating adder; false gives two's-complement
	// wraparound (a plain binary adder).
	Saturate bool
	// CountSpikes enables the per-PE internal spike counters (costs time).
	CountSpikes bool
	// Engine is the compute backend Forward fans out on (nil selects
	// tensor.Default()). Results are bit-identical on every engine; only
	// wall-clock changes.
	Engine tensor.Backend
}

// Array is a systolic accelerator with optional injected faults: a
// permanent stuck-at map, weight-SRAM bit-flips, and/or a transient
// soft-error schedule (see the faults package for the three models).
// The zero value is not usable; construct with New.
type Array struct {
	cfg Config

	// Permanent accumulator stuck bits (from the injected fault map),
	// indexed row*Cols+col.
	pOr    []uint32
	pClear []uint32

	// Per-PE weight-register fault state: stuck bits in the pre-stored
	// filter word rather than the accumulator output. An extension to the
	// paper's model — both registers exist in the Fig. 3a datapath.
	wOrMask    []uint32
	wClearMask []uint32
	wFaulty    []bool

	bypassOn bool
	// bypMask optionally programs bypass muxes per PE (row-major):
	// independent of the global bypassOn switch, a permanently faulty PE
	// with its mask entry set is bypassed. RescueSNN-style selective
	// bypass engages only the PEs whose faults are worth pruning.
	bypMask []bool
	fmap    *faults.Map
	wmap    *faults.Map

	// Weight-SRAM bit-flips (faults.BitFlipModel): applied to stored
	// words on the compiled-tile path (compile.go).
	mem *faults.MemoryFaults

	// Transient soft-error schedule (faults.TransientModel) and the
	// current inference timestep it is evaluated at; tOr/tClear are the
	// scratch masks ActiveMasks fills on each SetTimestep.
	transient   *faults.TransientSchedule
	step        int
	tOr, tClear []uint32

	// The EFFECTIVE accumulator fault state at the current timestep, as
	// the datapath reads it: the special PEs — those that force
	// accumulator bits (permanent plus active transient) or are
	// bypassed — in row-major order (row ascending, then column). Every
	// other PE is healthy as far as the accumulator is concerned:
	// weight-register faults are compiled into the weights (compile.go).
	special []specialPE

	// gen counts fault-state changes (InjectFaults, InjectWeightFaults,
	// InjectMemoryFaults, InjectTransient, ClearFaults, SetBypass).
	// Compiled weight tiles cache against it. SetTimestep deliberately
	// does NOT bump it: transient strikes hit accumulator outputs only,
	// never the stored weights, so tiles stay valid across timesteps.
	gen atomic.Uint64

	// Internal spike counters (one per PE), active when cfg.CountSpikes.
	spikeCount []uint64

	stats Stats
}

// Stats aggregates datapath activity for cycle/energy reporting.
type Stats struct {
	// Accumulations is the number of adder operations performed.
	Accumulations uint64
	// BypassedSteps counts partial sums routed around faulty PEs.
	BypassedSteps uint64
	// TilePasses counts (K-tile, M-tile) array configurations streamed.
	TilePasses uint64
	// MACCycles estimates pipelined systolic cycles: per tile pass over a
	// batch of B vectors, Rows+Cols+B-2 beats.
	MACCycles uint64
}

// New constructs an array; the configuration is validated once here so the
// hot loops can assume it is sound.
func New(cfg Config) (*Array, error) {
	if cfg.Rows <= 0 || cfg.Cols <= 0 {
		return nil, fmt.Errorf("systolic: invalid grid %dx%d", cfg.Rows, cfg.Cols)
	}
	if !cfg.Format.Valid() {
		return nil, fmt.Errorf("systolic: invalid fixed-point format %v", cfg.Format)
	}
	n := cfg.Rows * cfg.Cols
	a := &Array{
		cfg:        cfg,
		pOr:        make([]uint32, n),
		pClear:     make([]uint32, n),
		wOrMask:    make([]uint32, n),
		wClearMask: make([]uint32, n),
		wFaulty:    make([]bool, n),
	}
	if cfg.CountSpikes {
		a.spikeCount = make([]uint64, n)
	}
	a.refresh()
	return a, nil
}

// Array satisfies the model-driven injection surface.
var _ faults.Target = (*Array)(nil)

// Config returns the array configuration.
func (a *Array) Config() Config { return a.cfg }

// SetEngine overrides the compute backend used by Forward (nil restores
// tensor.Default()).
func (a *Array) SetEngine(e tensor.Backend) { a.cfg.Engine = e }

func (a *Array) engine() tensor.Backend {
	if a.cfg.Engine != nil {
		return a.cfg.Engine
	}
	return tensor.Default()
}

// Stats returns a copy of the accumulated datapath statistics. The read
// is atomic per counter, so polling while Forward calls are in flight is
// safe (each counter is exact; the set is a momentary snapshot).
func (a *Array) Stats() Stats {
	return Stats{
		Accumulations: atomic.LoadUint64(&a.stats.Accumulations),
		BypassedSteps: atomic.LoadUint64(&a.stats.BypassedSteps),
		TilePasses:    atomic.LoadUint64(&a.stats.TilePasses),
		MACCycles:     atomic.LoadUint64(&a.stats.MACCycles),
	}
}

// ResetStats zeroes the datapath statistics.
func (a *Array) ResetStats() {
	atomic.StoreUint64(&a.stats.Accumulations, 0)
	atomic.StoreUint64(&a.stats.BypassedSteps, 0)
	atomic.StoreUint64(&a.stats.TilePasses, 0)
	atomic.StoreUint64(&a.stats.MACCycles, 0)
}

// FaultMap returns the currently injected fault map (nil if fault-free).
func (a *Array) FaultMap() *faults.Map { return a.fmap }

// InjectFaults installs an accumulator-output fault map, replacing any
// previous accumulator faults (weight-register faults are kept; use
// ClearFaults to remove everything). The map's dimensions must match the
// array.
func (a *Array) InjectFaults(m *faults.Map) error {
	if m.Rows != a.cfg.Rows || m.Cols != a.cfg.Cols {
		return fmt.Errorf("systolic: fault map %dx%d does not match array %dx%d",
			m.Rows, m.Cols, a.cfg.Rows, a.cfg.Cols)
	}
	a.fmap = m.Clone()
	or, clear := m.Masks()
	copy(a.pOr, or)
	copy(a.pClear, clear)
	a.refresh()
	return nil
}

// InjectWeightFaults installs stuck bits on PE weight registers (the
// pre-stored filter words) instead of accumulator outputs. Accumulator
// faults, if any, are kept; call ClearFaults to remove both kinds.
// A PE with a faulty weight register counts as faulty for bypass.
func (a *Array) InjectWeightFaults(m *faults.Map) error {
	if m.Rows != a.cfg.Rows || m.Cols != a.cfg.Cols {
		return fmt.Errorf("systolic: weight fault map %dx%d does not match array %dx%d",
			m.Rows, m.Cols, a.cfg.Rows, a.cfg.Cols)
	}
	a.wmap = m.Clone()
	or, clear := m.Masks()
	copy(a.wOrMask, or)
	copy(a.wClearMask, clear)
	for i := range a.wFaulty {
		a.wFaulty[i] = or[i] != 0 || clear[i] != 0
	}
	a.refresh()
	return nil
}

// WeightFaultMap returns the injected weight-register fault map, if any.
func (a *Array) WeightFaultMap() *faults.Map { return a.wmap }

// InjectMemoryFaults installs weight-SRAM bit-flips: every stored
// weight word is read through the instance's per-(word, bit) flip
// decisions. Flips are applied where the accelerator actually stores
// weights — the compiled-tile path — replacing any previous memory
// faults. Other fault classes are kept; use ClearFaults to remove
// everything.
func (a *Array) InjectMemoryFaults(m *faults.MemoryFaults) error {
	if err := m.Validate(); err != nil {
		return err
	}
	a.mem = m.Clone()
	a.refresh()
	return nil
}

// MemoryFaults returns the injected weight-SRAM flip instance, if any.
func (a *Array) MemoryFaults() *faults.MemoryFaults { return a.mem }

// InjectTransient installs a soft-error strike schedule and rewinds the
// array to timestep 0. Strikes corrupt accumulator outputs only while
// active at the current timestep (see SetTimestep); they are not
// bypassable — post-fab testing cannot see them, so the bypass mux is
// never programmed around them. The schedule's dimensions must match
// the array. Other fault classes are kept; ClearFaults removes all.
func (a *Array) InjectTransient(s *faults.TransientSchedule) error {
	if s.Rows != a.cfg.Rows || s.Cols != a.cfg.Cols {
		return fmt.Errorf("systolic: transient schedule %dx%d does not match array %dx%d",
			s.Rows, s.Cols, a.cfg.Rows, a.cfg.Cols)
	}
	if err := s.Validate(); err != nil {
		return err
	}
	a.transient = s.Clone()
	a.step = 0
	if a.tOr == nil {
		n := a.cfg.Rows * a.cfg.Cols
		a.tOr = make([]uint32, n)
		a.tClear = make([]uint32, n)
	}
	a.refresh()
	return nil
}

// Transient returns the injected soft-error schedule, if any.
func (a *Array) Transient() *faults.TransientSchedule { return a.transient }

// TimeFaulted reports whether the array carries time-dependent fault
// state, i.e. Forward results depend on SetTimestep. Callers that share
// one array across concurrent evaluations must serialize when this is
// true (snn.EvaluateWith does).
func (a *Array) TimeFaulted() bool { return a.transient != nil }

// SetTimestep advances the array to inference timestep t, activating
// and decaying transient strikes. Without a transient schedule it is a
// no-op, so per-timestep callers (snn.Network.Forward) pay nothing in
// the common case. It never invalidates compiled weight tiles:
// transient upsets live on accumulator outputs, not in stored weights.
func (a *Array) SetTimestep(t int) {
	if a.transient == nil {
		return
	}
	if t < 0 {
		t = 0
	}
	if t == a.step {
		return
	}
	a.step = t
	a.refreshState()
}

// Dims returns the PE grid extent (the faults.Target surface).
func (a *Array) Dims() (rows, cols int) { return a.cfg.Rows, a.cfg.Cols }

// ClearFaults removes all fault state — stuck-at maps in both
// registers, memory flips, transient schedules — and disengages bypass.
func (a *Array) ClearFaults() {
	for i := range a.pOr {
		a.pOr[i], a.pClear[i] = 0, 0
		a.wOrMask[i], a.wClearMask[i] = 0, 0
		a.wFaulty[i] = false
	}
	a.fmap = nil
	a.wmap = nil
	a.mem = nil
	a.transient = nil
	a.step = 0
	a.bypMask = nil
	a.refresh()
}

// SetBypass engages (or disengages) the bypass multiplexer on every faulty
// PE. With bypass on, faulty PEs neither contribute their weight nor
// corrupt the passing partial sum.
func (a *Array) SetBypass(on bool) {
	a.bypassOn = on
	a.refresh()
}

// SetBypassMask programs the bypass multiplexers individually: a
// permanently faulty PE i (row-major) is bypassed iff mask[i] is set or
// the global SetBypass switch is on. Entries on healthy PEs are inert —
// a bypass mux only exists to route around its own PE. A nil mask
// removes per-PE selection; ClearFaults also clears it, so campaign
// workers that clear-and-reinject between trials cannot leak a stale
// mask across fault scenarios.
func (a *Array) SetBypassMask(mask []bool) error {
	if mask != nil && len(mask) != a.cfg.Rows*a.cfg.Cols {
		return fmt.Errorf("systolic: bypass mask length %d does not match %dx%d array",
			len(mask), a.cfg.Rows, a.cfg.Cols)
	}
	if mask == nil {
		a.bypMask = nil
	} else {
		a.bypMask = append([]bool(nil), mask...)
	}
	a.refresh()
	return nil
}

// BypassedPEs returns how many PEs currently have their bypass mux
// engaged (the per-inference pruning cost a salvage report records).
func (a *Array) BypassedPEs() int {
	n := 0
	for _, s := range a.special {
		if s.bypass {
			n++
		}
	}
	return n
}

// specialPE is one special PE (see Array.special).
type specialPE struct {
	row, col  int32
	bypass    bool   // bypass mux engaged: the pre-sum passes unchanged
	or, clear uint32 // accumulator bits forced high / low
}

// refreshState rebuilds the row-ordered special-PE list from the
// permanent masks, the transient strikes active at the current timestep
// and the bypass settings. A PE is bypassed iff it is permanently faulty
// (either register) and selected by the global switch or the mask:
// transient upsets are invisible to post-fab testing, so the bypass mux
// can never be programmed around them. It does not touch the tile
// generation — SetTimestep calls it every timestep and must not force a
// weight recompile.
func (a *Array) refreshState() {
	rows, cols := a.cfg.Rows, a.cfg.Cols
	if a.transient != nil {
		a.transient.ActiveMasks(a.step, a.tOr, a.tClear)
	}
	a.special = a.special[:0]
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			idx := i*cols + j
			or, cl := a.pOr[idx], a.pClear[idx]
			byp := (or != 0 || cl != 0 || a.wFaulty[idx]) &&
				(a.bypassOn || (a.bypMask != nil && a.bypMask[idx]))
			if a.transient != nil {
				or |= a.tOr[idx]
				cl |= a.tClear[idx]
			}
			if byp || or|cl != 0 {
				a.special = append(a.special, specialPE{row: int32(i), col: int32(j), bypass: byp, or: or, clear: cl})
			}
		}
	}
}

// refresh is refreshState plus tile invalidation — the path every
// fault-state mutation (as opposed to a timestep advance) goes through.
func (a *Array) refresh() {
	a.refreshState()
	// Invalidate every compiled weight-tile view of this array.
	a.gen.Add(1)
}

// SpikeCount returns the internal spike counter of PE (row, col); zero if
// counting is disabled.
func (a *Array) SpikeCount(row, col int) uint64 {
	if a.spikeCount == nil {
		return 0
	}
	return a.spikeCount[row*a.cfg.Cols+col]
}

// Matrix is a weight matrix pre-quantized to the array's fixed-point
// format, shaped [M, K] row-major: M output neurons, K reduction inputs.
// Weight w[m][k] is pre-stored in PE(k mod Rows, m mod Cols) for the tile
// covering (k, m). Words must not be mutated after construction: Forward
// caches compiled per-array views of them (see compile.go).
type Matrix struct {
	M, K   int
	Words  []fixed.Word
	Format fixed.Format

	// Compiled per-array views (weight-fault forcing pre-applied,
	// weights pre-dequantized for the analog path), keyed by array and
	// validated against the array's fault-state generation.
	mu    sync.Mutex
	tiles map[*Array]*weightTiles
}

// QuantizeMatrix converts a float [M, K] weight tensor into a Matrix.
func QuantizeMatrix(w *tensor.Tensor, f fixed.Format) *Matrix {
	if w.Rank() != 2 {
		panic("systolic: QuantizeMatrix requires a rank-2 weight tensor")
	}
	return &Matrix{
		M:      w.Shape[0],
		K:      w.Shape[1],
		Words:  f.QuantizeSlice(w.Data),
		Format: f,
	}
}

// Dequantize converts the matrix back to a float tensor (for inspection).
func (m *Matrix) Dequantize() *tensor.Tensor {
	return tensor.FromSlice(m.Format.DequantizeSlice(m.Words), m.M, m.K)
}

// ScanWritePE models scan-chain access used by post-fabrication testing:
// it writes a word into the accumulator register of PE (row, col) and
// returns what the register's output presents, with any stuck bits
// forced. Only permanent faults are visible — scan testing happens on
// the tester, not mid-inference, so transient strikes never appear.
func (a *Array) ScanWritePE(row, col int, w fixed.Word) fixed.Word {
	idx := row*a.cfg.Cols + col
	return fixed.ForceBits(w, a.pOr[idx], a.pClear[idx])
}

// ScanWriteWeight models scan access to the weight register of PE
// (row, col): it writes a word and returns what the register presents,
// with any stuck weight bits forced.
func (a *Array) ScanWriteWeight(row, col int, w fixed.Word) fixed.Word {
	idx := row*a.cfg.Cols + col
	return fixed.ForceBits(w, a.wOrMask[idx], a.wClearMask[idx])
}

// ScanTestWeights marches all-0s/all-1s through every PE's weight
// register and reconstructs the weight-register fault map.
func (a *Array) ScanTestWeights() *faults.Map {
	m := faults.NewMap(a.cfg.Rows, a.cfg.Cols)
	for r := 0; r < a.cfg.Rows; r++ {
		for c := 0; c < a.cfg.Cols; c++ {
			zeros := uint32(a.ScanWriteWeight(r, c, 0))
			ones := uint32(a.ScanWriteWeight(r, c, -1))
			for bit := uint(0); bit < fixed.WordBits; bit++ {
				mask := uint32(1) << bit
				if zeros&mask != 0 {
					_ = m.Add(faults.StuckAtFault{Row: r, Col: c, Bit: bit, Pol: faults.StuckAt1})
				}
				if ones&mask == 0 {
					_ = m.Add(faults.StuckAtFault{Row: r, Col: c, Bit: bit, Pol: faults.StuckAt0})
				}
			}
		}
	}
	return m
}

// ScanTest runs the classic all-0s/all-1s march pattern over every PE via
// the scan chain and reconstructs the fault map, modelling how a real chip's
// fault map is obtained after fabrication. The reconstruction is exact for
// single- and multi-bit stuck-at faults.
func (a *Array) ScanTest() *faults.Map {
	m := faults.NewMap(a.cfg.Rows, a.cfg.Cols)
	for r := 0; r < a.cfg.Rows; r++ {
		for c := 0; c < a.cfg.Cols; c++ {
			zeros := uint32(a.ScanWritePE(r, c, 0))
			ones := uint32(a.ScanWritePE(r, c, -1))
			for bit := uint(0); bit < fixed.WordBits; bit++ {
				mask := uint32(1) << bit
				if zeros&mask != 0 {
					// Wrote 0, read 1: stuck at 1.
					_ = m.Add(faults.StuckAtFault{Row: r, Col: c, Bit: bit, Pol: faults.StuckAt1})
				}
				if ones&mask == 0 {
					// Wrote 1, read 0: stuck at 0.
					_ = m.Add(faults.StuckAtFault{Row: r, Col: c, Bit: bit, Pol: faults.StuckAt0})
				}
			}
		}
	}
	return m
}
