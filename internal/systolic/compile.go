package systolic

import "falvolt/internal/fixed"

// Compiled weight tiles: a per-array view of a Matrix with every
// per-element branch of the old inner loop hoisted out of the hot path,
// laid out K-major for the row-major pass (forward.go): the M weights a
// stored input k gates sit in one contiguous row at k*M, so each event
// adds one row into a patch row's block of M column accumulators.
//
//   - Weight-SRAM bit-flips (faults.MemoryFaults) corrupt each stored
//     word first — the SRAM returns the flipped word — so memory faults
//     hit exactly what the accelerator stores, once per compile.
//   - Weight-register stuck bits (wOrMask/wClearMask) are then
//     force-applied once per compile instead of per accumulation, so
//     no forward loop consults wFaulty, and a PE whose only fault sits
//     in its weight register is not a special PE (systolic.go).
//   - For the analog path, the effective weights are pre-dequantized to
//     float64, eliminating the Dequantize (Ldexp) call per element.
//   - For analog inputs that are all levels (an AvgPool2 of binary
//     spikes, or event frames), a per-weight table holds the quantized
//     product with each level, so those products skip Quantize too. The
//     table holds the very value the per-element Quantize computes, so
//     results stay bit-identical.
//
// Views cache on the Matrix keyed by *Array and are validated against the
// array's fault-state generation, so InjectFaults / InjectWeightFaults /
// InjectMemoryFaults / InjectTransient / ClearFaults / SetBypass (all of
// which bump the generation via refresh) transparently recompile on the
// next Forward. SetTimestep does not bump it: transient strikes live on
// accumulator outputs, so compiled weights stay valid across timesteps.

// weightTiles is one compiled view of a Matrix on one Array.
type weightTiles struct {
	gen uint64 // array fault-state generation at compile time
	// effT[k*M+m] is w[m][k] with the array's weight faults applied.
	effT []fixed.Word
	// deqT is effT dequantized in the array's format; built on the
	// first analog pass that is not all levels.
	deqT []float64
	// q4T[(k*4+l)*M+m] is the quantized product of effT[k*M+m]'s value
	// and levels[l]; built on the first level pass.
	q4T []fixed.Word
}

// levels are the analog inputs a level pass reads from the q4T table:
// the values an AvgPool2 of binary spikes takes, 1 being an event.
var levels = [4]float32{0.25, 0.5, 0.75, 1}

// levelIndex returns v's index in levels, or -1 when v is not a level
// (NaN included).
func levelIndex(v float32) int {
	q := v * 4 // exact: a power-of-two scale
	if q >= 1 && q <= 4 && q == float32(int(q)) {
		return int(q) - 1
	}
	return -1
}

// tilesFor returns the compiled view of w for array a, (re)building it if
// the cache is cold or the array's fault state changed. Safe for
// concurrent Forward calls: the Matrix mutex serializes compiles, and a
// returned view is immutable.
func (w *Matrix) tilesFor(a *Array, needDeq, needLvl bool) *weightTiles {
	gen := a.gen.Load()
	w.mu.Lock()
	defer w.mu.Unlock()
	t := w.tiles[a]
	if t == nil || t.gen != gen {
		t = &weightTiles{gen: gen, effT: w.compileEffective(a)}
		if w.tiles == nil {
			w.tiles = make(map[*Array]*weightTiles)
		} else {
			// Drop views whose array has since changed fault state, so a
			// matrix swept across many short-lived arrays cannot grow the
			// cache without bound.
			for arr, tt := range w.tiles {
				if tt.gen != arr.gen.Load() {
					delete(w.tiles, arr)
				}
			}
		}
		w.tiles[a] = t
	}
	format := a.cfg.Format
	if needDeq && t.deqT == nil {
		deq := make([]float64, len(t.effT))
		for i, wd := range t.effT {
			deq[i] = format.Dequantize(wd)
		}
		t.deqT = deq
	}
	if needLvl && t.q4T == nil {
		q4 := make([]fixed.Word, 4*len(t.effT))
		for k := 0; k < w.K; k++ {
			for m, wd := range t.effT[k*w.M : (k+1)*w.M] {
				d := format.Dequantize(wd)
				for l, v := range levels {
					q4[(k*4+l)*w.M+m] = format.Quantize(float64(v) * d)
				}
			}
		}
		t.q4T = q4
	}
	return t
}

// compileEffective returns the K-major effT of w on a: every stored
// word transposed to [K, M] with the array's weight-path faults applied,
// first the SRAM's bit-flips (addressed by the word's flat index m*K+k —
// what the memory actually stores), then the destination PE's
// weight-register stuck bits under the weight-stationary mapping
// (w[m][k] lives in PE(k mod Rows, m mod Cols)). The scalar reference
// model of the tests applies the same two corruptions per element in the
// same order.
func (w *Matrix) compileEffective(a *Array) []fixed.Word {
	rows, cols := a.cfg.Rows, a.cfg.Cols
	effT := make([]fixed.Word, len(w.Words))
	for m := 0; m < w.M; m++ {
		col := m % cols
		for k, wd := range w.Words[m*w.K : (m+1)*w.K] {
			if a.mem != nil {
				wd = a.mem.FlipWord(m*w.K+k, wd)
			}
			idx := (k%rows)*cols + col
			if a.wFaulty[idx] {
				wd = fixed.ForceBits(wd, a.wOrMask[idx], a.wClearMask[idx])
			}
			effT[k*w.M+m] = wd
		}
	}
	return effT
}
