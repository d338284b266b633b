package systolic

import (
	"testing"

	"falvolt/internal/faults"
	"falvolt/internal/fixed"
	"falvolt/internal/tensor"
)

// The register-level behaviour of one processing element (Fig. 3 of the
// paper: adder, accumulator register with stuck output bits, spike
// counter and bypass mux), driven through a one-column array whose PE i
// holds weights[i]. Patch rows carry one input per PE.

// peColumn returns a len(weights)×1 array (saturating adder, spike
// counting on) and the one-output matrix that pre-stores weights[i] in
// PE (i, 0).
func peColumn(weights ...fixed.Word) (*Array, *Matrix) {
	a := mustNew(Config{Rows: len(weights), Cols: 1, Format: fixed.Q16x16, Saturate: true, CountSpikes: true})
	return a, &Matrix{M: 1, K: len(weights), Words: weights, Format: fixed.Q16x16}
}

// pass streams one input vector down the column and returns the word
// leaving its last PE.
func pass(a *Array, w *Matrix, binary bool, in ...float32) fixed.Word {
	y := a.Forward(tensor.RowPatches(tensor.FromSlice(in, 1, len(in))), w, binary)
	return fixed.Word(int64(y.Data[0] / float32(w.Format.Scale())))
}

func stick(t *testing.T, a *Array, row int, bit uint, pol faults.Polarity) {
	t.Helper()
	fm := faults.NewMap(a.cfg.Rows, 1)
	if err := fm.Add(faults.StuckAtFault{Row: row, Col: 0, Bit: bit, Pol: pol}); err != nil {
		t.Fatal(err)
	}
	if err := a.InjectFaults(fm); err != nil {
		t.Fatal(err)
	}
}

func TestPEStepAccumulates(t *testing.T) {
	a, w := peColumn(100, 55)
	if got := pass(a, w, true, 1, 0); got != 100 {
		t.Errorf("spike on PE 0 only: column sum %d, want 100 (no spike passes the pre-sum on)", got)
	}
	if a.SpikeCount(0, 0) != 1 || a.SpikeCount(1, 0) != 0 {
		t.Errorf("spike counts %d, %d, want 1, 0", a.SpikeCount(0, 0), a.SpikeCount(1, 0))
	}
}

func TestPEStuckBitForcing(t *testing.T) {
	a, w := peColumn(0b0110)
	stick(t, a, 0, 0, faults.StuckAt1)
	if got := pass(a, w, true, 1); got != 0b0111 {
		t.Errorf("stuck-at-1 LSB: got %b, want 0111", got)
	}
	// A PE with no spike still presents its register through the stuck bit.
	if got := pass(a, w, true, 0); got != 0b0001 {
		t.Errorf("stuck-at-1 LSB, no spike: got %b, want 0001", got)
	}
}

func TestPEBypassSkipsEverything(t *testing.T) {
	a, w := peColumn(42, 500)
	stick(t, a, 1, 31, faults.StuckAt1)
	a.SetBypass(true)
	if got := pass(a, w, true, 1, 1); got != 42 {
		t.Errorf("bypassed PE must forward the pre-sum unchanged, got %d", got)
	}
	// The counter sits on the spike path, not the accumulator, so it
	// still observes traffic.
	if got := a.SpikeCount(1, 0); got != 1 {
		t.Errorf("bypassed PE's SpikeCount = %d, want 1", got)
	}
}

func TestPEAnalogStep(t *testing.T) {
	f := fixed.Q16x16
	a, w := peColumn(f.Quantize(0.5))
	if got, want := pass(a, w, false, 0.5), f.Quantize(0.25); got != want {
		t.Errorf("analog 0.5*0.5 = %d, want %d", got, want)
	}
	a, w = peColumn(7, f.Quantize(0.5))
	if got := pass(a, w, false, 1, 0); got != 7 {
		t.Errorf("zero input adds nothing, got %d", got)
	}
}

func TestColumnPassMatchesManualSum(t *testing.T) {
	f := fixed.Q16x16
	ws := []fixed.Word{f.Quantize(0.25), f.Quantize(-0.5), f.Quantize(1.0)}
	a, w := peColumn(ws...)
	if got, want := pass(a, w, true, 1, 0, 1), fixed.AddSat(ws[0], ws[2]); got != want {
		t.Errorf("column pass = %d, want %d", got, want)
	}
}
