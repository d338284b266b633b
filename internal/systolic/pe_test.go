package systolic

import (
	"math/rand"
	"testing"
	"testing/quick"

	"falvolt/internal/faults"
	"falvolt/internal/fixed"
	"falvolt/internal/tensor"
)

func TestPEStepAccumulates(t *testing.T) {
	p := &PE{Weight: 100, Saturate: true}
	if got := p.Step(0, true); got != 100 {
		t.Errorf("Step(0, spike) = %d, want 100", got)
	}
	if got := p.Step(100, false); got != 100 {
		t.Errorf("no spike must pass pre-sum through adder unchanged, got %d", got)
	}
	if p.SpikeCount != 1 {
		t.Errorf("SpikeCount = %d, want 1", p.SpikeCount)
	}
}

func TestPEStuckBitForcing(t *testing.T) {
	p := &PE{Weight: 0b0110, Saturate: true}
	p.AddFault(0, faults.StuckAt1)
	if got := p.Step(0, true); got != 0b0111 {
		t.Errorf("stuck-at-1 LSB: got %b, want 0111", got)
	}
	if !p.Faulty() {
		t.Error("Faulty() should be true")
	}
}

func TestPEBypassSkipsEverything(t *testing.T) {
	p := &PE{Weight: 500, Saturate: true}
	p.AddFault(31, faults.StuckAt1)
	p.Bypass = true
	if got := p.Step(42, true); got != 42 {
		t.Errorf("bypassed PE must forward pre-sum unchanged, got %d", got)
	}
	// Spike counter still observes traffic (the counter sits on the spike
	// path, not the accumulator).
	if p.SpikeCount != 1 {
		t.Errorf("SpikeCount = %d, want 1", p.SpikeCount)
	}
}

func TestPEAnalogStep(t *testing.T) {
	f := fixed.Q16x16
	p := &PE{Weight: f.Quantize(0.5), Saturate: true}
	got := p.StepAnalog(0, 0.5, f)
	want := f.Quantize(0.25)
	if got != want {
		t.Errorf("analog 0.5*0.5 = %d, want %d", got, want)
	}
	if got := p.StepAnalog(7, 0, f); got != 7 {
		t.Errorf("zero input adds nothing, got %d", got)
	}
}

func TestColumnPassMatchesManualSum(t *testing.T) {
	f := fixed.Q16x16
	ws := []fixed.Word{f.Quantize(0.25), f.Quantize(-0.5), f.Quantize(1.0)}
	c := NewColumn(ws, true)
	sum := c.Pass([]float32{1, 0, 1})
	want := fixed.AddSat(ws[0], ws[2])
	if sum != want {
		t.Errorf("column pass = %d, want %d", sum, want)
	}
}

// TestArrayMatchesPEReference locks the vectorized Array implementation to
// the register-level PE chain for random weights, spikes and fault maps.
func TestArrayMatchesPEReference(t *testing.T) {
	err := quick.Check(func(seed int64, bypass bool) bool {
		rng := rand.New(rand.NewSource(seed))
		const k, rows = 8, 8
		cfg := Config{Rows: rows, Cols: 4, Format: fixed.Q16x16, Saturate: true}
		a := mustNew(cfg)
		fm, err := faults.Generate(rows, 4, faults.GenSpec{
			NumFaulty: 1 + rng.Intn(8), BitMode: faults.RandomBit, PolMode: faults.RandomPol,
		}, rng)
		if err != nil {
			return false
		}
		if err := a.InjectFaults(fm); err != nil {
			return false
		}
		a.SetBypass(bypass)

		w := tensor.New(4, k)
		w.RandNormal(rng, 0.5)
		wm := QuantizeMatrix(w, cfg.Format)
		x := tensor.New(1, k)
		for i := range x.Data {
			if rng.Float64() < 0.5 {
				x.Data[i] = 1
			}
		}
		got := a.Forward(tensor.RowPatches(x), wm, true)

		// Reference: one explicit PE column per output.
		for m := 0; m < 4; m++ {
			col := NewColumn(wm.Words[m*k:(m+1)*k], true)
			for i, pe := range col.PEs {
				for _, fl := range fm.Faults {
					if fl.Row == i && fl.Col == m {
						pe.AddFault(fl.Bit, fl.Pol)
					}
				}
				pe.Bypass = bypass && pe.Faulty()
			}
			// Mirror Forward's exact fixed->float conversion so the
			// comparison is bit-exact.
			want := float32(int64(col.Pass(x.Data))) * float32(cfg.Format.Scale())
			if got.At(0, m) != want {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 40})
	if err != nil {
		t.Error(err)
	}
}
