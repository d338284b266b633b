package systolic

import (
	"math/rand"
	"testing"

	"falvolt/internal/faults"
	"falvolt/internal/fixed"
	"falvolt/internal/tensor"
)

func TestScheduleSingleTile(t *testing.T) {
	a := mustNew(Config{Rows: 8, Cols: 8, Format: fixed.Q16x16})
	lt, err := a.Schedule(LayerShape{Name: "l", B: 4, K: 8, M: 8, Timesteps: 1})
	if err != nil {
		t.Fatal(err)
	}
	if lt.KTiles != 1 || lt.MTiles != 1 {
		t.Errorf("tiles = %dx%d, want 1x1", lt.KTiles, lt.MTiles)
	}
	// load(8) + fill(14) + stream(4) = 26 cycles.
	if lt.TotalCycles != 26 {
		t.Errorf("TotalCycles = %d, want 26", lt.TotalCycles)
	}
	if lt.Utilization <= 0 || lt.Utilization > 1 {
		t.Errorf("utilization %v out of (0,1]", lt.Utilization)
	}
}

func TestScheduleTilingMultiplies(t *testing.T) {
	a := mustNew(Config{Rows: 8, Cols: 8, Format: fixed.Q16x16})
	one, err := a.Schedule(LayerShape{Name: "s", B: 4, K: 8, M: 8, Timesteps: 1})
	if err != nil {
		t.Fatal(err)
	}
	four, err := a.Schedule(LayerShape{Name: "m", B: 4, K: 16, M: 16, Timesteps: 1})
	if err != nil {
		t.Fatal(err)
	}
	if four.TotalCycles != 4*one.TotalCycles {
		t.Errorf("2x2 tiling should cost 4x cycles: %d vs %d", four.TotalCycles, one.TotalCycles)
	}
	// Timesteps multiply linearly too.
	t4, err := a.Schedule(LayerShape{Name: "t", B: 4, K: 8, M: 8, Timesteps: 4})
	if err != nil {
		t.Fatal(err)
	}
	if t4.TotalCycles != 4*one.TotalCycles {
		t.Errorf("4 timesteps should cost 4x cycles: %d vs %d", t4.TotalCycles, one.TotalCycles)
	}
}

func TestScheduleValidation(t *testing.T) {
	a := mustNew(Config{Rows: 8, Cols: 8, Format: fixed.Q16x16})
	if _, err := a.Schedule(LayerShape{B: 0, K: 1, M: 1, Timesteps: 1}); err == nil {
		t.Error("zero batch should error")
	}
	if _, err := a.Schedule(LayerShape{B: 1, K: 1, M: 1, Timesteps: 0}); err == nil {
		t.Error("zero timesteps should error")
	}
}

func TestUtilizationImprovesWithBatch(t *testing.T) {
	// Streaming more vectors amortizes fill and weight-load overhead.
	a := mustNew(Config{Rows: 16, Cols: 16, Format: fixed.Q16x16})
	small, _ := a.Schedule(LayerShape{Name: "b1", B: 1, K: 16, M: 16, Timesteps: 1})
	big, _ := a.Schedule(LayerShape{Name: "b64", B: 64, K: 16, M: 16, Timesteps: 1})
	if big.Utilization <= small.Utilization {
		t.Errorf("larger batch should raise utilization: %v vs %v", big.Utilization, small.Utilization)
	}
}

func TestScheduleNetworkAggregates(t *testing.T) {
	a := mustNew(Config{Rows: 8, Cols: 8, Format: fixed.Q16x16})
	layers := []LayerShape{
		{Name: "conv1", B: 16, K: 72, M: 16, Timesteps: 4},
		{Name: "fc", B: 16, K: 64, M: 10, Timesteps: 4},
	}
	it, err := a.ScheduleNetwork(layers)
	if err != nil {
		t.Fatal(err)
	}
	if len(it.Layers) != 2 {
		t.Fatalf("layers = %d", len(it.Layers))
	}
	var sum uint64
	for _, l := range it.Layers {
		sum += l.TotalCycles
	}
	if it.TotalCycles != sum {
		t.Errorf("TotalCycles %d != sum %d", it.TotalCycles, sum)
	}
	if it.MeanUtilization <= 0 || it.MeanUtilization > 1 {
		t.Errorf("mean utilization %v", it.MeanUtilization)
	}
	if _, err := a.ScheduleNetwork([]LayerShape{{Name: "bad"}}); err == nil {
		t.Error("invalid layer should propagate error")
	}
}

func TestEnergyComponentsPositive(t *testing.T) {
	a := mustNew(Config{Rows: 8, Cols: 8, Format: fixed.Q16x16})
	fm := faults.NewMap(8, 8)
	_ = fm.Add(faults.StuckAtFault{Row: 1, Col: 1, Bit: 30, Pol: faults.StuckAt1})
	if err := a.InjectFaults(fm); err != nil {
		t.Fatal(err)
	}
	a.SetBypass(true)

	rng := rand.New(rand.NewSource(1))
	x := tensor.New(8, 16)
	for i := range x.Data {
		if rng.Float64() < 0.5 {
			x.Data[i] = 1
		}
	}
	w := tensor.New(8, 16)
	w.RandNormal(rng, 0.5)
	a.Forward(tensor.RowPatches(x), QuantizeMatrix(w, fixed.Q16x16), true)

	it, err := a.ScheduleNetwork([]LayerShape{{Name: "l", B: 8, K: 16, M: 8, Timesteps: 1}})
	if err != nil {
		t.Fatal(err)
	}
	rep := a.Energy(it, DefaultEnergyParams(), 0.5)
	if rep.AccumulatePJ <= 0 || rep.LeakagePJ <= 0 || rep.ClockPJ <= 0 {
		t.Errorf("expected positive energy components: %+v", rep)
	}
	if rep.BypassPJ <= 0 {
		t.Errorf("bypassed steps should cost mux energy: %+v", rep)
	}
	if rep.TotalPJ() <= rep.AccumulatePJ {
		t.Error("total must exceed any single component")
	}
}

func TestReexecutionOverheadDominatesBypass(t *testing.T) {
	lat, en := ReexecutionOverhead()
	if lat < 2 || en < 2 {
		t.Errorf("re-execution must at least double latency and energy: %v %v", lat, en)
	}
}
