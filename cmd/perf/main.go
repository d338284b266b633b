// Command perf reports the dataflow timing and first-order energy of one
// model inference on a systolic array: per-layer tiling factors, cycle
// counts, PE utilization, and the energy split across accumulation,
// weight loading, spike movement, leakage, bypass muxes and the clock
// tree. It also quantifies the cost of mitigating faults by redundant
// re-execution instead of bypass — the overhead argument of the paper's
// introduction.
//
// Usage:
//
//	perf -dataset mnist -array 64 -batch 16
//	perf -dataset dvsgesture -array 256 -rate 0.3
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"strings"

	"falvolt/internal/faults"
	"falvolt/internal/fixed"
	"falvolt/internal/snn"
	"falvolt/internal/systolic"
	"falvolt/internal/tensor"
)

func main() {
	var (
		backend = flag.String("backend", "", tensor.BackendFlagDoc)
		dataset = flag.String("dataset", "mnist", "mnist | nmnist | dvsgesture")
		arrayN  = flag.Int("array", 64, "array side (NxN)")
		batch   = flag.Int("batch", 16, "inference batch size")
		rate    = flag.Float64("rate", 0, "faulty-PE fraction (bypassed) to include in the report")
		clockMH = flag.Float64("clock-mhz", 500, "array clock for latency conversion")
		seed    = flag.Int64("seed", 7, "seed")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "perf: unexpected argument %q\n", flag.Arg(0))
		flag.Usage()
		os.Exit(2)
	}
	if err := tensor.SetDefaultByName(*backend); err != nil {
		fmt.Fprintln(os.Stderr, "perf:", err)
		os.Exit(1)
	}
	if err := run(*dataset, *arrayN, *batch, *rate, *clockMH, *seed); err != nil {
		fmt.Fprintln(os.Stderr, "perf:", err)
		os.Exit(1)
	}
}

func run(dataset string, arrayN, batch int, rate, clockMHz float64, seed int64) error {
	var spec snn.ModelSpec
	switch strings.ToLower(dataset) {
	case "mnist":
		spec = snn.MNISTSpec()
	case "nmnist":
		spec = snn.NMNISTSpec()
	case "dvsgesture":
		spec = snn.DVSGestureSpec()
	default:
		return fmt.Errorf("unknown dataset %q", dataset)
	}
	model, err := snn.Build(spec, rand.New(rand.NewSource(seed)))
	if err != nil {
		return err
	}
	arr, err := systolic.New(systolic.Config{
		Rows: arrayN, Cols: arrayN, Format: fixed.Q16x16, Saturate: true,
	})
	if err != nil {
		return err
	}
	if rate > 0 {
		fm, err := faults.GenerateRate(arrayN, arrayN, rate, faults.GenSpec{
			BitMode: faults.MSBBits, Pol: faults.StuckAt1,
		}, rand.New(rand.NewSource(seed+1)))
		if err != nil {
			return err
		}
		if err := arr.InjectFaults(fm); err != nil {
			return err
		}
		arr.SetBypass(true)
		fmt.Printf("fault map: %v (bypass enabled)\n", fm)
	}

	shapes := model.LayerShapes(batch)
	timing, err := arr.ScheduleNetwork(shapes)
	if err != nil {
		return err
	}

	fmt.Printf("model %s on %dx%d array, batch %d, T=%d\n\n", spec.Name, arrayN, arrayN, batch, spec.T)
	fmt.Printf("%-7s %-7s %-7s %-12s %-6s\n", "layer", "Ktiles", "Mtiles", "cycles", "util")
	for _, l := range timing.Layers {
		fmt.Printf("%-7s %-7d %-7d %-12d %5.1f%%\n",
			l.Name, l.KTiles, l.MTiles, l.TotalCycles, 100*l.Utilization)
	}
	usPerInference := float64(timing.TotalCycles) / (clockMHz * 1e6) * 1e6 / float64(batch)
	fmt.Printf("\ntotal: %d cycles, mean utilization %.1f%%, %.1f us/inference at %.0f MHz\n",
		timing.TotalCycles, 100*timing.MeanUtilization, usPerInference, clockMHz)

	// Exercise the datapath once to populate arithmetic stats for the
	// energy estimate (synthetic spikes at a representative density).
	arr.ResetStats()
	rng := rand.New(rand.NewSource(seed + 2))
	const density = 0.15
	for _, sh := range shapes {
		x := make([]float32, sh.B*sh.K)
		for i := range x {
			if rng.Float64() < density {
				x[i] = 1
			}
		}
		w := make([]float32, sh.M*sh.K)
		for i := range w {
			w[i] = float32(rng.NormFloat64() * 0.3)
		}
		xp := tensor.RowPatches(tensor.FromSlice(x, sh.B, sh.K))
		wt := tensor.FromSlice(w, sh.M, sh.K)
		for t := 0; t < sh.Timesteps; t++ {
			arr.Forward(xp, systolic.QuantizeMatrix(wt, fixed.Q16x16), true)
		}
		xp.Release()
	}
	rep := arr.Energy(timing, systolic.DefaultEnergyParams(), density)
	fmt.Printf("\nenergy estimate (batch of %d, spike density %.0f%%):\n", batch, 100*density)
	fmt.Printf("  accumulate  %12.0f pJ\n", rep.AccumulatePJ)
	fmt.Printf("  weight load %12.0f pJ\n", rep.WeightLoadPJ)
	fmt.Printf("  spike move  %12.0f pJ\n", rep.SpikeMovePJ)
	fmt.Printf("  leakage     %12.0f pJ\n", rep.LeakagePJ)
	fmt.Printf("  bypass mux  %12.0f pJ\n", rep.BypassPJ)
	fmt.Printf("  clock tree  %12.0f pJ\n", rep.ClockPJ)
	fmt.Printf("  total       %12.0f pJ (%.2f uJ/inference)\n",
		rep.TotalPJ(), rep.TotalPJ()/1e6/float64(batch))

	lat, en := systolic.ReexecutionOverhead()
	fmt.Printf("\nmitigation-by-re-execution would cost %.2fx latency and %.2fx energy on every inference;\n", lat, en)
	fmt.Println("bypass + FalVolt retraining is a one-time per-chip cost instead (paper §I).")
	return nil
}
