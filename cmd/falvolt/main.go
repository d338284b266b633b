// Command falvolt runs the full FalVolt pipeline end to end on one
// dataset: train a fault-free baseline PLIF-SNN, inject a stuck-at fault
// map into the systolic array, then mitigate with FaP, FaPIT or FalVolt
// and report the recovered accuracy and the optimized per-layer threshold
// voltages.
//
// The flags compile into a declarative experiment spec (internal/spec,
// kind "falvolt"): -dump-spec prints it and -spec runs from a spec
// file, so a pipeline configuration is a reviewable JSON artifact like
// every campaign's.
//
// Usage:
//
//	falvolt -dataset mnist -rate 0.30 -method falvolt
//	falvolt -dataset dvsgesture -rate 0.60 -method fapit -epochs 10
//	falvolt -dataset mnist -dump-spec > run.json && falvolt -spec run.json
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"strings"

	"falvolt/internal/core"
	"falvolt/internal/datasets"
	"falvolt/internal/faults"
	"falvolt/internal/fixed"
	"falvolt/internal/mitigation"
	"falvolt/internal/snn"
	"falvolt/internal/spec"
	"falvolt/internal/systolic"
	"falvolt/internal/tensor"
)

func main() {
	// Numeric/string flag defaults come from the one definition in
	// spec.PipelineSpec.Defaulted; -rate and -quick keep tool-level
	// defaults (their spec fields are literal — see internal/spec).
	def := spec.PipelineSpec{}.Defaulted()
	var (
		backend   = flag.String("backend", "", tensor.BackendFlagDoc)
		dataset   = flag.String("dataset", def.Dataset, "mnist | nmnist | dvsgesture")
		rate      = flag.Float64("rate", 0.30, "fraction of faulty PEs")
		method    = flag.String("method", def.Method, "fap | fapit | falvolt")
		arrayN    = flag.Int("array", def.Array, "systolic array side (NxN)")
		baseEp    = flag.Int("base-epochs", def.BaseEpochs, "baseline training epochs")
		epochs    = flag.Int("epochs", def.Epochs, "mitigation retraining epochs")
		trainN    = flag.Int("train", def.Train, "training samples")
		testN     = flag.Int("test", def.Test, "test samples")
		seed      = flag.Int64("seed", 7, "seed")
		specPath  = flag.String("spec", "", "experiment spec JSON file (replaces the config flags; \"-\" reads stdin)")
		dumpSpec  = flag.Bool("dump-spec", false, "print the spec compiled from the flags and exit")
		stateOut  = flag.String("save", "", "save mitigated network state to file")
		showVths  = flag.Bool("vths", true, "print optimized threshold voltages")
		quickMode = flag.Bool("quick", true, "reduced model sizes")
	)
	flag.Parse()

	fail := func(err error) {
		fmt.Fprintln(os.Stderr, "falvolt:", err)
		os.Exit(1)
	}
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "falvolt: unexpected argument %q\n", flag.Arg(0))
		flag.Usage()
		os.Exit(2)
	}

	var s *spec.Spec
	if *specPath != "" {
		loaded, err := spec.LoadOverride(*specPath, *backend)
		if err != nil {
			fail(err)
		}
		if loaded.Kind != "falvolt" || loaded.Pipeline == nil {
			fail(fmt.Errorf("spec kind %q is not a falvolt pipeline", loaded.Kind))
		}
		s = loaded
	} else {
		s = &spec.Spec{
			Version: spec.Version, Kind: "falvolt", Seed: *seed, Backend: *backend,
			Pipeline: &spec.PipelineSpec{
				Dataset: *dataset, Rate: *rate, Method: *method, Array: *arrayN,
				BaseEpochs: *baseEp, Epochs: *epochs, Train: *trainN, Test: *testN,
				Quick: *quickMode,
			},
		}
	}
	if *dumpSpec {
		if err := s.Dump(os.Stdout); err != nil {
			fail(err)
		}
		return
	}

	if err := tensor.SetDefaultByName(s.Backend); err != nil {
		fail(err)
	}
	if err := run(s, *stateOut, *showVths); err != nil {
		fail(err)
	}
}

func run(s *spec.Spec, stateOut string, showVths bool) error {
	p := s.Pipeline.Defaulted()
	seed := s.Seed
	arrayN, baseEpochs, epochs := p.Array, p.BaseEpochs, p.Epochs
	trainN, testN := p.Train, p.Test

	// Everything user-named is validated before any training happens, so
	// a typo fails in milliseconds, not after the baseline epoch loop.
	var mspec snn.ModelSpec
	var gen func(datasets.Config) (*datasets.Dataset, error)
	dcfg := datasets.Config{Train: trainN, Test: testN, Seed: seed}
	dsName := strings.ToLower(p.Dataset)
	switch dsName {
	case "mnist":
		mspec, gen = snn.MNISTSpec(), datasets.SyntheticMNIST
		dcfg.T = mspec.T
	case "nmnist":
		mspec, gen = snn.NMNISTSpec(), datasets.SyntheticNMNIST
		dcfg.T = mspec.T
	case "dvsgesture":
		mspec, gen = snn.DVSGestureSpec(), datasets.SyntheticDVSGesture
		dcfg.H, dcfg.W, dcfg.T = mspec.InH, mspec.InW, mspec.T
	default:
		return fmt.Errorf("unknown dataset %q", p.Dataset)
	}
	method, err := mitigation.ParseMethod(p.Method)
	if err != nil {
		return err
	}
	if p.Quick {
		mspec.EncoderC = 4
		if len(mspec.BlockC) > 2 {
			mspec.InH, mspec.InW = 16, 16
			mspec.BlockC = []int{8, 8, 16}
			dcfg.H, dcfg.W = 16, 16
		} else {
			mspec.BlockC = []int{8, 8}
		}
		mspec.FCHidden = 32
	}

	fmt.Printf("dataset %s | model %s | array %dx%d | fault rate %.0f%% | method %s\n",
		dsName, mspec.Name, arrayN, arrayN, p.Rate*100, method)

	ds, err := gen(dcfg)
	if err != nil {
		return err
	}
	model, err := snn.Build(mspec, rand.New(rand.NewSource(seed)))
	if err != nil {
		return err
	}

	fmt.Printf("training baseline (%d samples, %d epochs)...\n", len(ds.Train), baseEpochs)
	baseAcc, err := core.TrainBaseline(model, ds.Train, ds.Test, core.BaselineConfig{
		Epochs: baseEpochs, LR: 0.02, Rng: rand.New(rand.NewSource(seed + 1)),
	})
	if err != nil {
		return err
	}
	fmt.Printf("baseline accuracy: %.3f\n", baseAcc)

	arr, err := systolic.New(systolic.Config{
		Rows: arrayN, Cols: arrayN, Format: fixed.Q16x16, Saturate: true,
	})
	if err != nil {
		return err
	}
	fm, err := faults.GenerateRate(arrayN, arrayN, p.Rate, faults.GenSpec{
		BitMode: faults.MSBBits, Pol: faults.StuckAt1, PolMode: faults.FixedPol,
	}, rand.New(rand.NewSource(seed+2)))
	if err != nil {
		return err
	}
	fmt.Println(fm)

	faultyAcc, err := core.EvaluateFaulty(model, arr, fm, ds.Test, false, 32)
	if err != nil {
		return err
	}
	fmt.Printf("accuracy with unmitigated faults: %.3f\n", faultyAcc)

	rep, err := mitigation.Mitigate(model, arr, fm, ds.Train, ds.Test, mitigation.Config{
		Method: method, Epochs: epochs, LR: 0.01, BatchSize: 16, ClipNorm: 5,
		Rng: rand.New(rand.NewSource(seed + 3)),
		Progress: func(epoch int, loss float64) {
			fmt.Printf("  [%s] epoch %2d loss %.4f\n", method, epoch, loss)
		},
	})
	if err != nil {
		return err
	}
	fmt.Printf("after %s: accuracy %.3f (pruned %.1f%% of weights, retrain %.1fs)\n",
		method, rep.Accuracy, rep.PrunedFraction*100, rep.RetrainDuration.Seconds())
	if showVths {
		fmt.Println("per-layer threshold voltages:")
		for i, name := range model.SpikingNames {
			fmt.Printf("  %-7s Vth = %.3f\n", name, rep.Vths[i])
		}
	}
	if stateOut != "" {
		if err := snn.SaveStateFile(model.Net.State(), stateOut); err != nil {
			return err
		}
		fmt.Println("saved mitigated network state to", stateOut)
	}
	return nil
}
