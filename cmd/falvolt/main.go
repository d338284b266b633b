// Command falvolt runs the full FalVolt pipeline end to end on one
// dataset: train a fault-free baseline PLIF-SNN, inject a stuck-at fault
// map into the systolic array, then mitigate with FaP, FaPIT or FalVolt
// and report the recovered accuracy and the optimized per-layer threshold
// voltages.
//
// It is a thin shim over the declarative experiment spec
// (internal/spec): the flags compile into a Spec of kind "falvolt",
// -dump-spec prints it and -spec runs from a spec file. The run calls
// the same internal/core functions as the registered "falvolt" campaign
// kind's one trial (which `campaign run/serve/submit -spec` execute),
// and adds what only a local run can: -save writes the mitigated
// network and -vths=false drops the threshold table.
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
	"os"

	"falvolt/internal/core"
	"falvolt/internal/snn"
	"falvolt/internal/spec"
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
	deps, err := core.FalVoltBaseline(s, os.Stdout)
	if err != nil {
		return err
	}
	r, retrain, err := core.FalVoltTrial(deps, s)
	if err != nil {
		return err
	}
	var names []string
	if showVths {
		names = deps.Model.SpikingNames
	}
	if err := core.WriteFalVolt(os.Stdout, s, r, retrain, names); err != nil {
		return err
	}
	if stateOut != "" {
		if err := snn.SaveStateFile(deps.Model.Net.State(), stateOut); err != nil {
			return err
		}
		fmt.Println("saved mitigated network state to", stateOut)
	}
	return nil
}
