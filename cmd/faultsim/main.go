// Command faultsim explores fault vulnerability of a systolic SNN:
// sweep the stuck bit position, the number of faulty PEs, the array
// size, or a pluggable fault model's rate ladder, and report
// classification accuracy (the paper's Fig. 5 family) for one dataset.
//
// It is a thin shim over the declarative experiment spec
// (internal/spec): the flags compile into a Spec of kind "faultsim",
// -dump-spec prints it, -spec runs from a spec file, and the spec
// registry builds the sweep as a campaign with one trial per (sweep
// point × polarity × repeat) cell — the same campaign `campaign
// run/serve/submit -spec` shard, checkpoint and distribute. Dataset and
// sweep names are validated before any training starts, so a typo fails
// immediately instead of after the baseline epochs.
//
// Usage:
//
//	faultsim -sweep bits  -dataset mnist
//	faultsim -sweep count -dataset nmnist -array 64
//	faultsim -sweep size  -dataset mnist -faults 4
//	faultsim -sweep model -model bitflip -dataset mnist
//
// -mitigate <kind> salvages every deployment before measuring: each
// sweep point injects its fault instance, applies the named mitigation
// strategy (internal/mitigation — falvolt, fap, fapit, respawn,
// rescuesnn or softsnn) to the trained network on the faulty array, and
// reports the salvaged accuracy instead of the raw one. The same sweep
// with and without -mitigate is the per-point recovery picture.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"falvolt/internal/campaign"
	_ "falvolt/internal/core" // registers the faultsim kind
	"falvolt/internal/faults"
	"falvolt/internal/spec"
	"falvolt/internal/tensor"
)

func main() {
	// Flag defaults come from the one definition in
	// spec.FaultSimSpec.Defaulted.
	def := spec.FaultSimSpec{}.Defaulted()
	var (
		backend  = flag.String("backend", "", tensor.BackendFlagDoc)
		dataset  = flag.String("dataset", def.Dataset, "mnist | nmnist | dvsgesture")
		sweep    = flag.String("sweep", def.Sweep, "bits | count | size | model")
		modelN   = flag.String("model", "", "fault model for -sweep model: "+strings.Join(faults.ModelNames(), " | "))
		mitigate = flag.String("mitigate", "", "salvage each deployment with this mitigation before measuring: "+strings.Join(spec.MitigationKinds(), " | ")+" (\"\" = unmitigated)")
		mitEp    = flag.Int("mit-epochs", 0, "retraining epochs per salvage for retraining mitigations (0 = 1)")
		arrayN   = flag.Int("array", def.Array, "systolic array side for bits/count sweeps")
		nFaults  = flag.Int("faults", def.Faults, "faulty PEs for bits/size sweeps")
		repeats  = flag.Int("repeats", def.Repeats, "fault maps averaged per point")
		baseEp   = flag.Int("base-epochs", def.BaseEpochs, "baseline training epochs")
		trainN   = flag.Int("train", def.Train, "training samples")
		testN    = flag.Int("test", def.Test, "test samples")
		seed     = flag.Int64("seed", 7, "seed")
		specPath = flag.String("spec", "", "experiment spec JSON file (replaces the config flags; \"-\" reads stdin)")
		dumpSpec = flag.Bool("dump-spec", false, "print the spec compiled from the flags and exit")
	)
	flag.Parse()

	fail := func(err error) {
		fmt.Fprintln(os.Stderr, "faultsim:", err)
		os.Exit(1)
	}
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "faultsim: unexpected argument %q\n", flag.Arg(0))
		flag.Usage()
		os.Exit(2)
	}

	var s *spec.Spec
	if *specPath != "" {
		loaded, err := spec.LoadOverride(*specPath, *backend)
		if err != nil {
			fail(err)
		}
		if loaded.Kind != "faultsim" || loaded.FaultSim == nil {
			fail(fmt.Errorf("spec kind %q is not a faultsim sweep", loaded.Kind))
		}
		s = loaded
	} else {
		s = &spec.Spec{
			Version: spec.Version, Kind: "faultsim", Seed: *seed, Backend: *backend,
			FaultSim: &spec.FaultSimSpec{
				Dataset: *dataset, Sweep: *sweep, Array: *arrayN, Faults: *nFaults,
				Repeats: *repeats, BaseEpochs: *baseEp, Train: *trainN, Test: *testN,
			},
		}
		if *modelN != "" {
			s.FaultSim.Model = &spec.FaultModelSpec{Kind: *modelN}
		}
		if *mitigate != "" {
			s.FaultSim.Mitigate = &spec.MitigationSpec{Kind: *mitigate, Epochs: *mitEp}
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
	// Baseline progress is part of the report, so the build log goes to
	// stdout ahead of the table.
	built, err := spec.Build(s, spec.BuildOpts{Log: os.Stdout})
	if err != nil {
		fail(err)
	}
	rr, err := campaign.Run(built.Campaign, campaign.Options{})
	if err != nil {
		fail(err)
	}
	if err := built.Render(os.Stdout, rr.Results); err != nil {
		fail(err)
	}
}
