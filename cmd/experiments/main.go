// Command experiments regenerates every figure of the paper's evaluation
// (Fig. 2, 5a–c, 6, 7, 8 and the §V-A baselines) on the synthetic-dataset
// reproduction, printing each figure's data series as a table. -fig
// ablations adds the six design-choice ablations (the "ablations"
// campaign kind), which "all" leaves out.
//
// The flags compile into declarative experiment specs (internal/spec),
// one per selected figure campaign: -dump-spec prints the spec of a
// single selected campaign, and -spec runs from a spec file. Because
// every tool and cluster worker builds campaigns through the same spec
// registry, a figure launched here, resumed by cmd/campaign, and
// finished by remote workers is one and the same campaign.
//
// Every selected figure campaign, the ablations included, runs one way
// — built from its spec and executed by campaign.Run — and -fig filters
// the printed figures in every mode, so -fig 7 prints only Fig. 7 even
// though Fig. 6, 7 and 8 come from one shared mitigation study. An
// unknown -fig name is a usage error (exit 2) that lists the valid
// names.
//
// The figure sweeps run as campaigns (internal/campaign), and
// -checkpoint makes them resumable. To split one figure campaign across
// processes or hosts, run its kind with cmd/campaign: `campaign run -c
// fig5a -quick -shard i/n -o …` then `campaign merge`, or `campaign
// serve -c fig5a -quick` for remote workers.
//
// Usage:
//
//	experiments -quick                 # reduced sizes, minutes on a laptop
//	experiments -fig 5b,7              # subset of figures
//	experiments -cache .cache          # reuse trained baselines across runs
//	experiments -quick -checkpoint out/   # resume after an interruption
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"slices"
	"strings"
	"syscall"

	"falvolt/internal/campaign"
	"falvolt/internal/experiments"
	"falvolt/internal/spec"
	"falvolt/internal/tensor"
)

func main() {
	var (
		backend  = flag.String("backend", "", tensor.BackendFlagDoc)
		quick    = flag.Bool("quick", false, "reduced model/dataset sizes")
		figs     = flag.String("fig", "all", "comma-separated figures: baseline,2,5a,5b,5c,6,7,8,ablations or all (ablations excluded from all)")
		cache    = flag.String("cache", "", "directory for baseline snapshots (reused across runs)")
		seed     = flag.Int64("seed", 7, "experiment seed")
		arrayN   = flag.Int("array", 64, "systolic array side (NxN)")
		epochs   = flag.Int("epochs", 0, "retraining epochs (0 = default for mode)")
		repeats  = flag.Int("repeats", 0, "fault maps averaged per vulnerability point (0 = default)")
		evalN    = flag.Int("eval", 0, "test samples per deployed evaluation (0 = default)")
		verbose  = flag.Bool("v", false, "progress logging")
		specPath = flag.String("spec", "", "experiment spec JSON file (replaces the config flags and selects its kind's figure; \"-\" reads stdin)")
		dumpSpec = flag.Bool("dump-spec", false, "print the spec of the single selected campaign and exit")
		ckptDir  = flag.String("checkpoint", "", "directory for per-campaign JSONL checkpoints (resume after an interruption)")
	)
	flag.Parse()

	fail := func(context string, err error) {
		fmt.Fprintf(os.Stderr, "experiments: %s: %v\n", context, err)
		os.Exit(1)
	}
	failTop := func(err error) {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "experiments: unexpected argument %q\n", flag.Arg(0))
		flag.Usage()
		os.Exit(2)
	}

	want, err := parseFigs(*figs)
	if err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(2)
	}
	// figCampaigns maps -fig names to their backing campaigns. Fig. 6/7/8
	// share the "mitigation" study.
	figCampaigns := []struct{ fig, camp string }{
		{"2", "fig2"}, {"5a", "fig5a"}, {"5b", "fig5b"}, {"5c", "fig5c"},
		{"6", "mitigation"}, {"7", "mitigation"}, {"8", "mitigation"},
		{"ablations", "ablations"},
	}

	// base is the suite configuration every selected campaign shares;
	// specFor stamps a campaign kind onto it.
	base := &spec.Spec{
		Version: spec.Version, Seed: *seed, Backend: *backend,
		Suite: &spec.SuiteSpec{
			Quick: *quick, Array: *arrayN, Epochs: *epochs,
			Repeats: *repeats, Eval: *evalN,
		},
	}
	if *specPath != "" {
		loaded, err := spec.LoadOverride(*specPath, *backend)
		if err != nil {
			failTop(err)
		}
		if loaded.Suite == nil {
			failTop(fmt.Errorf("spec kind %q carries no suite section; run it with `campaign run -spec`", loaded.Kind))
		}
		if loaded.Shard != "" {
			failTop(fmt.Errorf("spec shard %s: run sharded figure campaigns with `campaign run -spec`", loaded.Shard))
		}
		base = loaded
		// A spec names one campaign; narrow the selection to its figures.
		want = map[string]bool{}
		for _, fc := range figCampaigns {
			if fc.camp == loaded.Kind {
				want[fc.fig] = true
			}
		}
		if len(want) == 0 {
			failTop(fmt.Errorf("spec kind %q is not a figure campaign", loaded.Kind))
		}
	}
	specFor := func(camp string) *spec.Spec {
		s := *base
		s.Kind = camp
		return &s
	}
	// camps are the selected figures' campaigns, each once, in figure
	// order.
	var camps []string
	for _, fc := range figCampaigns {
		if want[fc.fig] && !slices.Contains(camps, fc.camp) {
			camps = append(camps, fc.camp)
		}
	}

	if *dumpSpec {
		// Dumping needs exactly one campaign: -fig 5a (or a loaded spec).
		if len(camps) != 1 {
			failTop(fmt.Errorf("-dump-spec needs -fig naming exactly one campaign-backed figure (got %d campaigns)", len(camps)))
		}
		if err := specFor(camps[0]).Dump(os.Stdout); err != nil {
			failTop(err)
		}
		return
	}

	if err := tensor.SetDefaultByName(base.Backend); err != nil {
		failTop(err)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	bopt := spec.BuildOpts{CacheDir: *cache}
	if *verbose {
		bopt.Log = os.Stderr
	}
	// The suite behind the campaigns: SuiteFromSpec caches per
	// configuration, so the registry builders below and the baseline
	// figure share one set of trained baselines.
	suite, err := experiments.SuiteFromSpec(base, bopt)
	if err != nil {
		failTop(err)
	}

	// runCampaign builds the named campaign from its spec and executes
	// it, resuming from its checkpoint under -checkpoint (named like
	// `campaign run`'s default file for the whole campaign).
	runCampaign := func(name string) (*campaign.RunResult, error) {
		built, err := spec.Build(specFor(name), bopt)
		if err != nil {
			return nil, err
		}
		copt := campaign.Options{Context: ctx}
		if *ckptDir != "" {
			if err := os.MkdirAll(*ckptDir, 0o755); err != nil {
				return nil, err
			}
			copt.Checkpoint = filepath.Join(*ckptDir, name+"-shard0of1.jsonl")
		}
		if *verbose {
			copt.Log = os.Stderr
		}
		return campaign.Run(built.Campaign, copt)
	}

	if want["baseline"] {
		fig, err := suite.Baselines()
		if err != nil {
			fail("baseline", err)
		}
		fig.Print(os.Stdout)
	}
	// Each selected campaign runs once (with resume); of its figures only
	// the selected ones print.
	for _, camp := range camps {
		rr, err := runCampaign(camp)
		if err != nil {
			fail(camp, err)
		}
		figs, err := suite.Figures(camp, rr.Results)
		if err != nil {
			fail(camp, err)
		}
		for _, f := range figs {
			// Figure IDs are "Fig<name>" or "Fig<name>-<dataset>"; every
			// "Ablation-<name>" figure belongs to -fig ablations.
			if name, _, _ := strings.Cut(strings.TrimPrefix(f.ID, "Fig"), "-"); want[name] || camp == "ablations" {
				f.Print(os.Stdout)
			}
		}
	}
}

// figureNames are the -fig names in print order; "all" selects every one
// but the opt-in "ablations".
var figureNames = []string{"baseline", "2", "5a", "5b", "5c", "6", "7", "8", "ablations"}

// parseFigs resolves a comma-separated -fig list into the selected
// figure names, rejecting names it does not know.
func parseFigs(list string) (map[string]bool, error) {
	want := map[string]bool{}
	for _, f := range strings.Split(list, ",") {
		name := strings.TrimSpace(strings.ToLower(f))
		switch {
		case name == "all":
			for _, n := range figureNames[:len(figureNames)-1] {
				want[n] = true
			}
		case slices.Contains(figureNames, name):
			want[name] = true
		default:
			return nil, fmt.Errorf("-fig: unknown figure %q (valid: all, %s)", name, strings.Join(figureNames, ", "))
		}
	}
	return want, nil
}
