// Command experiments regenerates every figure of the paper's evaluation
// (Fig. 2, 5a–c, 6, 7, 8 and the §V-A baselines) on the synthetic-dataset
// reproduction, printing each figure's data series as a table.
//
// The flags compile into declarative experiment specs (internal/spec),
// one per selected figure campaign: -dump-spec prints the spec of a
// single selected campaign, and -spec runs from a spec file. Because
// every tool and cluster worker builds campaigns through the same spec
// registry, a figure launched here, resumed by cmd/campaign, and
// finished by remote workers is one and the same campaign.
//
// The figure sweeps run as campaigns (internal/campaign): -checkpoint
// makes them resumable, and -shard splits one campaign across processes
// whose partial JSONL files merge bit-identically with `campaign merge`.
// -coordinator serves each selected campaign from a one-run campaign
// service to remote spec-free worker daemons (`campaign work
// -coordinator <url>`), authenticated by the bearer token in
// $CAMPAIGN_TOKEN, instead of running trials locally.
//
// Usage:
//
//	experiments -quick                 # reduced sizes, minutes on a laptop
//	experiments -fig 5b,7              # subset of figures
//	experiments -cache .cache          # reuse trained baselines across runs
//	experiments -quick -fig 5a -shard 0/2 -checkpoint out/   # half the sweep
//	experiments -quick -fig 5a -shard 1/2 -checkpoint out/   # other half
//	campaign merge out/fig5a-shard*.jsonl                    # assembled figure
//
//	export CAMPAIGN_TOKEN=...                                # on every host
//	experiments -quick -fig 5a -coordinator :9090            # distributed
//	campaign work -coordinator http://host:9090              # each worker
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"

	"falvolt/internal/campaign"
	"falvolt/internal/experiments"
	"falvolt/internal/service"
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
		shardArg = flag.String("shard", "", "run the i-th of n interleaved trial subsets of each figure campaign (i/n)")
		ckptDir  = flag.String("checkpoint", "", "directory for per-campaign JSONL checkpoints (resume + shard partials)")
		coordArg = flag.String("coordinator", "", "serve each selected campaign to remote spec-free workers on this listen address (host:port), authenticated by $CAMPAIGN_TOKEN; workers run `campaign work -coordinator <url>`")
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

	want := map[string]bool{}
	for _, f := range strings.Split(*figs, ",") {
		want[strings.TrimSpace(strings.ToLower(f))] = true
	}
	all := want["all"]
	selected := func(name string) bool { return all || want[name] }

	// figCampaigns maps -fig names to their backing campaigns ("" = not
	// campaign-backed). Fig. 6/7/8 share the "mitigation" study.
	figCampaigns := []struct{ fig, camp string }{
		{"2", "fig2"}, {"5a", "fig5a"}, {"5b", "fig5b"}, {"5c", "fig5c"},
		{"6", "mitigation"}, {"7", "mitigation"}, {"8", "mitigation"},
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
			failTop(fmt.Errorf("spec kind %q carries no suite section; run it with its own tool", loaded.Kind))
		}
		base = loaded
		// A spec names one campaign; narrow the selection to its figures.
		want = map[string]bool{}
		all = false
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

	if *dumpSpec {
		// Dumping needs exactly one campaign: -fig 5a (or a loaded spec).
		var camps []string
		seen := map[string]bool{}
		for _, fc := range figCampaigns {
			if selected(fc.fig) && !seen[fc.camp] {
				seen[fc.camp] = true
				camps = append(camps, fc.camp)
			}
		}
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
	shard, err := campaign.ParseShard(*shardArg)
	if err != nil {
		failTop(err)
	}
	if shard.IsWhole() && base.Shard != "" {
		if shard, err = campaign.ParseShard(base.Shard); err != nil {
			failTop(err)
		}
	}
	if !shard.IsWhole() && *ckptDir == "" {
		failTop(fmt.Errorf("-shard needs -checkpoint so the partial results can be merged"))
	}
	if *coordArg != "" && !shard.IsWhole() {
		failTop(fmt.Errorf("-coordinator shards each campaign itself; drop -shard"))
	}
	if strings.Contains(*coordArg, "://") {
		failTop(fmt.Errorf("-coordinator here is a listen address (host:port), got URL %q; the URL form belongs on `campaign work -coordinator`", *coordArg))
	}
	token := os.Getenv("CAMPAIGN_TOKEN")
	if *coordArg != "" && token == "" {
		failTop(fmt.Errorf("-coordinator needs a bearer token for its workers in $CAMPAIGN_TOKEN"))
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	bopt := spec.BuildOpts{CacheDir: *cache}
	if *verbose {
		bopt.Log = os.Stderr
	}
	// The suite behind the campaigns: SuiteFromSpec caches per
	// configuration, so the registry builders below and the direct
	// baseline/ablation harnesses share one set of trained baselines.
	suite, err := experiments.SuiteFromSpec(base, bopt)
	if err != nil {
		failTop(err)
	}

	shardFile := func(name string) string {
		return filepath.Join(*ckptDir,
			fmt.Sprintf("%s-shard%dof%d.jsonl", name, shard.Index, max(shard.Count, 1)))
	}
	// runCampaign builds the named campaign from its spec and executes
	// it with the shard/checkpoint options — on remote workers when
	// -coordinator is set — returning the built renderers alongside.
	runCampaign := func(name string) (*spec.Built, *campaign.RunResult, error) {
		s := specFor(name)
		built, err := spec.Build(s, bopt)
		if err != nil {
			return nil, nil, err
		}
		copt := campaign.Options{Context: ctx, Shard: shard}
		if *ckptDir != "" {
			if err := os.MkdirAll(*ckptDir, 0o755); err != nil {
				return nil, nil, err
			}
			copt.Checkpoint = shardFile(name)
		}
		if *coordArg != "" {
			// One single-use service per campaign; sequential
			// campaigns reuse the same listen address.
			copt.Runner = service.NewOneRun(service.Config{Addr: *coordArg, Token: token, Log: os.Stderr}, s, "")
		}
		if *verbose {
			copt.Log = os.Stderr
		}
		rr, err := campaign.Run(built.Campaign, copt)
		return built, rr, err
	}

	if !shard.IsWhole() {
		// Shard mode: execute the selected campaigns' subsets and leave
		// figure assembly to `campaign merge` over all shard files.
		ran := map[string]bool{}
		for _, fc := range figCampaigns {
			if !selected(fc.fig) || ran[fc.camp] {
				continue
			}
			ran[fc.camp] = true
			_, rr, err := runCampaign(fc.camp)
			if err != nil {
				fail(fc.camp, err)
			}
			fmt.Printf("campaign %s shard %s: %d/%d trials complete -> %s\n",
				fc.camp, shard, len(rr.Results), rr.Planned, shardFile(fc.camp))
		}
		if selected("baseline") || want["ablations"] {
			fmt.Fprintln(os.Stderr, "experiments: baseline/ablations are not sharded; run them without -shard")
		}
		return
	}

	run := func(name string, fn func() error) {
		if !selected(name) {
			return
		}
		if err := fn(); err != nil {
			fail(name, err)
		}
	}
	// printCampaign runs a campaign-backed figure with checkpointing and
	// prints its figures (used when -checkpoint is set; otherwise the
	// plain Fig* methods below run the campaign in memory).
	printCampaign := func(camp string) error {
		built, rr, err := runCampaign(camp)
		if err != nil {
			return err
		}
		return built.Render(os.Stdout, rr.Results)
	}

	run("baseline", func() error {
		fig, err := suite.Baselines()
		if err != nil {
			return err
		}
		fig.Print(os.Stdout)
		return nil
	})
	if *ckptDir != "" || *coordArg != "" {
		// Checkpointed or distributed whole-campaign mode: run each
		// selected campaign (with resume, and/or on remote workers) and
		// print its figures. Fig. 6/7/8 print together.
		ran := map[string]bool{}
		for _, fc := range figCampaigns {
			if !selected(fc.fig) || ran[fc.camp] {
				continue
			}
			ran[fc.camp] = true
			if err := printCampaign(fc.camp); err != nil {
				fail(fc.camp, err)
			}
		}
	} else {
		run("2", func() error { return printFig(suite.Fig2()) })
		run("5a", func() error { return printFig(suite.Fig5a()) })
		run("5b", func() error { return printFig(suite.Fig5b()) })
		run("5c", func() error { return printFig(suite.Fig5c()) })
		run("6", func() error { return printFigs(suite.Fig6()) })
		run("7", func() error { return printFig(suite.Fig7()) })
		run("8", func() error { return printFigs(suite.Fig8()) })
	}
	// Ablations are opt-in only (not part of "all").
	if want["ablations"] {
		figs, err := suite.Ablations()
		if err != nil {
			fail("ablations", err)
		}
		for _, f := range figs {
			f.Print(os.Stdout)
		}
	}
}

func printFig(f *experiments.Figure, err error) error {
	if err != nil {
		return err
	}
	f.Print(os.Stdout)
	return nil
}

func printFigs(figs []*experiments.Figure, err error) error {
	if err != nil {
		return err
	}
	for _, f := range figs {
		f.Print(os.Stdout)
	}
	return nil
}
