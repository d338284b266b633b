// Command yield quantifies the paper's §I motivation: at realistic defect
// densities, discarding every die with stuck-at faults destroys
// manufacturing yield, while FalVolt-style salvage (one per-chip
// mitigation run keyed to the die's fault map) ships most of them.
//
// It is a thin shim over the declarative experiment spec
// (internal/spec): the flags compile into a Spec of kind "yield",
// -dump-spec prints it, -spec runs from a spec file, and the spec
// registry builds the identical campaign here, in cmd/campaign, and on
// cluster workers — so shard files and workers from any tool
// interoperate by construction. The population runs as a fault-sweep
// campaign (internal/campaign): dies execute in parallel across
// compute-engine lanes, -checkpoint makes the run resumable, -shard
// splits it across processes (merge the partial files with `campaign
// merge`), and -coordinator serves the dies from a one-run campaign
// service to remote spec-free worker daemons (`campaign work
// -coordinator <url>`), authenticated by the bearer token in
// $CAMPAIGN_TOKEN.
//
// Usage:
//
//	yield -chips 20 -mean-faulty 80 -threshold 0.9
//	yield -chips 10 -mean-faulty 200 -method falvolt -epochs 6
//	yield -chips 40 -shard 0/2 -checkpoint y0.jsonl   # process 1
//	yield -chips 40 -shard 1/2 -checkpoint y1.jsonl   # process 2
//	campaign merge y0.jsonl y1.jsonl                  # combined report
//
//	export CAMPAIGN_TOKEN=...                                # on every host
//	yield -chips 40 -coordinator :9090 -checkpoint y.jsonl   # one-run service
//	campaign work -coordinator http://host:9090              # each worker
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"falvolt/internal/campaign"
	"falvolt/internal/core"
	"falvolt/internal/service"
	"falvolt/internal/spec"
	"falvolt/internal/systolic"
	"falvolt/internal/tensor"
)

func main() {
	// Flag defaults come from the one definition of the yield defaults
	// (spec.YieldSpec.Defaulted), so this tool, cmd/campaign and the
	// spec builder cannot drift apart.
	def := spec.YieldSpec{}.Defaulted()
	var (
		backend    = flag.String("backend", "", tensor.BackendFlagDoc)
		chips      = flag.Int("chips", def.Chips, "number of simulated dies")
		meanFaulty = flag.Float64("mean-faulty", def.MeanFaulty, "mean faulty PEs per die")
		alpha      = flag.Float64("alpha", def.Alpha, "defect clustering (smaller = heavier tails)")
		clustered  = flag.Bool("clustered", true, "spatially clustered fault maps")
		threshold  = flag.Float64("threshold", def.Threshold, "minimum shipping accuracy")
		method     = flag.String("method", def.Method, "salvage policy: fap | fapit | falvolt")
		epochs     = flag.Int("epochs", def.MitEpochs, "retraining epochs per salvaged die")
		arrayN     = flag.Int("array", def.Array, "array side")
		baseEp     = flag.Int("base-epochs", def.BaseEpochs, "baseline training epochs")
		seed       = flag.Int64("seed", 7, "seed")
		specPath   = flag.String("spec", "", "experiment spec JSON file (replaces the config flags; \"-\" reads stdin)")
		dumpSpec   = flag.Bool("dump-spec", false, "print the spec compiled from the flags and exit")
		shardArg   = flag.String("shard", "", "run the i-th of n interleaved die subsets (i/n); merge partials with `campaign merge`")
		checkpoint = flag.String("checkpoint", "", "JSONL checkpoint: append per-die results, resume by skipping completed dies")
		coordArg   = flag.String("coordinator", "", "serve the dies to remote spec-free workers on this listen address (host:port), authenticated by $CAMPAIGN_TOKEN; workers run `campaign work -coordinator <url>`")
	)
	flag.Parse()

	fail := func(err error) {
		fmt.Fprintln(os.Stderr, "yield:", err)
		os.Exit(1)
	}
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "yield: unexpected argument %q\n", flag.Arg(0))
		flag.Usage()
		os.Exit(2)
	}

	var s *spec.Spec
	if *specPath != "" {
		loaded, err := spec.LoadOverride(*specPath, *backend)
		if err != nil {
			fail(err)
		}
		if loaded.Kind != "yield" || loaded.Yield == nil {
			fail(fmt.Errorf("spec kind %q is not a yield study (run it with cmd/campaign)", loaded.Kind))
		}
		s = loaded
	} else {
		s = &spec.Spec{
			Version: spec.Version, Kind: "yield", Seed: *seed, Backend: *backend,
			Yield: &spec.YieldSpec{
				Chips: *chips, MeanFaulty: *meanFaulty, Alpha: *alpha,
				Clustered: *clustered, Threshold: *threshold, Method: *method,
				MitEpochs: *epochs, BaseEpochs: *baseEp, Array: *arrayN,
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
	shard, err := campaign.ParseShard(*shardArg)
	if err != nil {
		fail(err)
	}
	if shard.IsWhole() && s.Shard != "" {
		if shard, err = campaign.ParseShard(s.Shard); err != nil {
			fail(err)
		}
	}
	if !shard.IsWhole() && *checkpoint == "" {
		fail(fmt.Errorf("-shard needs -checkpoint so the partial results can be merged"))
	}
	if *coordArg != "" && !shard.IsWhole() {
		fail(fmt.Errorf("-coordinator shards the campaign itself; drop -shard"))
	}
	if strings.Contains(*coordArg, "://") {
		fail(fmt.Errorf("-coordinator here is a listen address (host:port), got URL %q; the URL form belongs on `campaign work -coordinator`", *coordArg))
	}
	token := os.Getenv("CAMPAIGN_TOKEN")
	if *coordArg != "" && token == "" {
		fail(fmt.Errorf("-coordinator needs a bearer token for its workers in $CAMPAIGN_TOKEN"))
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	// The registry is the single construction path for yield campaigns:
	// cmd/campaign and spec-free cluster workers build bit-identical
	// populations from the same canonical spec.
	built, err := spec.Build(s, spec.BuildOpts{Log: os.Stderr})
	if err != nil {
		fail(err)
	}
	opt := campaign.Options{
		Context: ctx, Shard: shard, Checkpoint: *checkpoint, Log: os.Stderr,
	}
	if *coordArg != "" {
		opt.Runner = service.NewOneRun(service.Config{Addr: *coordArg, Token: token, Log: os.Stderr}, s, "")
	}
	rr, err := campaign.Run(built.Campaign, opt)
	if err != nil {
		fail(err)
	}
	if !shard.IsWhole() {
		fmt.Printf("shard %s complete: %d dies -> %s; merge all shards with `campaign merge`\n",
			shard, len(rr.Results), *checkpoint)
		return
	}
	// One report computation feeds both the standard line (identical to
	// built.Render's output, used by cmd/campaign) and the trailer.
	cfg, err := core.YieldConfigFromSpec(s)
	if err != nil {
		fail(err)
	}
	rep, err := core.YieldFromResults(rr.Results, cfg.Chips, cfg.Threshold)
	if err != nil {
		fail(err)
	}
	fmt.Println(rep)
	fmt.Printf("fault-free dies: %d/%d; salvage policy: %s (%d epochs)\n",
		rep.FaultFree, rep.Chips, cfg.Mitigation.Method, cfg.Mitigation.Epochs)
	lat, en := systolic.ReexecutionOverhead()
	fmt.Printf("for comparison, redundant re-execution would cost %.2fx latency and %.2fx energy on every inference, forever\n", lat, en)
}
