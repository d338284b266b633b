// Command campaign plans, runs, distributes and merges sharded
// fault-sweep campaigns: the figure sweeps of cmd/experiments (fig2,
// fig5a, fig5b, fig5c, the Fig. 6/7/8 "mitigation" study) and the
// manufacturing-yield study of cmd/yield, decomposed into deterministic
// seed-addressed trials by internal/campaign.
//
// Every subcommand is a thin shim over a declarative experiment spec
// (internal/spec): config flags compile into a Spec, -dump-spec prints
// it, and -spec runs from a spec file instead of flags ("-" reads
// stdin), so
//
//	campaign run -c fig5a -quick -dump-spec > fig5a.json
//	campaign run -spec fig5a.json -o fig5a.jsonl
//
// are the same run — and the spec file is the durable, reviewable,
// submittable description of it.
//
// Usage:
//
//	campaign plan -c fig5a -quick                      # print the trial list
//	campaign run  -c fig5a -quick -shard 0/2 -o a.jsonl   # run one shard
//	campaign run  -c fig5a -quick -shard 1/2 -o b.jsonl   # run the other
//	campaign merge a.jsonl b.jsonl                     # assemble figures
//
// Distributed mode replaces manual sharding with a one-run campaign
// service (internal/service) that leases shards to worker daemons over
// HTTP and exits when the campaign is done:
//
//	export CAMPAIGN_TOKEN=...                                  # shared secret
//	campaign serve -c fig5a -quick -addr :9090 -o fig5a.jsonl   # one-run service
//	campaign work  -coordinator http://host:9090 -checkpoint wrk/
//
// Workers are spec-free: every lease grant carries the run's canonical
// spec and each worker builds the campaign from those bytes, so a
// worker cannot be misconfigured. The merged output is byte-identical
// to a single-process run however many workers ran (and died) along the
// way.
//
// `serve -state <dir>` makes the service durable: it journals the run's
// shard table, leases and every accepted result to an append-only WAL
// in the state dir, so a serve killed mid-campaign and restarted with
// the same flags resumes the run — surviving workers re-register on
// their own and continue from their local checkpoints. `serve -balance
// <timing-source>` (and `plan -balance`) sizes shards by predicted
// wall-clock from a prior run's recorded per-trial timing instead of by
// trial count, so slow keys no longer serialize the fleet behind one
// overloaded shard.
//
// Where serve runs ONE campaign and exits, `campaign service` is the
// long-lived multi-tenant form of the same service: a persistent
// catalog that accepts specs over HTTP, schedules every admitted run
// across one shared worker fleet with priority + fair-share, and
// survives its own restart. `campaign submit`, `campaign runs` and
// `campaign drain` are its clients:
//
//	campaign service -addr :9191 -state svc/ -token $TOK     # the service
//	campaign work -coordinator http://host:9191 -token $TOK  # shared fleet
//	RUN=$(campaign submit -service http://host:9191 -token $TOK \
//	          -c selftest -trials 200 -name nightly)
//	campaign runs -service http://host:9191 -token $TOK -id $RUN -watch -o out.jsonl
//
// A run appends each completed trial to its JSONL checkpoint (-o) and
// resumes from it after an interruption, skipping completed trial IDs;
// -max bounds one sitting. Shard partials merge bit-identically to a
// single-process run. The "selftest" campaign is a tiny model-free
// synthetic sweep for smoke-testing this machinery (see -trials).
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"

	"falvolt/internal/campaign"
	"falvolt/internal/cluster"
	"falvolt/internal/service"
	"falvolt/internal/spec"
	"falvolt/internal/tensor"

	// Register the figure ("fig2", "fig5a-c", "mitigation") and "yield"
	// campaign kinds with the spec registry.
	_ "falvolt/internal/core"
	_ "falvolt/internal/experiments"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	var err error
	switch os.Args[1] {
	case "plan":
		err = planCmd(os.Args[2:])
	case "run":
		err = runCmd(os.Args[2:])
	case "serve":
		err = serveCmd(os.Args[2:])
	case "service":
		err = serviceCmd(os.Args[2:])
	case "submit":
		err = submitCmd(os.Args[2:])
	case "runs":
		err = runsCmd(os.Args[2:])
	case "drain":
		err = drainCmd(os.Args[2:])
	case "work":
		err = workCmd(os.Args[2:])
	case "merge":
		err = mergeCmd(os.Args[2:])
	case "-h", "--help", "help":
		usage()
	default:
		fmt.Fprintf(os.Stderr, "campaign: unknown subcommand %q\n\n", os.Args[1])
		usage()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "campaign:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintf(os.Stderr, `usage: campaign <plan|run|serve|service|submit|runs|drain|work|merge> [flags]

  plan  -c <kind> [-balance src] [-shards N] [config flags]
                                            print the deterministic trial list as JSON
                                            (or, with -balance/-shards, the shard table)
  run   -c <kind> -o <file> [-shard i/n] [-max N] [config flags]
                                            execute (one shard of) a campaign with
                                            JSONL checkpointing and resume
  serve -c <kind> -addr <host:port> -token <tok> [-shards N] [-lease-ttl D]
        [-o file] [-state dir] [-balance src] [-tls-cert crt -tls-key key]
        [config flags]
                                            serve ONE campaign to HTTP workers, then
                                            print the figures/report; -state makes the
                                            service survive its own restart, -balance
                                            sizes shards by recorded timing
  service -addr <host:port> -state <dir> -token <tok> [-shards N] [-lease-ttl D]
          [-retain N] [-tls-cert crt -tls-key key]
                                            long-lived multi-tenant coordinator: accepts
                                            submitted specs, fair-shares one worker fleet
                                            across all running campaigns, survives restart;
                                            -retain prunes the oldest finished runs
  submit -service <url> -token <tok> [-priority P] [-name N] [-label k=v]
         (-c <kind> [config flags] | -spec <file>)
                                            submit a spec to a service; prints the run ID
  runs   -service <url> -token <tok> [-id run [-watch] [-cancel] [-o file]]
                                            list catalog runs, or watch/cancel/fetch one
  drain  -service <url> -token <tok> -worker <id|name>
                                            gracefully retire workers (finish shard, exit)
  work  -coordinator <url> -token <tok> [-checkpoint dir] [-cache dir] [-tls-ca pem]
                                            spec-free worker daemon: campaign specs
                                            arrive from serve or service
                                            (https:// services verify via -tls-ca)
  merge [-cache dir] [-json file] [-o file] <file>...
                                            merge shard/checkpoint files and print the
                                            figures or report (plus a timing summary)

plan, run, serve and submit also accept -spec <file> (a spec replaces the
config flags; "-" reads stdin) and -dump-spec (print the compiled spec and
exit). -token flags fall back to the CAMPAIGN_TOKEN environment variable.

campaign kinds: %s
`, strings.Join(spec.Kinds(), " "))
	os.Exit(2)
}

// noPositional rejects stray arguments after flag parsing: a typo like
// `campaign run fig5a` must fail with usage, not silently run defaults.
func noPositional(fs *flag.FlagSet) error {
	if fs.NArg() > 0 {
		fs.Usage()
		return fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	return nil
}

// sigCtx is the root context of every subcommand: Ctrl-C or SIGTERM
// cancels it, aborting in-flight campaigns promptly (checkpoints keep
// the completed trials, so the same command resumes).
func sigCtx() (context.Context, context.CancelFunc) {
	return signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
}

// config collects the union of campaign configuration flags — the
// legacy surface that now compiles into a spec.Spec.
type config struct {
	specPath string
	dump     bool
	kind     string
	backend  string
	verbose  bool
	seed     int64

	// Suite (figure campaign) options.
	quick   bool
	arrayN  int
	epochs  int
	repeats int
	evalN   int
	cache   string

	// Yield campaign options.
	chips      int
	meanFaulty float64
	alpha      float64
	clustered  bool
	threshold  float64
	method     string
	mitEpochs  int
	baseEp     int

	// Selftest campaign options.
	trials  int
	delayMS int

	// Fault-model campaign options.
	model     string
	rates     string
	timesteps int
	density   float64

	// Salvage campaign options.
	models string
	mits   string

	// Site-sweep campaign options.
	bits   string
	pols   string
	sample int
}

func addConfigFlags(fs *flag.FlagSet, c *config) {
	fs.StringVar(&c.specPath, "spec", "", "experiment spec JSON file (replaces the config flags; \"-\" reads stdin)")
	fs.BoolVar(&c.dump, "dump-spec", false, "print the spec compiled from the flags and exit")
	fs.StringVar(&c.kind, "c", "", "campaign kind: "+strings.Join(spec.Kinds(), " | "))
	fs.StringVar(&c.backend, "backend", "", tensor.BackendFlagDoc)
	fs.BoolVar(&c.verbose, "v", false, "progress logging")
	fs.Int64Var(&c.seed, "seed", 7, "seed")
	fs.BoolVar(&c.quick, "quick", false, "reduced model/dataset sizes (figure campaigns)")
	fs.IntVar(&c.arrayN, "array", 64, "systolic array side (NxN)")
	fs.IntVar(&c.epochs, "epochs", 0, "retraining epochs (0 = default for mode)")
	fs.IntVar(&c.repeats, "repeats", 0, "fault maps averaged per vulnerability point (0 = default)")
	fs.IntVar(&c.evalN, "eval", 0, "test samples per deployed evaluation (0 = default)")
	fs.StringVar(&c.cache, "cache", "", "directory for baseline snapshots (reused across shards)")
	// Yield flag defaults come from the one definition of the yield
	// defaults (spec.YieldSpec.Defaulted), shared with cmd/yield and
	// the spec builder.
	ydef := spec.YieldSpec{}.Defaulted()
	fs.IntVar(&c.chips, "chips", ydef.Chips, "yield: number of simulated dies")
	fs.Float64Var(&c.meanFaulty, "mean-faulty", ydef.MeanFaulty, "yield: mean faulty PEs per die")
	fs.Float64Var(&c.alpha, "alpha", ydef.Alpha, "yield: defect clustering (smaller = heavier tails)")
	fs.BoolVar(&c.clustered, "clustered", true, "yield: spatially clustered fault maps")
	fs.Float64Var(&c.threshold, "threshold", ydef.Threshold, "yield: minimum shipping accuracy")
	fs.StringVar(&c.method, "method", ydef.Method, "yield: salvage policy fap | fapit | falvolt")
	fs.IntVar(&c.mitEpochs, "mit-epochs", ydef.MitEpochs, "yield: retraining epochs per salvaged die")
	fs.IntVar(&c.baseEp, "base-epochs", ydef.BaseEpochs, "yield: baseline training epochs")
	fs.IntVar(&c.trials, "trials", 24, "selftest: synthetic trial count")
	fs.IntVar(&c.delayMS, "delay", 0, "selftest: artificial per-trial delay in ms (scheduling smoke tests)")
	fs.StringVar(&c.model, "model", "", "faultmodel: fault model stuckat | bitflip | transient (\"\" = stuckat)")
	fs.StringVar(&c.rates, "rates", "", "faultmodel/salvage: comma-separated rate ladder (\"\" = default)")
	fs.IntVar(&c.timesteps, "timesteps", 0, "faultmodel/sitesweep: inference horizon per trial (0 = default)")
	fs.Float64Var(&c.density, "density", 0, "faultmodel/sitesweep: input spike density (0 = default)")
	fs.StringVar(&c.models, "models", "", "salvage: comma-separated fault-model axis (\"\" = default)")
	fs.StringVar(&c.mits, "mitigations", "", "salvage: comma-separated mitigation kinds: "+strings.Join(spec.MitigationKinds(), " | ")+" (\"\" = default)")
	fs.StringVar(&c.bits, "bits", "", "sitesweep: comma-separated stuck bit positions (\"\" = every word bit)")
	fs.StringVar(&c.pols, "pols", "", "sitesweep: stuck-at polarity both | sa0 | sa1 (\"\" = both)")
	fs.IntVar(&c.sample, "sample", 0, "sitesweep: seed-addressed random site subset (0 = exhaustive)")
}

// parseRates parses the -rates ladder ("0.01,0.05,0.1").
func parseRates(s string) ([]float64, error) {
	if s == "" {
		return nil, nil
	}
	var rates []float64
	for _, f := range strings.Split(s, ",") {
		r, err := strconv.ParseFloat(strings.TrimSpace(f), 64)
		if err != nil {
			return nil, fmt.Errorf("bad -rates entry %q", f)
		}
		rates = append(rates, r)
	}
	return rates, nil
}

// parseList splits a comma-separated flag into trimmed entries.
func parseList(s string) []string {
	if s == "" {
		return nil
	}
	var out []string
	for _, f := range strings.Split(s, ",") {
		out = append(out, strings.TrimSpace(f))
	}
	return out
}

// parseBits parses the -bits ladder ("0,8,31") into bit positions.
func parseBits(s string) ([]uint, error) {
	var bits []uint
	for _, f := range parseList(s) {
		b, err := strconv.ParseUint(f, 10, 8)
		if err != nil {
			return nil, fmt.Errorf("bad -bits entry %q", f)
		}
		bits = append(bits, uint(b))
	}
	return bits, nil
}

// parseMitigations turns the -mitigations kind list into specs; per-kind
// knobs (epochs, lr, vth, bypass bit) need a spec file.
func parseMitigations(s string) []spec.MitigationSpec {
	var mits []spec.MitigationSpec
	for _, kind := range parseList(s) {
		mits = append(mits, spec.MitigationSpec{Kind: kind})
	}
	return mits
}

// spec loads -spec or compiles the config flags into a Spec. The
// -backend flag overrides the spec's execution backend either way.
func (c *config) spec() (*spec.Spec, error) {
	if c.specPath != "" {
		return spec.LoadOverride(c.specPath, c.backend)
	}
	s := &spec.Spec{Version: spec.Version, Kind: c.kind, Seed: c.seed, Backend: c.backend}
	switch c.kind {
	case "":
		return nil, fmt.Errorf("missing -c <kind> or -spec <file>")
	case "yield":
		s.Yield = &spec.YieldSpec{
			Chips: c.chips, MeanFaulty: c.meanFaulty, Alpha: c.alpha,
			Clustered: c.clustered, Threshold: c.threshold, Method: c.method,
			MitEpochs: c.mitEpochs, BaseEpochs: c.baseEp, Array: c.arrayN,
			Eval: c.evalN,
		}
	case "selftest":
		s.Selftest = &spec.SelftestSpec{Trials: c.trials, DelayMillis: c.delayMS}
	case "faultmodel":
		rates, err := parseRates(c.rates)
		if err != nil {
			return nil, err
		}
		s.FaultModel = &spec.FaultModelCampaignSpec{
			Model:   spec.FaultModelSpec{Kind: c.model},
			Array:   c.arrayN,
			Rates:   rates,
			Repeats: c.repeats,
			// Batch stays at its documented default; the flag surface
			// exposes the knobs sweeps actually vary.
			Timesteps: c.timesteps,
			Density:   c.density,
		}
	case "salvage":
		rates, err := parseRates(c.rates)
		if err != nil {
			return nil, err
		}
		s.Salvage = &spec.SalvageCampaignSpec{
			Models:      parseList(c.models),
			Mitigations: parseMitigations(c.mits),
			Rates:       rates,
			Repeats:     c.repeats,
			Array:       c.arrayN,
			BaseEpochs:  c.baseEp,
			Epochs:      c.epochs,
		}
	case "sitesweep":
		bits, err := parseBits(c.bits)
		if err != nil {
			return nil, err
		}
		s.SiteSweep = &spec.SiteSweepSpec{
			Array:     c.arrayN,
			Bits:      bits,
			Pols:      c.pols,
			Sample:    c.sample,
			Timesteps: c.timesteps,
			Density:   c.density,
		}
	default:
		s.Suite = &spec.SuiteSpec{
			Quick: c.quick, Array: c.arrayN, Epochs: c.epochs,
			Repeats: c.repeats, Eval: c.evalN,
		}
	}
	return s, nil
}

// buildOpts assembles the execution-local builder resources.
func (c *config) buildOpts() spec.BuildOpts {
	opt := spec.BuildOpts{CacheDir: c.cache}
	if c.verbose {
		opt.Log = os.Stderr
	}
	return opt
}

// prepare resolves the spec and, unless -dump-spec short-circuits,
// applies the backend and builds the campaign. A nil Built with nil
// error means the spec was dumped and the subcommand should exit.
func (c *config) prepare() (*spec.Spec, *spec.Built, error) {
	s, err := c.spec()
	if err != nil {
		return nil, nil, err
	}
	if c.dump {
		return s, nil, s.Dump(os.Stdout)
	}
	if err := tensor.SetDefaultByName(s.Backend); err != nil {
		return nil, nil, err
	}
	built, err := spec.Build(s, c.buildOpts())
	if err != nil {
		return nil, nil, err
	}
	return s, built, nil
}

func planCmd(args []string) error {
	fs := flag.NewFlagSet("plan", flag.ExitOnError)
	var c config
	var (
		balance = fs.String("balance", "", "plan load-aware shards from this timing source (a checkpoint, WAL, or state dir)")
		shards  = fs.Int("shards", 0, "with -balance: print the shard table for this many shards (0 = serve's default)")
	)
	addConfigFlags(fs, &c)
	fs.Parse(args)
	if err := noPositional(fs); err != nil {
		return err
	}
	s, built, err := c.prepare()
	if err != nil || built == nil {
		return err
	}
	trials, err := built.Campaign.Trials()
	if err != nil {
		return err
	}
	// The shard-table view is opt-in by flag only: a spec file that
	// happens to carry a planner must not change what `plan` prints
	// (nor demand the timing file on a machine that only wants the
	// trial list).
	if *balance != "" || *shards > 0 {
		return printShardPlan(s, trials, plannerName(s, *balance), *shards)
	}
	b, err := json.MarshalIndent(trials, "", "  ")
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	fmt.Fprintf(os.Stderr, "%d trials (spec %s)\n", len(trials), fingerprintOf(s))
	return nil
}

// printShardPlan renders the shard table `serve` would plan —
// the dry-run view of -shards / -balance.
func printShardPlan(s *spec.Spec, trials []campaign.Trial, name string, shards int) error {
	planner, err := campaign.PlannerByName(name)
	if err != nil {
		return err
	}
	planned, err := planner.Plan(trials, campaign.ResolveShards(shards, cluster.DefaultShards, len(trials)))
	if err != nil {
		return err
	}
	type shardView struct {
		Shard            string  `json:"shard"`
		Trials           int     `json:"trials"`
		PredictedSeconds float64 `json:"predictedSeconds,omitempty"`
		IDs              []int   `json:"ids"`
	}
	view := make([]shardView, len(planned))
	for i, ps := range planned {
		view[i] = shardView{
			Shard: ps.Label, Trials: len(ps.Trials),
			PredictedSeconds: ps.PredictedSeconds, IDs: ps.TrialIDs(),
		}
	}
	b, err := json.MarshalIndent(view, "", "  ")
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	kind := name
	if kind == "" {
		kind = "uniform"
	}
	fmt.Fprintf(os.Stderr, "%d trials in %d shards (planner %s, spec %s)\n",
		len(trials), len(planned), kind, fingerprintOf(s))
	return nil
}

// plannerName resolves the effective planner: the -balance flag wins
// over the spec's planner field.
func plannerName(s *spec.Spec, balanceFlag string) string {
	if balanceFlag != "" {
		return "balance:" + balanceFlag
	}
	return s.Planner
}

func runCmd(args []string) error {
	fs := flag.NewFlagSet("run", flag.ExitOnError)
	var c config
	var (
		out      = fs.String("o", "", "checkpoint/output JSONL (default <kind>-shard<i>of<n>.jsonl)")
		shardArg = fs.String("shard", "", "run the i-th of n interleaved trial subsets (i/n); overrides the spec's shard")
		maxNew   = fs.Int("max", 0, "max new trials this sitting (0 = unlimited)")
	)
	addConfigFlags(fs, &c)
	fs.Parse(args)
	if err := noPositional(fs); err != nil {
		return err
	}
	s, built, err := c.prepare()
	if err != nil || built == nil {
		return err
	}
	shard, err := shardFor(s, *shardArg)
	if err != nil {
		return err
	}
	if *out == "" {
		*out = fmt.Sprintf("%s-shard%dof%d.jsonl", s.Kind, shard.Index, max(shard.Count, 1))
	}
	ctx, stop := sigCtx()
	defer stop()
	opt := campaign.Options{Context: ctx, Shard: shard, Checkpoint: *out, MaxNew: *maxNew}
	if c.verbose {
		opt.Log = os.Stderr
	}
	rr, err := campaign.Run(built.Campaign, opt)
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "campaign %s shard %s: %d/%d trials complete (%d resumed, %d run) -> %s\n",
		s.Kind, shard, len(rr.Results), rr.Planned, rr.Resumed, rr.Executed, *out)
	if !rr.Complete {
		fmt.Fprintln(os.Stderr, "partial: rerun the same command to resume")
		return nil
	}
	if !shard.IsWhole() {
		fmt.Fprintf(os.Stderr, "shard complete: merge all shard files with `campaign merge`\n")
		return nil
	}
	return built.Render(os.Stdout, rr.Results)
}

func serveCmd(args []string) error {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	var c config
	var (
		addr     = fs.String("addr", ":9090", "listen address")
		token    = fs.String("token", "", "bearer token workers must present (default $CAMPAIGN_TOKEN; required)")
		shards   = fs.Int("shards", 0, "shard count (0 = auto; more shards = finer reassignment)")
		leaseTTL = fs.Duration("lease-ttl", 0, "shard lease deadline without a heartbeat (0 = default)")
		out      = fs.String("o", "", "checkpoint/output JSONL (default <kind>-cluster.jsonl); resumes")
		state    = fs.String("state", "", "state directory for the run's WAL: journal shard table, leases and results; a restarted serve with the same -state resumes the run")
		balance  = fs.String("balance", "", "size shards by predicted wall-clock from this timing source (a checkpoint, WAL, or state dir of a prior run)")
		tlsCert  = fs.String("tls-cert", "", "serve HTTPS with this PEM certificate (requires -tls-key)")
		tlsKey   = fs.String("tls-key", "", "PEM private key for -tls-cert")
	)
	addConfigFlags(fs, &c)
	fs.Parse(args)
	if err := noPositional(fs); err != nil {
		return err
	}
	tok := resolveToken(*token)
	if tok == "" && !c.dump {
		return fmt.Errorf("serve needs a bearer token for its workers: pass -token or set $CAMPAIGN_TOKEN")
	}
	s, built, err := c.prepare()
	if err != nil || built == nil {
		return err
	}
	if *out == "" {
		*out = s.Kind + "-cluster.jsonl"
	}
	// Fail fast on a misconfigured -state: resolve it to an absolute
	// path and prove it writable NOW, not at the first journal append
	// mid-campaign.
	if *state != "" {
		abs, err := ensureStateDir(*state)
		if err != nil {
			return err
		}
		*state = abs
	}
	pn := plannerName(s, *balance)
	ctx, stop := sigCtx()
	defer stop()
	one := service.NewOneRun(service.Config{
		Addr: *addr, StateDir: *state, Token: tok, Shards: *shards, LeaseTTL: *leaseTTL,
		TLSCert: *tlsCert, TLSKey: *tlsKey, Log: os.Stderr,
	}, s, pn)
	// One startup line with everything an operator needs to point
	// workers (and debug a wrong flag): the RESOLVED listen address —
	// ":0" is useless in a log — plus state dir and planner.
	go func() {
		<-one.Ready()
		stateDesc := *state
		if stateDesc == "" {
			stateDesc = "temporary (a restart loses leases and results)"
		}
		planDesc := pn
		if planDesc == "" {
			planDesc = "uniform"
		}
		fmt.Fprintf(os.Stderr, "serve: listening on %s (state %s, planner %s, spec %s)\n",
			one.URL(), stateDesc, planDesc, fingerprintOf(s))
	}()
	opt := campaign.Options{Context: ctx, Runner: one, Checkpoint: *out, Log: os.Stderr}
	rr, err := campaign.Run(built.Campaign, opt)
	if err != nil {
		return err
	}
	if rr.Executed == 0 && rr.Planned > 0 {
		// Nothing was pending, so the runner — and thus the HTTP server
		// — never started; workers pointed here will see connection
		// refused, not StatusDone.
		fmt.Fprintf(os.Stderr, "checkpoint %s already complete: no service was started; stop any waiting workers\n", *out)
	}
	fmt.Fprintf(os.Stderr, "campaign %s: %d/%d trials complete -> %s\n",
		s.Kind, len(rr.Results), rr.Planned, *out)
	return built.Render(os.Stdout, rr.Results)
}

func workCmd(args []string) error {
	fs := flag.NewFlagSet("work", flag.ExitOnError)
	var (
		coord   = fs.String("coordinator", "", "base URL of a `campaign serve` or `campaign service` (http://host:port)")
		token   = fs.String("token", "", "bearer token the service requires (default $CAMPAIGN_TOKEN)")
		name    = fs.String("name", "", "worker display name (default host-pid)")
		ckptDir = fs.String("checkpoint", "", "directory for local per-shard JSONL checkpoints (resume on restart)")
		cache   = fs.String("cache", "", "directory for baseline snapshots (reused across runs)")
		poll    = fs.Duration("poll", 0, "idle poll interval (0 = default)")
		tlsCA   = fs.String("tls-ca", "", "PEM CA bundle for an https:// service with a private certificate")
		backend = fs.String("backend", "", tensor.BackendFlagDoc)
	)
	fs.Parse(args)
	if err := noPositional(fs); err != nil {
		return err
	}
	if *coord == "" {
		return fmt.Errorf("work needs -coordinator <url>")
	}
	if err := tensor.SetDefaultByName(*backend); err != nil {
		return err
	}
	ctx, stop := sigCtx()
	defer stop()
	// No campaign configuration here, by design: every lease grant ships
	// its run's canonical spec and the worker builds from it.
	w := cluster.NewWorker(cluster.WorkerConfig{
		Coordinator: *coord, Token: resolveToken(*token), Name: *name,
		CheckpointDir: *ckptDir, CacheDir: *cache, Poll: *poll,
		TLSCA: *tlsCA, Log: os.Stderr,
	})
	return w.Run(ctx)
}

// serviceCmd runs the long-lived multi-tenant coordinator: a catalog of
// submitted runs fair-shared across one worker fleet, durable across
// its own restarts (internal/service).
func serviceCmd(args []string) error {
	fs := flag.NewFlagSet("service", flag.ExitOnError)
	var (
		addr     = fs.String("addr", ":9191", "service listen address")
		state    = fs.String("state", "", "state directory (required): a lock file plus one WAL-journaled directory per run")
		token    = fs.String("token", "", "bearer token required on every endpoint (default $CAMPAIGN_TOKEN; required)")
		shards   = fs.Int("shards", 0, "shards per run (0 = auto; more shards = finer fair-share interleaving)")
		leaseTTL = fs.Duration("lease-ttl", 0, "shard lease deadline without a heartbeat (0 = default)")
		cache    = fs.String("cache", "", "directory for baseline snapshots (reused across runs)")
		retain   = fs.Int("retain", 0, "keep at most this many finished (done/failed/cancelled) runs, pruning oldest first (0 = keep all)")
		tlsCert  = fs.String("tls-cert", "", "serve HTTPS with this PEM certificate (requires -tls-key)")
		tlsKey   = fs.String("tls-key", "", "PEM private key for -tls-cert")
		backend  = fs.String("backend", "", tensor.BackendFlagDoc)
	)
	fs.Parse(args)
	if err := noPositional(fs); err != nil {
		return err
	}
	if *state == "" {
		return fmt.Errorf("service needs -state <dir>")
	}
	abs, err := ensureStateDir(*state)
	if err != nil {
		return err
	}
	if err := tensor.SetDefaultByName(*backend); err != nil {
		return err
	}
	ctx, stop := sigCtx()
	defer stop()
	svc := service.New(service.Config{
		Addr: *addr, StateDir: abs, Token: resolveToken(*token),
		Shards: *shards, LeaseTTL: *leaseTTL, CacheDir: *cache,
		Retain: *retain, TLSCert: *tlsCert, TLSKey: *tlsKey, Log: os.Stderr,
	})
	return svc.Run(ctx)
}

// submitCmd compiles a spec exactly like plan/run/serve and posts it to
// a campaign service. The run ID — the handle for `campaign runs` — is
// the only thing printed to stdout, so shells can capture it.
func submitCmd(args []string) error {
	fs := flag.NewFlagSet("submit", flag.ExitOnError)
	var c config
	labels := labelFlags{}
	var (
		svcURL   = fs.String("service", "", "campaign service base URL (http://host:port)")
		token    = fs.String("token", "", "bearer token (default $CAMPAIGN_TOKEN)")
		tlsCA    = fs.String("tls-ca", "", "PEM CA bundle for an https:// service with a private certificate")
		name     = fs.String("name", "", "catalog display name for the run (overrides the spec's name)")
		priority = fs.Int("priority", 0, fmt.Sprintf("scheduling priority %d..%d; higher leases first within the fleet", -service.MaxPriority, service.MaxPriority))
	)
	fs.Var(labels, "label", "catalog label k=v (repeatable; merged over the spec's labels)")
	addConfigFlags(fs, &c)
	fs.Parse(args)
	if err := noPositional(fs); err != nil {
		return err
	}
	s, err := c.spec()
	if err != nil {
		return err
	}
	if *name != "" {
		s.Name = *name
	}
	if len(labels) > 0 {
		if s.Labels == nil {
			s.Labels = map[string]string{}
		}
		for k, v := range labels {
			s.Labels[k] = v
		}
	}
	if c.dump {
		return s.Dump(os.Stdout)
	}
	if *svcURL == "" {
		return fmt.Errorf("submit needs -service <url>")
	}
	enc, err := s.Encode()
	if err != nil {
		return err
	}
	// The service builds and validates the spec on admission; no local
	// build here — the submitting machine may lack the dataset/caches.
	cl, err := service.NewClientTLS(*svcURL, resolveToken(*token), *tlsCA)
	if err != nil {
		return err
	}
	resp, err := cl.Submit(enc, *priority)
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "submitted %s: %d trials in %d shards (spec %s)\n",
		resp.RunID, resp.Trials, resp.Shards, resp.Fingerprint)
	fmt.Println(resp.RunID)
	return nil
}

// runsCmd is the catalog viewer: list all runs, or inspect / watch /
// cancel one and fetch its completed results.
func runsCmd(args []string) error {
	fs := flag.NewFlagSet("runs", flag.ExitOnError)
	var (
		svcURL = fs.String("service", "", "campaign service base URL (http://host:port)")
		token  = fs.String("token", "", "bearer token (default $CAMPAIGN_TOKEN)")
		tlsCA  = fs.String("tls-ca", "", "PEM CA bundle for an https:// service with a private certificate")
		id     = fs.String("id", "", "run ID (from `campaign submit`); \"\" lists the whole catalog")
		watch  = fs.Bool("watch", false, "with -id: long-poll until the run reaches a terminal state")
		cancel = fs.Bool("cancel", false, "with -id: cancel the run (idempotent)")
		out    = fs.String("o", "", "with -id: save the completed run's checkpoint JSONL here (mergeable)")
	)
	fs.Parse(args)
	if err := noPositional(fs); err != nil {
		return err
	}
	if *svcURL == "" {
		return fmt.Errorf("runs needs -service <url>")
	}
	cl, err := service.NewClientTLS(*svcURL, resolveToken(*token), *tlsCA)
	if err != nil {
		return err
	}
	if *id == "" {
		list, err := cl.List()
		if err != nil {
			return err
		}
		for _, r := range list.Runs {
			name := r.Name
			if name == "" {
				name = "-"
			}
			fmt.Printf("%s\t%s\t%d/%d\tprio %d\t%s\t%s\n",
				r.ID, r.State, r.Done, r.Trials, r.Priority, r.Kind, name)
		}
		return nil
	}
	var sum service.RunSummary
	switch {
	case *cancel:
		sum, err = cl.Cancel(*id)
	case *watch:
		sum, err = cl.Watch(*id)
	default:
		sum, err = cl.Get(*id)
	}
	if err != nil {
		return err
	}
	b, err := json.MarshalIndent(sum, "", "  ")
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	if *out != "" {
		if sum.State != service.RunDone {
			return fmt.Errorf("run %s is %s; results exist only for done runs", *id, sum.State)
		}
		data, err := cl.Results(*id)
		if err != nil {
			return err
		}
		if err := campaign.WriteFileAtomic(*out, data); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "run %s results -> %s\n", *id, *out)
	}
	return nil
}

// drainCmd gracefully retires workers: each finishes its current shard,
// then exits instead of leasing more.
func drainCmd(args []string) error {
	fs := flag.NewFlagSet("drain", flag.ExitOnError)
	var (
		svcURL = fs.String("service", "", "campaign service base URL (http://host:port)")
		token  = fs.String("token", "", "bearer token (default $CAMPAIGN_TOKEN)")
		tlsCA  = fs.String("tls-ca", "", "PEM CA bundle for an https:// service with a private certificate")
		worker = fs.String("worker", "", "worker ID or display name to drain")
	)
	fs.Parse(args)
	if err := noPositional(fs); err != nil {
		return err
	}
	if *svcURL == "" || *worker == "" {
		return fmt.Errorf("drain needs -service <url> and -worker <id|name>")
	}
	cl, err := service.NewClientTLS(*svcURL, resolveToken(*token), *tlsCA)
	if err != nil {
		return err
	}
	resp, err := cl.Drain(*worker)
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "draining %d worker(s)\n", resp.Drained)
	return nil
}

// labelFlags accumulates repeatable -label k=v flags.
type labelFlags map[string]string

func (l labelFlags) String() string {
	var parts []string
	for k, v := range l {
		parts = append(parts, k+"="+v)
	}
	return strings.Join(parts, ",")
}

func (l labelFlags) Set(s string) error {
	k, v, ok := strings.Cut(s, "=")
	if !ok || k == "" {
		return fmt.Errorf("label %q is not k=v", s)
	}
	l[k] = v
	return nil
}

// resolveToken falls back to the CAMPAIGN_TOKEN environment variable so
// tokens stay out of shell history and process listings.
func resolveToken(flagValue string) string {
	if flagValue != "" {
		return flagValue
	}
	return os.Getenv("CAMPAIGN_TOKEN")
}

// ensureStateDir resolves a -state flag to an absolute, writable
// directory — creating it if needed — so misconfiguration fails at
// startup, not at the first journal write.
func ensureStateDir(dir string) (string, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "", fmt.Errorf("resolve -state %s: %w", dir, err)
	}
	if err := os.MkdirAll(abs, 0o755); err != nil {
		return "", fmt.Errorf("-state %s unusable: %w", dir, err)
	}
	probe, err := os.CreateTemp(abs, ".probe-*")
	if err != nil {
		return "", fmt.Errorf("-state %s not writable: %w", abs, err)
	}
	probe.Close()
	os.Remove(probe.Name())
	return abs, nil
}

func mergeCmd(args []string) error {
	fs := flag.NewFlagSet("merge", flag.ExitOnError)
	var (
		cache   = fs.String("cache", "", "baseline snapshot dir (avoids retraining for mitigation merges)")
		jsonOut = fs.String("json", "", "also write merged figures/report as JSON to this file (atomic)")
		outFile = fs.String("o", "", "also write the merged results as one checkpoint JSONL (atomic)")
		backend = fs.String("backend", "", tensor.BackendFlagDoc)
		verbose = fs.Bool("v", false, "progress logging")
	)
	fs.Parse(args)
	if fs.NArg() == 0 {
		fs.Usage()
		return fmt.Errorf("merge needs at least one checkpoint file")
	}
	if err := tensor.SetDefaultByName(*backend); err != nil {
		return err
	}
	header, results, err := campaign.MergeFiles(fs.Args()...)
	if err != nil {
		return err
	}
	if missing := campaign.Missing(results, header.Trials); len(missing) > 0 {
		return fmt.Errorf("merged results cover %d/%d trials (missing ids start at %d); run the remaining shards first",
			len(results), header.Trials, missing[0])
	}
	fmt.Fprintf(os.Stderr, "merged %d files: campaign %s, %d trials\n", fs.NArg(), header.Campaign, len(results))
	// Per-key wall-clock: where this campaign's compute actually went
	// (the load-aware shard-sizing signal).
	campaign.WriteTimingSummary(os.Stderr, results)

	// The checkpoint header carries the canonical spec, so the merge
	// rebuilds the exact campaign — and its renderers — with no
	// matching flags. Resolve it before writing any artifact, so a
	// renderless merge (e.g. pre-spec checkpoint files) fails cleanly
	// instead of half-succeeding.
	s, err := spec.FromMeta(header.Meta)
	if err != nil {
		return err
	}
	opt := spec.BuildOpts{CacheDir: *cache}
	if *verbose {
		opt.Log = os.Stderr
	}
	built, err := spec.Build(s, opt)
	if err != nil {
		return err
	}
	if *outFile != "" {
		// Crash-safe: an interrupted merge never leaves a torn artifact.
		if err := campaign.WriteCheckpointAtomic(*outFile, header, results); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "merged checkpoint -> %s\n", *outFile)
	}
	if err := built.Render(os.Stdout, results); err != nil {
		return err
	}
	if *jsonOut != "" {
		v, err := built.JSON(results)
		if err != nil {
			return err
		}
		return writeJSON(*jsonOut, v)
	}
	return nil
}

// shardFor resolves the effective shard: the -shard flag wins over the
// spec's shard field.
func shardFor(s *spec.Spec, flagArg string) (campaign.Shard, error) {
	arg := flagArg
	if arg == "" {
		arg = s.Shard
	}
	return campaign.ParseShard(arg)
}

func fingerprintOf(s *spec.Spec) string {
	fp, err := s.Fingerprint()
	if err != nil {
		return "?"
	}
	return fp
}

// writeJSON writes indented JSON crash-safely (temp file + fsync +
// rename), so an interrupted merge never leaves a half-written file.
func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return campaign.WriteFileAtomic(path, append(b, '\n'))
}
