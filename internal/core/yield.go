package core

import (
	"fmt"
	"io"
	"math/rand"
	"strconv"
	"sync"

	"falvolt/internal/campaign"
	"falvolt/internal/datasets"
	"falvolt/internal/faults"
	"falvolt/internal/fixed"
	"falvolt/internal/mitigation"
	"falvolt/internal/snn"
	"falvolt/internal/systolic"
	"falvolt/internal/tensor"
)

// Yield analysis.
//
// The paper's §I motivation: post-fabrication testing discards chips with
// stuck-at faults, and at realistic defect densities that destroys yield;
// FalVolt instead salvages faulty chips with a one-time, per-chip
// retraining keyed to the chip's fault map. This file quantifies that
// trade as a fault-sweep campaign: every simulated die is one
// seed-addressed trial (sample a fault map from the defect model,
// evaluate unmitigated, mitigate, evaluate again), so a yield study
// shards across processes and resumes from checkpoints like any other
// campaign, and the merged report is bit-identical however the dies were
// distributed.

// YieldConfig controls a yield study.
type YieldConfig struct {
	// Chips is the number of manufactured dies to simulate.
	Chips int
	// Defects models the per-die faulty-PE count (clustered defects).
	Defects faults.DefectModel
	// Clustered draws each die's fault map with spatial clustering
	// instead of uniformly.
	Clustered bool
	// Threshold is the minimum accuracy for a die to ship.
	Threshold float64
	// Mitigation selects the salvage policy applied to faulty dies.
	// Epochs/LR/BatchSize are passed through to Mitigate. Its Rng field
	// is ignored: every die retrains on a private generator seeded
	// Seed+die, so dies are independent trials whichever shard or lane
	// runs them.
	Mitigation mitigation.Config
	// EvalSamples caps evaluation cost per die (0 = all test samples).
	EvalSamples int
	// Rng drives the population sampling (per-die defect counts and map
	// seeds, drawn once at campaign-planning time). When nil a generator
	// seeded with Seed+1 is constructed — reproducible from the config
	// alone.
	Rng *rand.Rand
	// Seed offsets the default Rng and the per-die mitigation seeds.
	Seed int64
}

// YieldReport summarises a yield study.
type YieldReport struct {
	Chips int
	// FaultFree is the number of dies with zero faulty PEs.
	FaultFree int
	// ShippableNoMitigation counts dies clearing the threshold with
	// faults left unmitigated (bypass off) — the discard-based flow.
	ShippableNoMitigation int
	// ShippableMitigated counts dies clearing the threshold after the
	// salvage policy.
	ShippableMitigated int
	// MeanFaulty is the mean number of faulty PEs per die.
	MeanFaulty float64
}

// YieldNoMitigation returns the yield fraction of the discard-based flow.
func (r YieldReport) YieldNoMitigation() float64 {
	if r.Chips == 0 {
		return 0
	}
	return float64(r.ShippableNoMitigation) / float64(r.Chips)
}

// YieldMitigated returns the yield fraction after salvage.
func (r YieldReport) YieldMitigated() float64 {
	if r.Chips == 0 {
		return 0
	}
	return float64(r.ShippableMitigated) / float64(r.Chips)
}

// String implements fmt.Stringer.
func (r YieldReport) String() string {
	return fmt.Sprintf("yield: %d dies, mean %.1f faulty PEs; no-mitigation %.1f%% -> mitigated %.1f%%",
		r.Chips, r.MeanFaulty, 100*r.YieldNoMitigation(), 100*r.YieldMitigated())
}

// validateYield checks the population parameters shared by the campaign
// constructors.
func validateYield(cfg YieldConfig) error {
	if cfg.Chips <= 0 {
		return fmt.Errorf("core: yield study needs chips > 0")
	}
	if cfg.Threshold <= 0 || cfg.Threshold > 1 {
		return fmt.Errorf("core: threshold %v outside (0,1]", cfg.Threshold)
	}
	return nil
}

// YieldTrials enumerates the per-die trials of a yield campaign for a
// rows x cols array: the population Rng is consumed once, here, to draw
// every die's faulty-PE count and fault-map seed, so the trial list is a
// pure function of the config and all shards agree on it. Tags record
// the faulty count; Seed addresses the die's fault map and mitigation.
func YieldTrials(rows, cols int, cfg YieldConfig) ([]campaign.Trial, error) {
	if err := validateYield(cfg); err != nil {
		return nil, err
	}
	rng := cfg.Rng
	if rng == nil {
		rng = rand.New(rand.NewSource(cfg.Seed + 1))
	}
	trials := make([]campaign.Trial, cfg.Chips)
	for die := 0; die < cfg.Chips; die++ {
		n := cfg.Defects.SampleFaultyCount(rng)
		if n > rows*cols {
			n = rows * cols
		}
		trials[die] = campaign.Trial{
			ID:   die,
			Key:  fmt.Sprintf("die%04d", die),
			Seed: rng.Int63(),
			Tags: map[string]string{"faulty": strconv.Itoa(n)},
		}
	}
	return trials, nil
}

// YieldDeps bundles the resources a yield campaign's workers draw on.
type YieldDeps struct {
	// Model and Arr serve lane 0 (and the whole campaign when BuildModel
	// is nil). The model is mutated during mitigation and left in the
	// last die's retrained state.
	Model *snn.Model
	// Baseline is the fault-free snapshot restored before every die.
	Baseline *snn.NetworkState
	Arr      *systolic.Array
	// Train and Test are shared read-only across lanes.
	Train, Test []snn.Sample
	// BuildModel optionally supplies structurally identical fresh models
	// so additional lanes can evaluate dies concurrently; when nil the
	// campaign runs single-lane on Model/Arr.
	BuildModel func() (*snn.Model, error)
	// Fingerprint adds caller-level provenance (baseline training
	// epochs, dataset sizes, ...) to the checkpoint metadata, so shards
	// whose results depend on configuration the YieldConfig cannot see
	// still refuse to merge when it differs.
	Fingerprint map[string]string
}

// yieldWorker processes dies on a private model+array pair.
type yieldWorker struct {
	deps  YieldDeps
	cfg   YieldConfig
	model *snn.Model
	arr   *systolic.Array
	eval  []snn.Sample
}

// yieldCampaign implements campaign.Campaign and campaign.MetaProvider.
type yieldCampaign struct {
	deps YieldDeps
	cfg  YieldConfig
}

// YieldCampaign decomposes a yield study into a campaign: one trial per
// simulated die. Run it with campaign.Run (shard/checkpoint as needed)
// and fold the results with YieldFromResults.
func YieldCampaign(deps YieldDeps, cfg YieldConfig) (campaign.Campaign, error) {
	if err := validateYield(cfg); err != nil {
		return nil, err
	}
	if deps.Model == nil || deps.Baseline == nil || deps.Arr == nil {
		return nil, fmt.Errorf("core: yield campaign needs model, baseline and array")
	}
	return &yieldCampaign{deps: deps, cfg: cfg}, nil
}

// Name implements campaign.Campaign.
func (c *yieldCampaign) Name() string { return "yield" }

// Meta implements campaign.MetaProvider.
func (c *yieldCampaign) Meta() map[string]string {
	acfg := c.deps.Arr.Config()
	return yieldMeta(acfg.Rows, acfg.Cols, c.cfg, c.deps.Fingerprint)
}

// yieldMeta fingerprints every result-affecting knob of a yield
// campaign (population, salvage policy and its retraining budget,
// evaluation size) plus caller-level extras, so shards run with
// different settings refuse to merge; chips and threshold additionally
// let merge rebuild the report without the model.
func yieldMeta(rows, cols int, cfg YieldConfig, extra map[string]string) map[string]string {
	m := map[string]string{
		"chips":      strconv.Itoa(cfg.Chips),
		"threshold":  strconv.FormatFloat(cfg.Threshold, 'g', -1, 64),
		"array":      fmt.Sprintf("%dx%d", rows, cols),
		"mean":       strconv.FormatFloat(cfg.Defects.MeanFaulty, 'g', -1, 64),
		"alpha":      strconv.FormatFloat(cfg.Defects.Alpha, 'g', -1, 64),
		"clustered":  strconv.FormatBool(cfg.Clustered),
		"method":     cfg.Mitigation.Method.String(),
		"mit-epochs": strconv.Itoa(cfg.Mitigation.Epochs),
		"mit-lr":     strconv.FormatFloat(cfg.Mitigation.LR, 'g', -1, 64),
		"mit-batch":  strconv.Itoa(cfg.Mitigation.BatchSize),
		"eval":       strconv.Itoa(cfg.EvalSamples),
		"seed":       strconv.FormatInt(cfg.Seed, 10),
	}
	for k, v := range extra {
		m[k] = v
	}
	return m
}

// Trials implements campaign.Campaign.
func (c *yieldCampaign) Trials() ([]campaign.Trial, error) {
	acfg := c.deps.Arr.Config()
	return YieldTrials(acfg.Rows, acfg.Cols, c.cfg)
}

// NewWorker implements campaign.Campaign. Lane 0 reuses the caller's
// model and array; further lanes build private replicas.
func (c *yieldCampaign) NewWorker(lane int) (campaign.Worker, error) {
	w := &yieldWorker{deps: c.deps, cfg: c.cfg}
	w.eval = c.deps.Test
	if c.cfg.EvalSamples > 0 && c.cfg.EvalSamples < len(c.deps.Test) {
		w.eval = c.deps.Test[:c.cfg.EvalSamples]
	}
	if lane == 0 {
		w.model, w.arr = c.deps.Model, c.deps.Arr
		return w, nil
	}
	if c.deps.BuildModel == nil {
		return nil, fmt.Errorf("core: yield campaign is single-lane (no BuildModel); run it on a serial runner")
	}
	m, err := c.deps.BuildModel()
	if err != nil {
		return nil, err
	}
	acfg := c.deps.Arr.Config()
	arr, err := systolic.New(acfg)
	if err != nil {
		return nil, err
	}
	w.model, w.arr = m, arr
	return w, nil
}

// lazyYieldCampaign defers resource construction to first worker use.
type lazyYieldCampaign struct {
	rows, cols  int
	cfg         YieldConfig
	fingerprint map[string]string
	build       func() (YieldDeps, error)

	once  sync.Once
	inner *yieldCampaign
	err   error
}

// LazyYieldCampaign is YieldCampaign with the expensive resources
// (trained baseline, arrays) built by the callback on first NewWorker
// call instead of up front: planning trials, and resuming a checkpoint
// that already covers every trial, never pay for baseline training.
// rows/cols give the array extent (needed for trial enumeration).
func LazyYieldCampaign(rows, cols int, cfg YieldConfig, fingerprint map[string]string,
	build func() (YieldDeps, error)) (campaign.Campaign, error) {
	if err := validateYield(cfg); err != nil {
		return nil, err
	}
	return &lazyYieldCampaign{rows: rows, cols: cols, cfg: cfg, fingerprint: fingerprint, build: build}, nil
}

// Name implements campaign.Campaign.
func (c *lazyYieldCampaign) Name() string { return "yield" }

// Meta implements campaign.MetaProvider (identical to the eager
// campaign's, so eager and lazy shard files merge).
func (c *lazyYieldCampaign) Meta() map[string]string {
	return yieldMeta(c.rows, c.cols, c.cfg, c.fingerprint)
}

// Trials implements campaign.Campaign without touching the resources.
func (c *lazyYieldCampaign) Trials() ([]campaign.Trial, error) {
	return YieldTrials(c.rows, c.cols, c.cfg)
}

// NewWorker implements campaign.Campaign, building the resources once.
// Runner lanes create workers sequentially per lane, but distinct lanes
// may race here, so the first build is serialized by the campaign.
func (c *lazyYieldCampaign) NewWorker(lane int) (campaign.Worker, error) {
	c.once.Do(func() {
		deps, err := c.build()
		if err != nil {
			c.err = err
			return
		}
		deps.Fingerprint = c.fingerprint
		acfg := deps.Arr.Config()
		if acfg.Rows != c.rows || acfg.Cols != c.cols {
			c.err = fmt.Errorf("core: lazy yield campaign built a %dx%d array, planned %dx%d",
				acfg.Rows, acfg.Cols, c.rows, c.cols)
			return
		}
		c.inner = &yieldCampaign{deps: deps, cfg: c.cfg}
	})
	if c.err != nil {
		return nil, c.err
	}
	return c.inner.NewWorker(lane)
}

// RunTrial implements campaign.Worker: simulate one die.
func (w *yieldWorker) RunTrial(t campaign.Trial) (campaign.Result, error) {
	n, err := strconv.Atoi(t.Tags["faulty"])
	if err != nil {
		return campaign.Result{}, fmt.Errorf("core: die %d has bad faulty tag %q", t.ID, t.Tags["faulty"])
	}
	res := campaign.Result{TrialID: t.ID, Key: t.Key}
	rows, cols := w.arr.Config().Rows, w.arr.Config().Cols
	fm, err := w.dieFaultMap(rows, cols, n, rand.New(rand.NewSource(t.Seed)))
	if err != nil {
		return campaign.Result{}, fmt.Errorf("core: die %d: %w", t.ID, err)
	}
	faulty := fm.NumFaultyPEs()
	if faulty == 0 {
		res.Metrics = map[string]float64{"faulty": 0}
		return res, nil
	}

	// Discard-based flow: raw faulty accuracy.
	w.model.Net.Undeploy()
	if err := w.model.Net.LoadState(w.deps.Baseline); err != nil {
		return campaign.Result{}, err
	}
	rawAcc, err := EvaluateFaultyOpts(w.model, w.arr, fm, w.eval, EvalOptions{
		BatchSize: 32, Engine: w.cfg.Mitigation.Engine,
	})
	if err != nil {
		return campaign.Result{}, err
	}

	// Salvage flow: per-die mitigation on a die-seeded generator.
	w.model.Net.Undeploy()
	if err := w.model.Net.LoadState(w.deps.Baseline); err != nil {
		return campaign.Result{}, err
	}
	mcfg := w.cfg.Mitigation
	mcfg.Rng = rand.New(rand.NewSource(w.cfg.Seed + int64(t.ID)))
	mrep, err := mitigation.Mitigate(w.model, w.arr, fm, w.deps.Train, w.eval, mcfg)
	if err != nil {
		return campaign.Result{}, err
	}
	res.Metrics = map[string]float64{
		"faulty": float64(faulty),
		"raw":    rawAcc,
		"mit":    mrep.Accuracy,
		"pruned": mrep.PrunedFraction,
	}
	return res, nil
}

// dieFaultMap draws one die's fault map from its trial seed.
func (w *yieldWorker) dieFaultMap(rows, cols, n int, rng *rand.Rand) (*faults.Map, error) {
	if n == 0 {
		return faults.NewMap(rows, cols), nil
	}
	if w.cfg.Clustered {
		clusters := 1 + n/8
		return faults.GenerateClustered(rows, cols, faults.ClusterSpec{
			Clusters: clusters, MeanSize: (n + clusters - 1) / clusters,
			Radius: 1.5, BitMode: faults.MSBBits, Pol: faults.StuckAt1,
		}, rng)
	}
	return faults.Generate(rows, cols, faults.GenSpec{
		NumFaulty: n, BitMode: faults.MSBBits, Pol: faults.StuckAt1,
	}, rng)
}

// YieldFromResults folds merged campaign results into a YieldReport.
// Counts accumulate in ascending trial-ID order (integers, so the report
// is exactly reproducible however the dies were sharded). The result set
// must cover every die.
func YieldFromResults(results []campaign.Result, chips int, threshold float64) (*YieldReport, error) {
	if missing := campaign.Missing(results, chips); len(missing) > 0 {
		return nil, fmt.Errorf("core: yield results incomplete: %d of %d dies missing (first %d)",
			len(missing), chips, missing[0])
	}
	if len(results) != chips {
		return nil, fmt.Errorf("core: %d results for %d dies", len(results), chips)
	}
	rep := &YieldReport{Chips: chips}
	totalFaulty := 0
	for _, r := range results {
		n := int(r.Metrics["faulty"])
		totalFaulty += n
		if n == 0 {
			rep.FaultFree++
			rep.ShippableNoMitigation++
			rep.ShippableMitigated++
			continue
		}
		if r.Metrics["raw"] >= threshold {
			rep.ShippableNoMitigation++
		}
		if r.Metrics["mit"] >= threshold {
			rep.ShippableMitigated++
		}
	}
	rep.MeanFaulty = float64(totalFaulty) / float64(chips)
	return rep, nil
}

// SyntheticYieldFingerprint is the provenance metadata for the shared
// synthetic-MNIST yield baseline: the knobs SyntheticYieldBuild bakes
// in that YieldConfig cannot see. cmd/yield and cmd/campaign both
// record it, so their shard files and cluster workers interoperate iff
// the baseline setup matches.
func SyntheticYieldFingerprint(baseEpochs int) map[string]string {
	return map[string]string{
		"base-epochs": strconv.Itoa(baseEpochs),
		"baseline":    "synthetic-mnist-320/128",
	}
}

// SyntheticYieldBuild returns the canonical baseline-build closure for
// yield studies on the synthetic MNIST stand-in: dataset, reduced model
// spec, baseline training, and the systolic array. It exists in one
// place because cmd/yield and cmd/campaign must construct bit-identical
// baselines for the SyntheticYieldFingerprint contract to hold — a
// drift between two hand-copied closures would pass fingerprint
// verification and only surface as a mid-campaign result conflict.
// Progress lines go to log (nil silences).
func SyntheticYieldBuild(seed int64, baseEpochs, arrayN int, threshold float64, log io.Writer) func() (YieldDeps, error) {
	logf := func(format string, args ...any) {
		if log != nil {
			fmt.Fprintf(log, format, args...)
		}
	}
	return func() (YieldDeps, error) {
		ds, err := datasets.SyntheticMNIST(datasets.Config{Train: 320, Test: 128, T: 4, Seed: seed})
		if err != nil {
			return YieldDeps{}, err
		}
		spec := snn.MNISTSpec()
		spec.EncoderC, spec.BlockC, spec.FCHidden = 4, []int{8, 8}, 32
		buildModel := func() (*snn.Model, error) {
			return snn.Build(spec, rand.New(rand.NewSource(seed)))
		}
		model, err := buildModel()
		if err != nil {
			return YieldDeps{}, err
		}
		logf("training baseline...\n")
		baseAcc, err := TrainBaseline(model, ds.Train, ds.Test, BaselineConfig{
			Epochs: baseEpochs, LR: 0.02, Rng: rand.New(rand.NewSource(seed + 1)),
		})
		if err != nil {
			return YieldDeps{}, err
		}
		logf("baseline accuracy %.3f; shipping threshold %.2f\n", baseAcc, threshold)
		arr, err := systolic.New(systolic.Config{Rows: arrayN, Cols: arrayN, Format: fixed.Q16x16, Saturate: true})
		if err != nil {
			return YieldDeps{}, err
		}
		// BuildModel lets the campaign evaluate dies on every engine
		// lane concurrently instead of one at a time.
		return YieldDeps{
			Model: model, Baseline: model.Net.State(), Arr: arr,
			Train: ds.Train, Test: ds.Test, BuildModel: buildModel,
		}, nil
	}
}

// YieldStudy simulates cfg.Chips manufactured dies of the given array
// size, evaluates each unmitigated and after the salvage policy, and
// reports shippable counts. The model is restored from baseline before
// every die. It is the single-process convenience wrapper over
// YieldCampaign + campaign.Run + YieldFromResults; use those directly
// for sharding, checkpointing, or parallel lanes (BuildModel).
func YieldStudy(model *snn.Model, baseline *snn.NetworkState, arr *systolic.Array,
	train, test []snn.Sample, cfg YieldConfig) (*YieldReport, error) {
	c, err := YieldCampaign(YieldDeps{
		Model: model, Baseline: baseline, Arr: arr, Train: train, Test: test,
	}, cfg)
	if err != nil {
		return nil, err
	}
	// Single-lane: the caller handed us one mutable model, so dies run
	// sequentially on it exactly as the pre-campaign implementation did.
	rr, err := campaign.Run(c, campaign.Options{
		Runner: campaign.PoolRunner{Engine: tensor.Serial()},
	})
	if err != nil {
		return nil, err
	}
	return YieldFromResults(rr.Results, cfg.Chips, cfg.Threshold)
}
