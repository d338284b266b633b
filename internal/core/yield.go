package core

import (
	"fmt"
	"io"
	"math/rand"
	"strconv"

	"falvolt/internal/campaign"
	"falvolt/internal/faults"
	"falvolt/internal/mitigation"
	"falvolt/internal/snn"
	"falvolt/internal/systolic"
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
	// Method is the salvage policy applied to faulty dies.
	Method mitigation.Method
	// Mitigation configures Method's retraining; Epochs/LR/BatchSize
	// are passed through to Mitigate. Its Train and Test are the lane's
	// and its Rng is ignored: every die retrains on a private generator
	// seeded Seed+die, so dies are independent trials whichever shard or
	// lane runs them.
	Mitigation mitigation.Options
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
}

// LazyYieldCampaign decomposes a yield study into a campaign: one trial
// per simulated die. The expensive resources (trained baseline, arrays)
// are built by the callback on the first NewWorker call, not up front:
// planning trials, and resuming a checkpoint that already covers every
// trial, never pay for baseline training. rows/cols give the array
// extent (needed for trial enumeration). Lane 0 works on the built
// model and array; further lanes build private replicas. Run it with
// campaign.Run (shard/checkpoint as needed) and fold the results with
// YieldFromResults.
func LazyYieldCampaign(rows, cols int, cfg YieldConfig, fingerprint map[string]string,
	build func() (YieldDeps, error)) (campaign.Campaign, error) {
	trials, err := YieldTrials(rows, cols, cfg)
	if err != nil {
		return nil, err
	}
	lazy := &lazyDeps{build: func() (YieldDeps, error) {
		deps, err := build()
		if err != nil {
			return YieldDeps{}, err
		}
		return deps, plannedArray("yield", deps.Arr, rows, cols)
	}}
	meta := yieldMeta(rows, cols, cfg, fingerprint)
	return campaign.NewWithMeta("yield", meta, trials, func(lane int) (campaign.Worker, error) {
		deps, err := lazy.get()
		if err != nil {
			return nil, err
		}
		model, arr, err := deps.Lane(lane)
		if err != nil {
			return nil, err
		}
		if cfg.EvalSamples > 0 && cfg.EvalSamples < len(deps.Test) {
			deps.Test = deps.Test[:cfg.EvalSamples]
		}
		cl := NewCellLane(deps, model, arr)
		return campaign.WorkerFunc(func(t campaign.Trial) (campaign.Result, error) {
			return yieldDie(cl, rows, cols, cfg, t)
		}), nil
	}), nil
}

// plannedArray checks that a lazily built array has the extent its
// campaign enumerated trials for.
func plannedArray(kind string, arr *systolic.Array, rows, cols int) error {
	if acfg := arr.Config(); acfg.Rows != rows || acfg.Cols != cols {
		return fmt.Errorf("core: lazy %s campaign built a %dx%d array, planned %dx%d",
			kind, acfg.Rows, acfg.Cols, rows, cols)
	}
	return nil
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
		"method":     cfg.Method.String(),
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

// yieldDie simulates one die on cl: draw its fault map, then measure
// it unmitigated and after the salvage policy, which retrains on a
// die-seeded generator.
func yieldDie(cl *CellLane, rows, cols int, cfg YieldConfig, t campaign.Trial) (campaign.Result, error) {
	n, err := strconv.Atoi(t.Tags["faulty"])
	if err != nil {
		return campaign.Result{}, fmt.Errorf("core: die %d has bad faulty tag %q", t.ID, t.Tags["faulty"])
	}
	res := campaign.Result{TrialID: t.ID, Key: t.Key}
	fm, err := dieFaultMap(rows, cols, n, cfg.Clustered, rand.New(rand.NewSource(t.Seed)))
	if err != nil {
		return campaign.Result{}, fmt.Errorf("core: die %d: %w", t.ID, err)
	}
	faulty := fm.NumFaultyPEs()
	if faulty == 0 {
		res.Metrics = map[string]float64{"faulty": 0}
		return res, nil
	}
	rawAcc, err := cl.Faulty(rows, func(arr *systolic.Array) error { return arr.InjectFaults(fm) })
	if err != nil {
		return campaign.Result{}, err
	}
	opt := cfg.Mitigation
	opt.Rng = rand.New(rand.NewSource(cfg.Seed + int64(t.ID)))
	mrep, err := cl.Mitigate(fm, cfg.Method, opt)
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
func dieFaultMap(rows, cols, n int, clustered bool, rng *rand.Rand) (*faults.Map, error) {
	if n == 0 {
		return faults.NewMap(rows, cols), nil
	}
	if clustered {
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
// in that YieldConfig cannot see. Every yield campaign records it, so
// shard files and cluster workers interoperate iff the baseline setup
// matches.
func SyntheticYieldFingerprint(baseEpochs int) map[string]string {
	return map[string]string{
		"base-epochs": strconv.Itoa(baseEpochs),
		"baseline":    "synthetic-mnist-320/128",
	}
}

// SyntheticYieldBuild returns the canonical baseline-build closure for
// yield studies: the quick synthetic-MNIST baseline plan (320/128
// samples). The yield kind builds through it, so the
// SyntheticYieldFingerprint contract holds by construction.
// Progress lines go to log (nil silences).
func SyntheticYieldBuild(seed int64, baseEpochs, arrayN int, threshold float64, log io.Writer) func() (YieldDeps, error) {
	return func() (YieldDeps, error) {
		logf(log, "training baseline...\n")
		deps, acc, err := BaselinePlan{
			Dataset: "mnist", Quick: true, Train: 320, Test: 128,
			ModelSeed: seed, TrainSeed: seed + 1, DataSeed: seed, Array: arrayN,
			Config: BaselineConfig{Epochs: baseEpochs, LR: 0.02},
		}.Build("", nil)
		if err != nil {
			return YieldDeps{}, err
		}
		logf(log, "baseline accuracy %.3f; shipping threshold %.2f\n", acc, threshold)
		return deps, nil
	}
}
