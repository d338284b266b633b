package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"falvolt/internal/campaign"
	"falvolt/internal/core"
	"falvolt/internal/datasets"
	"falvolt/internal/fixed"
	"falvolt/internal/snn"
	"falvolt/internal/spec"
	"falvolt/internal/systolic"
)

// workload is one salvage campaign the benchmark times. Each uses a
// single fault rate, so its trials are homogeneous and the workload seed
// only picks which fault instances are drawn.
type workload struct {
	Name string
	// Why is the one-sentence reason the workload exists.
	Why   string
	Model string // "mnist" (static frames) or "nmnist" (event frames)
	Fault string // faults.ModelByName name
	Rate  float64
	Mit   spec.MitigationSpec
	// Planned is the number of trials the campaign plans; the default
	// seed pins the digest of each.
	Planned int
	// Floors are the accuracy gates of the correctness check.
	MinBaseline  float64
	MinRecovered float64 // floor on mean(acc − raw); 0 = not gated
	MinRaw       float64 // floor on mean raw accuracy; 0 = not gated
}

// sizes is the scale a workload's baseline is built at.
type sizes struct {
	Train, Test, BaseEpochs int
	LR                      float64 // baseline learning rate
	// Shrink replaces the paper model's widths with tiny ones (tests).
	Shrink bool
}

const (
	// defaultSeed is the workload seed whose per-trial digests are
	// pinned; any other seed is checked against the floors only.
	defaultSeed = 1
	// baselineSeed fixes the dataset, weight init and baseline training,
	// so every workload seed salvages the same trained network and
	// baseline_acc is one exact value.
	baselineSeed = 12
	arraySide    = 64
	evalBatch    = 32
	// engine is the compute backend, as campaign run -backend takes it:
	// serial runs the campaign on one lane.
	engine = "serial"
	// scoredTrials is how many trials, IDs 0..scoredTrials-1, the
	// accuracy metrics and floors average over. The set does not depend
	// on how many trials the timed phase completes, so for a given seed
	// raw_accuracy, accuracy and sim_cycles_per_inference are exact.
	scoredTrials = 16
)

// paperSizes is the benchmark's scale: the paper's MNIST/N-MNIST
// topologies at full width on a 64×64 array, with a synthetic training
// set four times the test set. Sixty test samples are six per class, so
// a classifier that collapses to one class scores exactly chance and raw
// accuracy does not swing with class imbalance between fault instances.
var paperSizes = map[string]sizes{
	"mnist":  {Train: 240, Test: 60, BaseEpochs: 4, LR: 0.02},
	"nmnist": {Train: 240, Test: 60, BaseEpochs: 3, LR: 0.05},
}

// workloads are the benchmark's workloads. They stress different
// layers: vuln-mnist the systolic faulty-column path and per-PE bypass,
// bitflip-nmnist event input and the compiled-tile path with clean
// fast-path columns. The float training kernels are timed in set-up
// (baseline training) and by the traced run's training profile on both.
// Both run one serial lane: on a shared two-core host, two lanes made
// per-trial times swing far more between runs than one lane does.
//
// The rates keep each workload's accuracy steady across fault instances.
// At stuck-at rate 0.05, 96% of the 64-PE columns hold a faulty PE
// (1 − 0.95^64), and the recovered accuracy varies half as much between
// instances as at 0.1. A bit-flip rate of 0.01 sends a third of the
// N-MNIST instances to chance; at 0.001 raw accuracy stays near the
// baseline.
var workloads = []workload{
	{
		Name:    "vuln-mnist",
		Why:     "Fig. 5 regime: stuck-at PEs in nearly every array column and no retraining, so the systolic faulty-column path dominates",
		Model:   "mnist",
		Fault:   "stuckat",
		Rate:    0.05,
		Mit:     spec.MitigationSpec{Kind: "rescuesnn"},
		Planned: 48,

		MinBaseline:  0.5,
		MinRecovered: 0.2,
	},
	{
		Name:    "bitflip-nmnist",
		Why:     "event input and weight-SRAM flips through the compiled-tile path, with clean columns on the fast path",
		Model:   "nmnist",
		Fault:   "bitflip",
		Rate:    0.001,
		Mit:     spec.MitigationSpec{Kind: "softsnn"},
		Planned: 160,

		MinBaseline: 0.5,
		MinRaw:      0.4,
	},
}

func workloadByName(name string) (workload, error) {
	for _, w := range workloads {
		if w.Name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.Name
	}
	return workload{}, fmt.Errorf("unknown workload %q (want one of %v)", name, names)
}

// salvageSpec is the workload's salvage campaign section.
func (w workload) salvageSpec(sz sizes) spec.SalvageCampaignSpec {
	return spec.SalvageCampaignSpec{
		Models:      []string{w.Fault},
		Mitigations: []spec.MitigationSpec{w.Mit},
		Rates:       []float64{w.Rate},
		Repeats:     w.Planned,
		Array:       arraySide,
		BaseEpochs:  sz.BaseEpochs,
		Epochs:      1,
		Batch:       evalBatch,
	}
}

func (w workload) modelSpec(sz sizes) snn.ModelSpec {
	ms := snn.MNISTSpec()
	if w.Model == "nmnist" {
		ms = snn.NMNISTSpec()
	}
	if sz.Shrink {
		ms.EncoderC, ms.BlockC, ms.FCHidden = 2, []int{2, 2}, 8
	}
	return ms
}

// setup is one build of a workload's dependencies, with its phases timed.
type setup struct {
	deps     core.YieldDeps
	baseAcc  float64
	generate time.Duration // synthetic dataset generation
	train    time.Duration // baseline training and its test evaluation
	total    time.Duration // generation, model build, training, array
}

// setUp builds what the salvage campaign's lazy build closure would:
// the dataset, the trained baseline and its snapshot, and the array.
// The benchmark builds it eagerly so that the work is timed as set-up
// instead of inside the first trial.
func setUp(w workload, sz sizes) (setup, error) {
	var s setup
	start := time.Now()
	ms := w.modelSpec(sz)
	cfg := datasets.Config{Train: sz.Train, Test: sz.Test, T: ms.T, Seed: baselineSeed}
	gen := datasets.SyntheticMNIST
	if w.Model == "nmnist" {
		gen = datasets.SyntheticNMNIST
	}
	ds, err := gen(cfg)
	if err != nil {
		return s, err
	}
	s.generate = time.Since(start)

	buildModel := func() (*snn.Model, error) {
		return snn.Build(ms, rand.New(rand.NewSource(baselineSeed)))
	}
	model, err := buildModel()
	if err != nil {
		return s, err
	}
	trainStart := time.Now()
	s.baseAcc, err = core.TrainBaseline(model, ds.Train, ds.Test, core.BaselineConfig{
		Epochs: sz.BaseEpochs, LR: sz.LR, Rng: rand.New(rand.NewSource(baselineSeed + 1)),
	})
	if err != nil {
		return s, err
	}
	s.train = time.Since(trainStart)
	arr, err := systolic.New(systolic.Config{Rows: arraySide, Cols: arraySide, Format: fixed.Q16x16, Saturate: true})
	if err != nil {
		return s, err
	}
	s.deps = core.YieldDeps{
		Model: model, Baseline: model.Net.State(), Arr: arr,
		Train: ds.Train, Test: ds.Test, BuildModel: buildModel,
	}
	s.total = time.Since(start)
	return s, nil
}

// timedRun is the outcome of the untraced timed phase.
type timedRun struct {
	results []campaign.Result // completed trials, sorted by ID
	wall    time.Duration     // campaign.Run wall-clock
}

// runTimed runs the workload's salvage campaign under campaign.Run with
// a checkpoint in a fresh directory under tmpRoot, as campaign run does,
// and stops dispatching new trials once budget has elapsed. Trials in
// flight at the deadline complete and are kept.
func runTimed(w workload, sz sizes, deps core.YieldDeps, seed int64, budget time.Duration, tmpRoot string) (timedRun, error) {
	c, err := core.SalvageCampaign(w.salvageSpec(sz), seed, map[string]string{"bench": w.Name},
		func() (core.YieldDeps, error) { return deps, nil })
	if err != nil {
		return timedRun{}, err
	}
	dir, err := os.MkdirTemp(tmpRoot, "ckpt-")
	if err != nil {
		return timedRun{}, fmt.Errorf("checkpoint dir: %w", err)
	}
	defer os.RemoveAll(dir)
	ckpt := filepath.Join(dir, "salvage.jsonl")

	ctx, cancel := context.WithTimeout(context.Background(), budget)
	defer cancel()
	start := time.Now()
	rr, err := campaign.Run(c, campaign.Options{Context: ctx, Checkpoint: ckpt})
	wall := time.Since(start)
	switch {
	case err == nil:
		return timedRun{results: rr.Results, wall: wall}, nil
	case errors.Is(err, context.DeadlineExceeded):
		_, rs, rerr := campaign.ReadCheckpoint(ckpt)
		if rerr != nil {
			return timedRun{}, rerr
		}
		return timedRun{results: campaign.SortedResults(rs), wall: wall}, nil
	default:
		return timedRun{}, err
	}
}

// runScored runs, untimed, the scored trials the timed phase did not
// complete, on the campaign's own lane-0 worker, and returns their
// results sorted by ID.
func runScored(w workload, sz sizes, deps core.YieldDeps, seed int64, done []campaign.Result) ([]campaign.Result, error) {
	have := map[int]bool{}
	for _, r := range done {
		have[r.TrialID] = true
	}
	c, err := core.SalvageCampaign(w.salvageSpec(sz), seed, map[string]string{"bench": w.Name},
		func() (core.YieldDeps, error) { return deps, nil })
	if err != nil {
		return nil, err
	}
	trials, err := c.Trials()
	if err != nil {
		return nil, err
	}
	var worker campaign.Worker
	var extra []campaign.Result
	for _, t := range trials[:min(scoredTrials, len(trials))] {
		if have[t.ID] {
			continue
		}
		if worker == nil {
			if worker, err = c.NewWorker(0); err != nil {
				return nil, err
			}
		}
		r, err := worker.RunTrial(t)
		if err != nil {
			return nil, fmt.Errorf("scored trial %d: %w", t.ID, err)
		}
		extra = append(extra, r)
	}
	return extra, nil
}
