package core

import (
	"fmt"
	"io"
	"math/rand"
	"strings"
	"sync"
	"time"

	"falvolt/internal/datasets"
	"falvolt/internal/fixed"
	"falvolt/internal/snn"
	"falvolt/internal/systolic"
)

// BaselinePlan is one trained fault-free baseline. Every surface that
// needs a trained network (the figure suite, yield, salvage, faultsim,
// falvolt) builds it from a plan, so two surfaces that agree on the plan
// construct bit-identical baselines by construction rather than by
// keeping hand-copied closures in sync.
type BaselinePlan struct {
	// Dataset names the synthetic dataset: "mnist", "nmnist" or
	// "dvsgesture" (case-insensitive).
	Dataset string
	// Quick applies the shared reduced sizes: encoder 4 channels, conv
	// blocks {8,8} — or a 16x16 input with {8,8,16} for the deeper DVS
	// model — and a 32-unit hidden layer.
	Quick bool
	// T overrides the model's and the data's timesteps (0 keeps the
	// model spec's).
	T int
	// Neuron, when set, replaces the model spec's neuron config.
	Neuron *snn.NeuronConfig
	// Train and Test are the generated split sizes.
	Train, Test int
	// ModelSeed draws the initial weights, TrainSeed the training
	// shuffles (it replaces Config.Rng) and DataSeed the dataset.
	ModelSeed, TrainSeed, DataSeed int64
	// Array is the side of the clean Q16.16 saturating array.
	Array int
	// Config is the training recipe.
	Config BaselineConfig
}

// setup resolves the plan's model spec, generator config and synthetic
// generator without generating anything.
func (p BaselinePlan) setup() (snn.ModelSpec, datasets.Config, func(datasets.Config) (*datasets.Dataset, error), error) {
	var mspec snn.ModelSpec
	var gen func(datasets.Config) (*datasets.Dataset, error)
	dvs := false
	switch strings.ToLower(p.Dataset) {
	case "mnist":
		mspec, gen = snn.MNISTSpec(), datasets.SyntheticMNIST
	case "nmnist":
		mspec, gen = snn.NMNISTSpec(), datasets.SyntheticNMNIST
	case "dvsgesture":
		mspec, gen, dvs = snn.DVSGestureSpec(), datasets.SyntheticDVSGesture, true
	default:
		return snn.ModelSpec{}, datasets.Config{}, nil, fmt.Errorf("core: unknown dataset %q", p.Dataset)
	}
	if p.Quick {
		mspec.EncoderC, mspec.FCHidden = 4, 32
		if dvs {
			mspec.InH, mspec.InW, mspec.BlockC = 16, 16, []int{8, 8, 16}
		} else {
			mspec.BlockC = []int{8, 8}
		}
	}
	if p.T > 0 {
		mspec.T = p.T
	}
	if p.Neuron != nil {
		mspec.Neuron = *p.Neuron
	}
	dcfg := datasets.Config{Train: p.Train, Test: p.Test, T: mspec.T, Seed: p.DataSeed}
	if dvs {
		dcfg.H, dcfg.W = mspec.InH, mspec.InW
	}
	return mspec, dcfg, gen, nil
}

// ModelSpec resolves the plan's model spec, validating the dataset name
// without generating data or training.
func (p BaselinePlan) ModelSpec() (snn.ModelSpec, error) {
	mspec, _, _, err := p.setup()
	return mspec, err
}

// Build generates the plan's dataset, builds its model and a clean
// array, and trains the baseline. It returns the lane resources, with a
// BuildModel factory for parallel lanes, and the accuracy on the full
// test set. A non-empty cache names a state file: a loadable one stands
// in for training (the accuracy is measured afresh), and a freshly
// trained state is written there crash-safely. Cache and training
// progress go to log (nil silences).
func (p BaselinePlan) Build(cache string, log io.Writer) (YieldDeps, float64, error) {
	mspec, dcfg, gen, err := p.setup()
	if err != nil {
		return YieldDeps{}, 0, err
	}
	ds, err := gen(dcfg)
	if err != nil {
		return YieldDeps{}, 0, err
	}
	arr, err := systolic.New(systolic.Config{Rows: p.Array, Cols: p.Array, Format: fixed.Q16x16, Saturate: true})
	if err != nil {
		return YieldDeps{}, 0, err
	}
	buildModel := func() (*snn.Model, error) {
		return snn.Build(mspec, rand.New(rand.NewSource(p.ModelSeed)))
	}
	model, err := buildModel()
	if err != nil {
		return YieldDeps{}, 0, err
	}
	deps := YieldDeps{Model: model, Arr: arr, Train: ds.Train, Test: ds.Test, BuildModel: buildModel}
	if cache != "" {
		if st, err := snn.LoadStateFile(cache); err == nil && model.Net.LoadState(st) == nil {
			deps.Baseline = st
			acc := snn.Evaluate(model.Net, ds.Test, 32)
			logf(log, "loaded cached %s baseline (acc %.3f)\n", p.Dataset, acc)
			return deps, acc, nil
		}
	}
	logf(log, "training %s baseline (%d samples, %d epochs)...\n", p.Dataset, len(ds.Train), p.Config.Epochs)
	start := time.Now()
	bc := p.Config
	bc.Rng = rand.New(rand.NewSource(p.TrainSeed))
	acc, err := TrainBaseline(model, ds.Train, ds.Test, bc)
	if err != nil {
		return YieldDeps{}, 0, err
	}
	deps.Baseline = model.Net.State()
	logf(log, "%s baseline accuracy %.3f (%.1fs)\n", p.Dataset, acc, time.Since(start).Seconds())
	if cache != "" {
		if err := snn.SaveStateFile(deps.Baseline, cache); err != nil {
			logf(log, "warning: baseline cache write failed: %v\n", err)
		}
	}
	return deps, acc, nil
}

// logf writes one progress line to w (nil silences).
func logf(w io.Writer, format string, args ...any) {
	if w != nil {
		fmt.Fprintf(w, format, args...)
	}
}

// lazyDeps builds a campaign's baseline resources once, on first worker
// use: planning trials, and resuming a checkpoint that already covers
// every trial, never pay for baseline training. Distinct runner lanes
// may race into get; the build runs once.
type lazyDeps struct {
	build func() (YieldDeps, error)
	once  sync.Once
	deps  YieldDeps
	err   error
}

func (l *lazyDeps) get() (YieldDeps, error) {
	l.once.Do(func() { l.deps, l.err = l.build() })
	return l.deps, l.err
}

// Lane returns the model and array a runner lane works on: lane 0 reuses
// the shared pair, further lanes get private replicas from BuildModel.
func (d YieldDeps) Lane(lane int) (*snn.Model, *systolic.Array, error) {
	if lane == 0 {
		return d.Model, d.Arr, nil
	}
	if d.BuildModel == nil {
		return nil, nil, fmt.Errorf("core: campaign is single-lane (no BuildModel); run it on a serial runner")
	}
	m, err := d.BuildModel()
	if err != nil {
		return nil, nil, err
	}
	arr, err := systolic.New(d.Arr.Config())
	if err != nil {
		return nil, nil, err
	}
	return m, arr, nil
}

// Restore returns model and arr to the fault-free baseline: undeployed,
// baseline weights, no faults, bypass off.
func (d YieldDeps) Restore(model *snn.Model, arr *systolic.Array) error {
	model.Net.Undeploy()
	arr.ClearFaults()
	arr.SetBypass(false)
	return model.Net.LoadState(d.Baseline)
}
