package core

import (
	"fmt"
	"io"
	"math/rand"
	"strings"
	"sync"

	"falvolt/internal/datasets"
	"falvolt/internal/fixed"
	"falvolt/internal/snn"
	"falvolt/internal/systolic"
)

// The shared synthetic baseline. Every kind that needs a trained network
// (yield, salvage, faultsim, falvolt) builds it here, so two surfaces
// that agree on (dataset, sizes, epochs, seed) construct bit-identical
// baselines by construction rather than by keeping hand-copied closures
// in sync.

// syntheticSetup resolves a dataset name into its model spec, generator
// config and synthetic generator. quick applies the shared reduced sizes
// (encoder 4 channels, conv blocks {8,8} — or a 16x16 input with
// {8,8,16} for the deeper DVS model — and a 32-unit hidden layer).
func syntheticSetup(dataset string, trainN, testN int, quick bool, seed int64) (
	snn.ModelSpec, datasets.Config, func(datasets.Config) (*datasets.Dataset, error), error) {
	var mspec snn.ModelSpec
	var gen func(datasets.Config) (*datasets.Dataset, error)
	dvs := false
	switch strings.ToLower(dataset) {
	case "mnist":
		mspec, gen = snn.MNISTSpec(), datasets.SyntheticMNIST
	case "nmnist":
		mspec, gen = snn.NMNISTSpec(), datasets.SyntheticNMNIST
	case "dvsgesture":
		mspec, gen, dvs = snn.DVSGestureSpec(), datasets.SyntheticDVSGesture, true
	default:
		return snn.ModelSpec{}, datasets.Config{}, nil, fmt.Errorf("core: unknown dataset %q", dataset)
	}
	if quick {
		mspec.EncoderC, mspec.FCHidden = 4, 32
		if dvs {
			mspec.InH, mspec.InW, mspec.BlockC = 16, 16, []int{8, 8, 16}
		} else {
			mspec.BlockC = []int{8, 8}
		}
	}
	dcfg := datasets.Config{Train: trainN, Test: testN, T: mspec.T, Seed: seed}
	if dvs {
		dcfg.H, dcfg.W = mspec.InH, mspec.InW
	}
	return mspec, dcfg, gen, nil
}

// syntheticBaseline generates the named synthetic dataset, builds its
// model (weights from seed), trains the fault-free baseline with bc
// (bc.Rng is replaced by a generator seeded seed+1) and creates a clean
// arrayN x arrayN Q16.16 saturating array. It returns the resources with
// a BuildModel factory for parallel lanes, plus the baseline test
// accuracy.
func syntheticBaseline(dataset string, trainN, testN int, quick bool, arrayN int,
	seed int64, bc BaselineConfig) (YieldDeps, float64, error) {
	mspec, dcfg, gen, err := syntheticSetup(dataset, trainN, testN, quick, seed)
	if err != nil {
		return YieldDeps{}, 0, err
	}
	ds, err := gen(dcfg)
	if err != nil {
		return YieldDeps{}, 0, err
	}
	buildModel := func() (*snn.Model, error) {
		return snn.Build(mspec, rand.New(rand.NewSource(seed)))
	}
	model, err := buildModel()
	if err != nil {
		return YieldDeps{}, 0, err
	}
	bc.Rng = rand.New(rand.NewSource(seed + 1))
	acc, err := TrainBaseline(model, ds.Train, ds.Test, bc)
	if err != nil {
		return YieldDeps{}, 0, err
	}
	arr, err := systolic.New(systolic.Config{Rows: arrayN, Cols: arrayN, Format: fixed.Q16x16, Saturate: true})
	if err != nil {
		return YieldDeps{}, 0, err
	}
	return YieldDeps{
		Model: model, Baseline: model.Net.State(), Arr: arr,
		Train: ds.Train, Test: ds.Test, BuildModel: buildModel,
	}, acc, nil
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
