// Package experiments reproduces every figure of the paper's evaluation:
// the motivational fixed-threshold sweeps (Fig. 2), the stuck-at fault
// vulnerability analysis (Fig. 5a–c), the optimized per-layer threshold
// voltages (Fig. 6), the mitigation comparison (Fig. 7) and the
// convergence curves (Fig. 8), plus six ablations of the reproduction's
// design choices. Each figure is a Figure value whose Print output is
// the table of series behind the corresponding plot.
//
// The Suite lazily builds one baseline PLIF-SNN per dataset (synthetic
// MNIST, N-MNIST, DVS Gesture — see internal/datasets) from a
// core.BaselinePlan, so every experiment starts from the same fault-free
// weights, mirroring the paper's tool flow (Fig. 4). This package keeps
// only the trial and figure layout.
//
// Every figure runs as a registered campaign kind on core's trial
// plumbing: each runner lane holds one core.CellLane per dataset, on a
// private replica of its baseline. A Fig. 5 trial is one stuck-at cell
// (CellLane.StuckAt); a Fig. 2 or Fig. 6/7/8 trial is one mitigated cell
// (CellLane.Mitigate). An ablation trial is a Faulty cell, a
// core.BaselinePlan trained with a neuron-config override (no lane), or
// a measurement on a replica of the MNIST baseline. Suite.Figures folds
// a campaign's results into figures.
package experiments

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"

	"falvolt/internal/core"
	"falvolt/internal/snn"
	"falvolt/internal/spec"
	"falvolt/internal/systolic"
)

// Baseline is a trained fault-free model: its dataset name, its accuracy
// on the full test set, and the lane resources core's campaigns run on.
// Test holds the first Spec.Eval test samples, the slice every deployed
// evaluation uses.
type Baseline struct {
	Name string
	Acc  float64
	core.YieldDeps
}

// replica returns a private model and array restored to the baseline.
// Figure code never works on the shared Model and Arr, because a suite
// is shared by every campaign built from an equivalent spec; Lane hands
// private replicas to every lane above 0.
func (b *Baseline) replica() (*snn.Model, *systolic.Array, error) {
	model, arr, err := b.Lane(1)
	if err != nil {
		return nil, nil, err
	}
	return model, arr, b.Restore(model, arr)
}

// lane returns a core.CellLane on a private replica of the baseline,
// which the lane restores before every cell.
func (b *Baseline) lane() (*core.CellLane, error) {
	model, arr, err := b.Lane(1)
	if err != nil {
		return nil, err
	}
	return core.NewCellLane(b.YieldDeps, model, arr), nil
}

// Suite owns lazily trained baselines and experiment-wide configuration.
// Build it with SuiteFromSpec.
type Suite struct {
	// Spec is the defaulted suite section (spec.SuiteSpec.Defaulted).
	Spec spec.SuiteSpec
	// Seed drives all randomness.
	Seed int64
	// CacheDir, when set, persists trained baselines between runs.
	CacheDir string
	// Log receives progress lines (nil silences).
	Log io.Writer

	mu        sync.Mutex
	baselines map[string]*Baseline
}

func (s *Suite) logf(format string, args ...any) {
	if s.Log != nil {
		fmt.Fprintf(s.Log, format, args...)
	}
}

// suitePlan is one of the suite's baselines: its display name and plan.
type suitePlan struct {
	name string
	plan core.BaselinePlan
}

// plans lists the suite's baselines in figure order. Quick mode keeps
// core's reduced shapes and shortens N-MNIST and DVS Gesture to 5 and 6
// timesteps.
func (s *Suite) plans() []suitePlan {
	pick := func(quick, full int) int {
		if s.Spec.Quick {
			return quick
		}
		return full
	}
	plan := func(dataset string, i int64, t, train, test, epochs int) core.BaselinePlan {
		return core.BaselinePlan{
			Dataset: dataset, Quick: s.Spec.Quick, T: t, Train: train, Test: test,
			ModelSeed: s.Seed + 99, TrainSeed: s.Seed + 7, DataSeed: s.Seed + i, Array: s.Spec.Array,
			Config: core.BaselineConfig{
				Epochs: epochs, LR: 0.02,
				Replicas: s.Spec.Training.Replicas, MicroBatch: s.Spec.Training.MicroBatch,
			},
		}
	}
	return []suitePlan{
		{"MNIST", plan("mnist", 0, 0, pick(320, 640), pick(128, 256), pick(12, 20))},
		{"N-MNIST", plan("nmnist", 1, pick(5, 0), pick(320, 640), pick(128, 256), pick(12, 20))},
		{"DVSGesture", plan("dvsgesture", 2, pick(6, 0), pick(220, 440), pick(88, 176), pick(16, 30))},
	}
}

// Dataset returns the trained baseline for name ("MNIST", "N-MNIST",
// "DVSGesture"), training (or loading from cache) on first use.
func (s *Suite) Dataset(name string) (*Baseline, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if b, ok := s.baselines[name]; ok {
		return b, nil
	}
	for _, p := range s.plans() {
		if p.name != name {
			continue
		}
		deps, acc, err := p.plan.Build(s.cachePath(name), s.Log)
		if err != nil {
			return nil, fmt.Errorf("experiments: %s baseline: %w", name, err)
		}
		if n := s.Spec.Eval; n > 0 && n < len(deps.Test) {
			deps.Test = deps.Test[:n]
		}
		b := &Baseline{Name: name, Acc: acc, YieldDeps: deps}
		s.baselines[name] = b
		return b, nil
	}
	return nil, fmt.Errorf("experiments: unknown dataset %q", name)
}

// AllDatasets returns all three baselines, training as needed.
func (s *Suite) AllDatasets() ([]*Baseline, error) {
	var out []*Baseline
	for _, p := range s.plans() {
		b, err := s.Dataset(p.name)
		if err != nil {
			return nil, err
		}
		out = append(out, b)
	}
	return out, nil
}

// cachePath is the cache file of the named baseline ("" = no cache).
func (s *Suite) cachePath(name string) string {
	if s.CacheDir == "" {
		return ""
	}
	if err := os.MkdirAll(s.CacheDir, 0o755); err != nil {
		s.logf("warning: baseline cache disabled: %v\n", err)
		return ""
	}
	mode := "full"
	if s.Spec.Quick {
		mode = "quick"
	}
	// The filename keys every result-affecting training knob: the
	// micro-batch partition changes trained weights, so variants must
	// not share a cached baseline (Replicas is execution-only and
	// rightly absent). The "t2" revision marks the unified replica
	// trainer — dropout masks now derive from the training rng instead
	// of the layers' own streams, so baselines cached by the pre-t2
	// serial loop are not comparable and must retrain.
	mb := ""
	if m := s.Spec.Training.MicroBatch; m > 0 {
		mb = fmt.Sprintf("-mb%d", m)
	}
	return filepath.Join(s.CacheDir, fmt.Sprintf("%s-%s-seed%d%s-t2.gob", name, mode, s.Seed, mb))
}
