// Package experiments reproduces every figure of the paper's evaluation:
// the motivational fixed-threshold sweeps (Fig. 2), the stuck-at fault
// vulnerability analysis (Fig. 5a–c), the optimized per-layer threshold
// voltages (Fig. 6), the mitigation comparison (Fig. 7) and the
// convergence curves (Fig. 8). Each figure is a Figure value whose Print
// output is the table of series behind the corresponding plot.
//
// The Suite lazily trains one baseline PLIF-SNN per dataset (synthetic
// MNIST, N-MNIST, DVS Gesture — see internal/datasets) and snapshots it so
// every experiment starts from the same fault-free weights, mirroring the
// paper's tool flow (Fig. 4).
//
// Every figure runs as a registered campaign kind on core's trial
// plumbing: a baseline carries a core.YieldDeps, so lanes take private
// replicas through its Lane and Restore, and each Fig. 5 trial is one
// stuck-at cell measured by core.CellLane, the runner behind the
// faultsim kind. Suite.Figures folds a campaign's results into figures.
package experiments

import (
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"time"

	"falvolt/internal/core"
	"falvolt/internal/datasets"
	"falvolt/internal/fixed"
	"falvolt/internal/snn"
	"falvolt/internal/systolic"
)

// Options scales the experiment suite.
type Options struct {
	// Quick selects reduced model/dataset sizes that run in minutes on a
	// laptop; the default (false) uses the larger configuration.
	Quick bool
	// Seed drives all randomness.
	Seed int64
	// ArrayRows/Cols give the accelerator grid. The default 64x64 is the
	// "paper-proportional" array for the scaled-down models: like the
	// paper's 256x256 under its full-size networks, every row and column
	// is exercised by at least one layer (see DESIGN.md).
	ArrayRows, ArrayCols int
	// CacheDir, when set, persists trained baselines between runs.
	CacheDir string
	// Log receives progress lines (nil silences).
	Log io.Writer
	// Repeats is the number of distinct fault maps averaged per
	// vulnerability point (paper: 8). Quick default: 3.
	Repeats int
	// RetrainEpochs is the mitigation retraining budget (Fig. 6–8).
	RetrainEpochs int
	// EvalSamples caps how many test samples deployed-array evaluations
	// use (0 = all).
	EvalSamples int
	// TrainReplicas and TrainMicroBatch configure the data-parallel
	// replica training engine for baseline training and mitigation
	// retraining (see snn.TrainConfig; every configuration runs that
	// engine — zero means one lane). Replica count never changes
	// results, only wall-clock; the micro-batch size changes the
	// loss-averaging partition and therefore results.
	TrainReplicas   int
	TrainMicroBatch int
}

// DefaultOptions returns the full-scale configuration.
func DefaultOptions() Options {
	return Options{
		Seed: 7, ArrayRows: 64, ArrayCols: 64,
		Repeats: 8, RetrainEpochs: 20,
	}
}

// QuickOptions returns the reduced configuration used by tests and benches.
func QuickOptions() Options {
	return Options{
		Quick: true, Seed: 7, ArrayRows: 64, ArrayCols: 64,
		Repeats: 3, RetrainEpochs: 6, EvalSamples: 64,
	}
}

// Baseline is a trained fault-free model: its dataset name, its accuracy
// on the full test set, and the lane resources core's campaigns run on.
// Test holds the first Options.EvalSamples test samples, the slice every
// deployed evaluation uses.
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

// Suite owns lazily trained baselines and experiment-wide configuration.
type Suite struct {
	Opt Options

	mu        sync.Mutex
	baselines map[string]*Baseline
}

// NewSuite builds a suite; zero-valued options are filled from defaults.
func NewSuite(opt Options) *Suite {
	def := DefaultOptions()
	if opt.ArrayRows == 0 {
		opt.ArrayRows = def.ArrayRows
	}
	if opt.ArrayCols == 0 {
		opt.ArrayCols = def.ArrayCols
	}
	if opt.Repeats == 0 {
		opt.Repeats = def.Repeats
	}
	if opt.RetrainEpochs == 0 {
		opt.RetrainEpochs = def.RetrainEpochs
	}
	if opt.Seed == 0 {
		opt.Seed = def.Seed
	}
	return &Suite{Opt: opt, baselines: make(map[string]*Baseline)}
}

func (s *Suite) logf(format string, args ...any) {
	if s.Opt.Log != nil {
		fmt.Fprintf(s.Opt.Log, format, args...)
	}
}

// NewArray constructs the suite's accelerator.
func (s *Suite) NewArray() *systolic.Array {
	return systolic.MustNew(systolic.Config{
		Rows: s.Opt.ArrayRows, Cols: s.Opt.ArrayCols,
		Format: fixed.Q16x16, Saturate: true,
	})
}

// datasetPlan bundles the generation and model parameters of one dataset.
type datasetPlan struct {
	name       string
	spec       snn.ModelSpec
	data       datasets.Config
	epochs     int
	lr         float64
	genData    func(datasets.Config) (*datasets.Dataset, error)
	quickSpec  func(*snn.ModelSpec)
	quickData  func(*datasets.Config)
	quickEpoch int
}

func (s *Suite) plans() []datasetPlan {
	return []datasetPlan{
		{
			name:   "MNIST",
			spec:   snn.MNISTSpec(),
			data:   datasets.Config{Train: 640, Test: 256, T: 4, Seed: s.Opt.Seed},
			epochs: 20, lr: 0.02,
			genData: datasets.SyntheticMNIST,
			quickSpec: func(m *snn.ModelSpec) {
				m.EncoderC, m.BlockC, m.FCHidden = 4, []int{8, 8}, 32
			},
			quickData:  func(c *datasets.Config) { c.Train, c.Test = 320, 128 },
			quickEpoch: 12,
		},
		{
			name:   "N-MNIST",
			spec:   snn.NMNISTSpec(),
			data:   datasets.Config{Train: 640, Test: 256, T: 8, Seed: s.Opt.Seed + 1},
			epochs: 20, lr: 0.02,
			genData: datasets.SyntheticNMNIST,
			quickSpec: func(m *snn.ModelSpec) {
				m.EncoderC, m.BlockC, m.FCHidden = 4, []int{8, 8}, 32
				m.T = 5
			},
			quickData:  func(c *datasets.Config) { c.Train, c.Test, c.T = 320, 128, 5 },
			quickEpoch: 12,
		},
		{
			name:   "DVSGesture",
			spec:   snn.DVSGestureSpec(),
			data:   datasets.Config{Train: 440, Test: 176, H: 32, W: 32, T: 8, Seed: s.Opt.Seed + 2},
			epochs: 30, lr: 0.02,
			genData: datasets.SyntheticDVSGesture,
			quickSpec: func(m *snn.ModelSpec) {
				// Quick mode shrinks the gesture pipeline to 16x16 input
				// with three conv blocks (full mode keeps the paper's five).
				m.InH, m.InW = 16, 16
				m.EncoderC, m.BlockC, m.FCHidden = 4, []int{8, 8, 16}, 32
				m.T = 6
			},
			quickData: func(c *datasets.Config) {
				c.H, c.W = 16, 16
				c.Train, c.Test, c.T = 220, 88, 6
			},
			quickEpoch: 16,
		},
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
		if p.name == name {
			b, err := s.trainBaseline(p)
			if err != nil {
				return nil, err
			}
			s.baselines[name] = b
			return b, nil
		}
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

func (s *Suite) trainBaseline(p datasetPlan) (*Baseline, error) {
	spec, dcfg, epochs := p.spec, p.data, p.epochs
	if s.Opt.Quick {
		p.quickSpec(&spec)
		p.quickData(&dcfg)
		epochs = p.quickEpoch
	}
	ds, err := p.genData(dcfg)
	if err != nil {
		return nil, fmt.Errorf("experiments: generate %s: %w", p.name, err)
	}
	buildModel := func() (*snn.Model, error) {
		return snn.Build(spec, rand.New(rand.NewSource(s.Opt.Seed+99)))
	}
	model, err := buildModel()
	if err != nil {
		return nil, fmt.Errorf("experiments: build %s: %w", p.name, err)
	}

	test := ds.Test
	if n := s.Opt.EvalSamples; n > 0 && n < len(test) {
		test = test[:n]
	}
	b := &Baseline{Name: p.name, YieldDeps: core.YieldDeps{
		Model: model, Arr: s.NewArray(), Train: ds.Train, Test: test, BuildModel: buildModel,
	}}

	if path := s.cachePath(p.name); path != "" {
		if st, err := snn.LoadStateFile(path); err == nil {
			if err := model.Net.LoadState(st); err == nil {
				b.Baseline = st
				b.Acc = snn.Evaluate(model.Net, ds.Test, 32)
				s.logf("loaded cached %s baseline (acc %.3f)\n", p.name, b.Acc)
				return b, nil
			}
		}
	}

	s.logf("training %s baseline (%d samples, %d epochs)...\n", p.name, len(ds.Train), epochs)
	start := time.Now()
	acc, err := core.TrainBaseline(model, ds.Train, ds.Test, core.BaselineConfig{
		Epochs: epochs, LR: p.lr, Rng: rand.New(rand.NewSource(s.Opt.Seed + 7)),
		Replicas: s.Opt.TrainReplicas, MicroBatch: s.Opt.TrainMicroBatch,
	})
	if err != nil {
		return nil, fmt.Errorf("experiments: train %s: %w", p.name, err)
	}
	b.Acc = acc
	b.Baseline = model.Net.State()
	s.logf("%s baseline accuracy %.3f (%.1fs)\n", p.name, acc, time.Since(start).Seconds())
	if path := s.cachePath(p.name); path != "" {
		if err := snn.SaveStateFile(b.Baseline, path); err != nil {
			s.logf("warning: cache write failed: %v\n", err)
		}
	}
	return b, nil
}

func (s *Suite) cachePath(name string) string {
	if s.Opt.CacheDir == "" {
		return ""
	}
	if err := os.MkdirAll(s.Opt.CacheDir, 0o755); err != nil {
		return ""
	}
	mode := "full"
	if s.Opt.Quick {
		mode = "quick"
	}
	// The filename keys every result-affecting training knob: the
	// micro-batch partition changes trained weights, so variants must
	// not share a cached baseline (TrainReplicas is execution-only and
	// rightly absent). The "t2" revision marks the unified replica
	// trainer — dropout masks now derive from the training rng instead
	// of the layers' own streams, so baselines cached by the pre-t2
	// serial loop are not comparable and must retrain.
	mb := ""
	if s.Opt.TrainMicroBatch > 0 {
		mb = fmt.Sprintf("-mb%d", s.Opt.TrainMicroBatch)
	}
	return filepath.Join(s.Opt.CacheDir, fmt.Sprintf("%s-%s-seed%d%s-t2.gob", name, mode, s.Opt.Seed, mb))
}
