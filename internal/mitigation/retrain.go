package mitigation

import (
	"fmt"
	"math/rand"
	"strings"
	"time"

	"falvolt/internal/faults"
	"falvolt/internal/mapping"
	"falvolt/internal/snn"
	"falvolt/internal/systolic"
	"falvolt/internal/tensor"
)

// The paper's retraining family (Algorithm 1). This engine moved here
// verbatim from internal/core; every figure built on it is unchanged.

// Method selects the retraining-family strategy.
type Method int

const (
	// FaP is fault-aware pruning only.
	FaP Method = iota
	// FaPIT is fault-aware pruning with retraining, fixed threshold.
	FaPIT
	// FalVolt is fault-aware pruning with retraining and per-layer
	// threshold-voltage optimization.
	FalVolt
)

// String implements fmt.Stringer.
func (m Method) String() string {
	switch m {
	case FaP:
		return "FaP"
	case FaPIT:
		return "FaPIT"
	case FalVolt:
		return "FalVolt"
	default:
		return fmt.Sprintf("Method(%d)", int(m))
	}
}

// ParseMethod parses a retraining-family method name: "fap", "fapit"
// or "falvolt", case-insensitively (so both the flag spellings and the
// Method.String() forms parse). The empty name selects FalVolt.
func ParseMethod(name string) (Method, error) {
	switch strings.ToLower(name) {
	case "fap":
		return FaP, nil
	case "fapit":
		return FaPIT, nil
	case "falvolt", "":
		return FalVolt, nil
	}
	return 0, fmt.Errorf("mitigation: unknown method %q (want fap, fapit or falvolt)", name)
}

// Config controls a retraining-family mitigation run.
type Config struct {
	Method Method
	// Epochs is the retraining budget (ignored for FaP).
	Epochs int
	// BatchSize and LR configure the retraining loop.
	BatchSize int
	LR        float64
	// FixedVth, when non-zero, forces every spiking layer to this
	// threshold before retraining — the Fig. 2 fixed-threshold sweeps.
	// FaPIT conventionally uses 1.0 (the training default).
	FixedVth float64
	// ClipNorm caps the global gradient norm during retraining.
	ClipNorm float64
	// Rng drives batch shuffling. When nil, a generator seeded with Seed
	// is constructed, so runs are reproducible from the config alone —
	// never from the wall clock.
	Rng *rand.Rand
	// Seed seeds the default Rng (0 selects seed 1). Ignored when Rng is
	// supplied.
	Seed int64
	// Engine is the compute backend retraining and evaluation run on
	// (nil selects tensor.Default()). Mitigate installs it on the model's
	// network (part of the "model is modified in place" contract) and it
	// remains in effect afterwards; call Network.SetEngine to change it.
	// Results are bit-identical on every engine; only wall-clock changes.
	Engine tensor.Backend
	// TrackCurve records float-path test accuracy after every retraining
	// epoch (the Fig. 8 convergence curves). Costs one evaluation/epoch.
	TrackCurve bool
	// CurveEvalSize limits how many test samples the per-epoch curve uses
	// (0 = all).
	CurveEvalSize int
	// Replicas and MicroBatch configure the data-parallel replica
	// training engine for retraining (see snn.TrainConfig; every
	// configuration runs that engine — zero replicas means one lane).
	// Replica count never changes results, only wall-clock.
	Replicas   int
	MicroBatch int
	// Progress observes retraining (epoch, mean loss); nil is silent —
	// the library default. cmd tools install a printer.
	Progress func(epoch int, loss float64)
}

// EpochPoint is one point of a retraining convergence curve.
type EpochPoint struct {
	Epoch    int
	Loss     float64
	Accuracy float64
}

// Report summarises a retraining-family mitigation run.
type Report struct {
	Method    Method
	FaultRate float64
	// PrunedFraction is the overall fraction of weights pruned across all
	// GEMM layers (array reuse can make this exceed the PE fault rate).
	PrunedFraction float64
	// PrunedPerLayer gives the pruned fraction of each GEMM layer.
	PrunedPerLayer []float64
	// Accuracy is the final test accuracy on the faulty array with bypass
	// enabled and the retrained weights deployed.
	Accuracy float64
	// Vths is the per-spiking-layer threshold voltage after mitigation
	// (the Fig. 6 quantities).
	Vths []float64
	// Curve is the per-epoch convergence trace when TrackCurve is set.
	Curve []EpochPoint
	// RetrainDuration is the wall-clock time spent retraining.
	RetrainDuration time.Duration
}

// EpochsToReachTarget returns the first epoch at which a convergence curve
// reaches the target accuracy, or -1 if it never does — the quantity
// behind the paper's "FalVolt is 2x faster than FaPIT" claim (Fig. 8).
func EpochsToReachTarget(curve []EpochPoint, target float64) int {
	for _, p := range curve {
		if p.Accuracy >= target {
			return p.Epoch
		}
	}
	return -1
}

// Mitigate runs Algorithm 1 on model against the fault map, retraining on
// train and reporting accuracy on test. The model is modified in place
// (snapshot with Network.State first if the original is still needed).
// The array must have the same dimensions as the fault map; it is left
// fault-injected with bypass enabled and the network deployed onto it.
func Mitigate(model *snn.Model, arr *systolic.Array, fm *faults.Map,
	train, test []snn.Sample, cfg Config) (*Report, error) {
	net := model.Net
	if cfg.BatchSize <= 0 {
		cfg.BatchSize = 16
	}
	if cfg.LR == 0 {
		cfg.LR = 1e-3
	}
	if cfg.Rng == nil {
		seed := cfg.Seed
		if seed == 0 {
			seed = 1
		}
		cfg.Rng = rand.New(rand.NewSource(seed))
	}
	eng := cfg.Engine
	if eng == nil {
		eng = tensor.Default()
	}
	net.SetEngine(eng)

	// Lines 1–2: derive pruned-weight indices from the fault map and zero
	// them. One mask per GEMM layer.
	gemms := net.GEMMLayers()
	masks := make([]*mapping.PruneMask, len(gemms))
	report := &Report{Method: cfg.Method, FaultRate: fm.FaultRate()}
	totalW, totalP := 0, 0
	for i, g := range gemms {
		m, k := g.GEMMShape()
		mask, err := mapping.Derive(fm, m, k)
		if err != nil {
			return nil, fmt.Errorf("mitigation: mask for layer %d: %w", i, err)
		}
		masks[i] = mask
		mask.Apply(g.WeightMatrix())
		report.PrunedPerLayer = append(report.PrunedPerLayer, mask.Fraction())
		totalW += m * k
		totalP += mask.Count()
	}
	if totalW > 0 {
		report.PrunedFraction = float64(totalP) / float64(totalW)
	}
	applyMasks := func() {
		for i, g := range gemms {
			masks[i].Apply(g.WeightMatrix())
		}
	}

	// Line 3: threshold-voltage initialization. FalVolt learns V per
	// layer; the others freeze it (optionally at a swept fixed value).
	net.SetLearnVth(cfg.Method == FalVolt)
	if cfg.FixedVth > 0 {
		net.SetVths(cfg.FixedVth)
	}

	// Lines 4–14: retraining with epoch-end re-pruning.
	epochs := cfg.Epochs
	if cfg.Method == FaP {
		epochs = 0
	}
	if epochs > 0 {
		curveTest := test
		if cfg.TrackCurve && cfg.CurveEvalSize > 0 && cfg.CurveEvalSize < len(test) {
			curveTest = test[:cfg.CurveEvalSize]
		}
		start := time.Now()
		_, err := snn.Train(net, train, snn.TrainConfig{
			Epochs:     epochs,
			BatchSize:  cfg.BatchSize,
			LR:         cfg.LR,
			Classes:    model.Spec.Classes,
			ClipNorm:   cfg.ClipNorm,
			Rng:        cfg.Rng,
			Engine:     eng,
			Replicas:   cfg.Replicas,
			MicroBatch: cfg.MicroBatch,
			Hooks: snn.TrainHooks{
				AfterEpoch: func(epoch int, loss float64) {
					// Algorithm 1 line 13: re-zero pruned weights.
					applyMasks()
					if cfg.TrackCurve {
						acc := snn.EvaluateWith(eng, net, curveTest, cfg.BatchSize)
						report.Curve = append(report.Curve, EpochPoint{Epoch: epoch, Loss: loss, Accuracy: acc})
					}
					if cfg.Progress != nil {
						cfg.Progress(epoch, loss)
					}
				},
			},
		})
		if err != nil {
			return nil, fmt.Errorf("mitigation: retraining: %w", err)
		}
		report.RetrainDuration = time.Since(start)
	}
	applyMasks()

	// Line 15: inference accuracy on the faulty hardware, bypass enabled.
	if err := arr.InjectFaults(fm); err != nil {
		return nil, fmt.Errorf("mitigation: inject faults: %w", err)
	}
	arr.SetBypass(true)
	restoreArr := installEngine(arr, cfg.Engine)
	defer restoreArr()
	net.Deploy(arr)
	net.Redeploy() // quantize the retrained weights
	report.Accuracy = snn.EvaluateWith(eng, net, test, cfg.BatchSize)
	report.Vths = net.Vths()
	return report, nil
}

// installEngine routes the array through eng (when non-nil), returning a
// restore function.
func installEngine(arr *systolic.Array, eng tensor.Backend) func() {
	if eng == nil {
		return func() {}
	}
	prev := arr.Config().Engine
	arr.SetEngine(eng)
	return func() { arr.SetEngine(prev) }
}

// retrainStrategy adapts the Algorithm-1 engine to the Mitigation
// interface. On a fully pristine array with an empty fault map it skips
// the engine entirely — no pruning, no retraining — and just deploys,
// which keeps the zoo-wide no-op invariant (fault-rate 0 leaves
// accuracy and spike counts bit-identical to baseline) without touching
// Mitigate's semantics, which the yield and mitigation-study
// campaigns depend on byte-for-byte.
type retrainStrategy struct {
	method Method
	opt    Options
}

func (s *retrainStrategy) Name() string { return strings.ToLower(s.method.String()) }

func (s *retrainStrategy) Describe() string {
	switch s.method {
	case FaP:
		return "fault-aware pruning, no retraining (Algorithm 1, trEpochs=0)"
	case FaPIT:
		return fmt.Sprintf("fault-aware pruning + %d-epoch retraining, threshold frozen", s.opt.Epochs)
	default:
		return fmt.Sprintf("fault-aware pruning + %d-epoch retraining with learned per-layer thresholds", s.opt.Epochs)
	}
}

func (s *retrainStrategy) Apply(model *snn.Model, arr *systolic.Array, fm *faults.Map) (*Outcome, error) {
	fm = ensureMap(arr, fm)
	out := &Outcome{Mitigation: s.Name()}
	if len(fm.Faults) == 0 && pristine(arr, fm) {
		if err := arr.InjectFaults(fm); err != nil {
			return nil, fmt.Errorf("mitigation: inject faults: %w", err)
		}
		arr.SetBypass(true)
		model.Net.Deploy(arr)
		model.Net.Redeploy()
		return out, nil
	}
	rng := s.opt.Rng
	if rng == nil {
		seed := s.opt.Seed
		if seed == 0 {
			seed = 1
		}
		rng = rand.New(rand.NewSource(seed))
	}
	rep, err := Mitigate(model, arr, fm, s.opt.Train, s.opt.Test, Config{
		Method:     s.method,
		Epochs:     s.opt.Epochs,
		BatchSize:  s.opt.BatchSize,
		LR:         s.opt.LR,
		FixedVth:   s.opt.FixedVth,
		ClipNorm:   s.opt.ClipNorm,
		Rng:        rng,
		Engine:     s.opt.Engine,
		Replicas:   s.opt.Replicas,
		MicroBatch: s.opt.MicroBatch,
		Progress:   s.opt.Progress,
	})
	if err != nil {
		return nil, err
	}
	out.PrunedFraction = rep.PrunedFraction
	out.Vths = rep.Vths
	out.Report = rep
	if s.method != FaP {
		out.RetrainEpochs = s.opt.Epochs
	}
	return out, nil
}
