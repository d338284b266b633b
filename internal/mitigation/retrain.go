package mitigation

import (
	"fmt"
	"math/rand"
	"strings"

	"falvolt/internal/faults"
	"falvolt/internal/mapping"
	"falvolt/internal/snn"
	"falvolt/internal/systolic"
	"falvolt/internal/tensor"
)

// The paper's retraining family (Algorithm 1): Mitigate is the engine,
// and retrainStrategy serves it to the zoo under the same Options.

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

// EpochPoint is one point of a retraining convergence curve.
type EpochPoint struct {
	Epoch    int
	Loss     float64
	Accuracy float64
}

// Report summarises a retraining-family mitigation run.
type Report struct {
	// PrunedFraction is the overall fraction of weights pruned across all
	// GEMM layers (array reuse can make this exceed the PE fault rate).
	PrunedFraction float64
	// Accuracy is the final test accuracy on the faulty array with bypass
	// enabled and the retrained weights deployed.
	Accuracy float64
	// Vths is the per-spiking-layer threshold voltage after mitigation
	// (the Fig. 6 quantities).
	Vths []float64
	// Curve is the per-epoch convergence trace when TrackCurve is set.
	Curve []EpochPoint
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

// Mitigate runs Algorithm 1 with method m on model against the fault
// map, retraining on opt.Train and reporting accuracy on opt.Test. The
// model is modified in place (snapshot with Network.State first if the
// original is still needed). The array must have the same dimensions as
// the fault map; it is left fault-injected with bypass enabled and the
// network deployed onto it.
func Mitigate(model *snn.Model, arr *systolic.Array, fm *faults.Map, m Method, opt Options) (*Report, error) {
	net := model.Net
	if opt.BatchSize <= 0 {
		opt.BatchSize = 16
	}
	if opt.LR == 0 {
		opt.LR = 1e-3
	}
	if opt.Rng == nil {
		opt.Rng = rand.New(rand.NewSource(1))
	}
	eng := opt.Engine
	if eng == nil {
		eng = tensor.Default()
	}
	net.SetEngine(eng)

	// Lines 1–2: derive pruned-weight indices from the fault map and zero
	// them. One mask per GEMM layer.
	gemms := net.GEMMLayers()
	masks := make([]*mapping.PruneMask, len(gemms))
	report := &Report{}
	totalW, totalP := 0, 0
	for i, g := range gemms {
		rows, k := g.GEMMShape()
		mask, err := mapping.Derive(fm, rows, k)
		if err != nil {
			return nil, fmt.Errorf("mitigation: mask for layer %d: %w", i, err)
		}
		masks[i] = mask
		mask.Apply(g.WeightMatrix())
		totalW += rows * k
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
	net.SetLearnVth(m == FalVolt)
	if opt.FixedVth > 0 {
		net.SetVths(opt.FixedVth)
	}

	// Lines 4–14: retraining with epoch-end re-pruning.
	epochs := opt.Epochs
	if m == FaP {
		epochs = 0
	}
	if epochs > 0 {
		curveTest := opt.Test
		if opt.TrackCurve && opt.CurveEvalSize > 0 && opt.CurveEvalSize < len(opt.Test) {
			curveTest = opt.Test[:opt.CurveEvalSize]
		}
		_, err := snn.Train(net, opt.Train, snn.TrainConfig{
			Epochs:     epochs,
			BatchSize:  opt.BatchSize,
			LR:         opt.LR,
			Classes:    model.Spec.Classes,
			ClipNorm:   opt.ClipNorm,
			Rng:        opt.Rng,
			Engine:     eng,
			Replicas:   opt.Replicas,
			MicroBatch: opt.MicroBatch,
			Hooks: snn.TrainHooks{
				AfterEpoch: func(epoch int, loss float64) {
					// Algorithm 1 line 13: re-zero pruned weights.
					applyMasks()
					if opt.TrackCurve {
						acc := snn.EvaluateWith(eng, net, curveTest, opt.BatchSize)
						report.Curve = append(report.Curve, EpochPoint{Epoch: epoch, Loss: loss, Accuracy: acc})
					}
					if opt.Progress != nil {
						opt.Progress(epoch, loss)
					}
				},
			},
		})
		if err != nil {
			return nil, fmt.Errorf("mitigation: retraining: %w", err)
		}
	}
	applyMasks()

	// Line 15: inference accuracy on the faulty hardware, bypass enabled.
	if err := arr.InjectFaults(fm); err != nil {
		return nil, fmt.Errorf("mitigation: inject faults: %w", err)
	}
	arr.SetBypass(true)
	restoreArr := installEngine(arr, opt.Engine)
	defer restoreArr()
	net.Deploy(arr)
	net.Redeploy() // quantize the retrained weights
	report.Accuracy = snn.EvaluateWith(eng, net, opt.Test, opt.BatchSize)
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
	rep, err := Mitigate(model, arr, fm, s.method, s.opt)
	if err != nil {
		return nil, err
	}
	out.PrunedFraction = rep.PrunedFraction
	if s.method != FaP {
		out.RetrainEpochs = s.opt.Epochs
	}
	return out, nil
}
