// Package core implements the paper's contribution: FalVolt, fault-aware
// retraining with per-layer threshold-voltage optimization for
// systolic-array SNN accelerators, together with the two baselines it is
// compared against:
//
//   - FaP    — fault-aware pruning: zero the weights mapped onto faulty
//     PEs and bypass those PEs; no retraining (Algorithm 1 with
//     trEpochs = 0).
//   - FaPIT  — fault-aware pruning plus retraining of the surviving
//     weights with the threshold voltage frozen (conventionally
//     at 1.0).
//   - FalVolt — fault-aware pruning plus retraining in which every spiking
//     layer's threshold voltage is optimized by backpropagation
//     alongside the weights (Algorithm 1).
//
// The pipeline follows the paper's tool flow (Fig. 4): derive the pruned
// weight indices from the chip's fault map, zero them, retrain (re-zeroing
// at the end of every epoch, Algorithm 1 line 13), then evaluate on the
// faulty array with bypass enabled.
//
// The Algorithm-1 engine itself lives in internal/mitigation
// (mitigation.Mitigate), where it is one strategy among several in the
// salvage zoo; this package holds the faulty-array evaluation paths and
// the campaigns built on them.
package core

import (
	"fmt"
	"math/rand"

	"falvolt/internal/faults"
	"falvolt/internal/snn"
	"falvolt/internal/systolic"
	"falvolt/internal/tensor"
)

// EvalOptions configures a faulty-array evaluation.
type EvalOptions struct {
	// Bypass selects whether faulty PEs are bypassed (pruned
	// contribution, no corruption) or left corrupting.
	Bypass bool
	// BatchSize is the evaluation batch size (0 selects 32).
	BatchSize int
	// Engine is the compute backend for the evaluation. When nil, the
	// network's and array's own engines apply (tensor.Default() if those
	// are unset too). When non-nil it is installed on both for the
	// duration and restored afterwards.
	Engine tensor.Backend
}

// EvaluateFaulty measures test accuracy of an unmitigated model deployed
// on an array with the given fault map — the vulnerability analysis path
// (Fig. 5 family). The model's float weights are not modified; the
// deployment is removed before returning.
func EvaluateFaulty(model *snn.Model, arr *systolic.Array, fm *faults.Map,
	test []snn.Sample, bypass bool, batchSize int) (float64, error) {
	return EvaluateFaultyOpts(model, arr, fm, test, EvalOptions{Bypass: bypass, BatchSize: batchSize})
}

// EvaluateFaultyOpts is EvaluateFaulty with the full option set. A
// non-nil Engine is installed on the network and the array for the
// duration of the evaluation (previous engines restored), so every
// layer of the deployed compute runs on it.
func EvaluateFaultyOpts(model *snn.Model, arr *systolic.Array, fm *faults.Map,
	test []snn.Sample, opt EvalOptions) (float64, error) {
	if err := arr.InjectFaults(fm); err != nil {
		return 0, fmt.Errorf("core: inject faults: %w", err)
	}
	arr.SetBypass(opt.Bypass)
	restore := installEngine(arr, opt.Engine)
	defer restore()
	model.Net.Deploy(arr)
	acc := snn.EvaluateWith(opt.Engine, model.Net, test, opt.BatchSize)
	model.Net.Undeploy()
	return acc, nil
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

// EvaluateWeightFaulty is EvaluateFaulty for stuck bits in the PE weight
// registers instead of the accumulator outputs (an extension to the
// paper's accumulator-output fault model; both registers exist in the
// Fig. 3a datapath). Weight-register faults only corrupt when a spike
// gates the faulty weight in, so at equal counts they are milder than
// accumulator faults — the Ablation-FaultSite experiment quantifies this.
func EvaluateWeightFaulty(model *snn.Model, arr *systolic.Array, fm *faults.Map,
	test []snn.Sample, bypass bool, batchSize int) (float64, error) {
	return EvaluateWeightFaultyOpts(model, arr, fm, test, EvalOptions{Bypass: bypass, BatchSize: batchSize})
}

// EvaluateWeightFaultyOpts is EvaluateWeightFaulty with the full option
// set.
func EvaluateWeightFaultyOpts(model *snn.Model, arr *systolic.Array, fm *faults.Map,
	test []snn.Sample, opt EvalOptions) (float64, error) {
	arr.ClearFaults()
	if err := arr.InjectWeightFaults(fm); err != nil {
		return 0, fmt.Errorf("core: inject weight faults: %w", err)
	}
	arr.SetBypass(opt.Bypass)
	restore := installEngine(arr, opt.Engine)
	defer restore()
	model.Net.Deploy(arr)
	acc := snn.EvaluateWith(opt.Engine, model.Net, test, opt.BatchSize)
	model.Net.Undeploy()
	arr.ClearFaults()
	return acc, nil
}

// EvaluateModelFaulty measures deployed test accuracy under an
// arbitrary pluggable fault model at one (rate, seed) cell — the
// model-agnostic generalization of EvaluateFaulty. Any previous fault
// state is cleared first, and all fault state is cleared on return, so
// one array can sweep many (model × rate × seed) cells.
func EvaluateModelFaulty(model *snn.Model, arr *systolic.Array, fm faults.FaultModel,
	rate float64, seed int64, test []snn.Sample, opt EvalOptions) (float64, error) {
	arr.ClearFaults()
	if err := fm.Inject(arr, rate, seed); err != nil {
		return 0, fmt.Errorf("core: inject %s faults: %w", fm.Name(), err)
	}
	arr.SetBypass(opt.Bypass)
	restore := installEngine(arr, opt.Engine)
	defer restore()
	model.Net.Deploy(arr)
	acc := snn.EvaluateWith(opt.Engine, model.Net, test, opt.BatchSize)
	model.Net.Undeploy()
	arr.ClearFaults()
	return acc, nil
}

// BaselineConfig controls baseline (fault-free) training. Zero values
// select the paper's defaults: batch 16, LR 0.02, gradient clip 5, a
// single training lane on the process-default engine, and silence
// (install a Hooks.Progress printer to observe the loss curve).
type BaselineConfig struct {
	// Epochs is the training budget.
	Epochs int
	// LR is the learning rate (0 selects 0.02).
	LR float64
	// BatchSize is the global batch size (0 selects 16).
	BatchSize int
	// ClipNorm caps the global gradient norm. 0 always selects the
	// paper's clip of 5 — clipping cannot be disabled through
	// BaselineConfig (or the spec layer above it), only retuned; a
	// caller that needs it off uses snn.TrainConfig directly, where 0
	// means no clipping.
	ClipNorm float64
	// Loss is the training objective (nil selects snn.MSERate, the
	// paper's).
	Loss snn.Loss
	// Rng drives batch shuffling.
	Rng *rand.Rand
	// Engine is the compute backend (nil keeps the network's engine).
	Engine tensor.Backend
	// Replicas and MicroBatch configure the data-parallel replica
	// training engine (see snn.TrainConfig; every configuration runs
	// that engine — zero replicas means one lane). Replica count never
	// changes results, only wall-clock.
	Replicas   int
	MicroBatch int
	// Hooks observe the loop; the zero value trains silently.
	Hooks snn.TrainHooks
}

// TrainBaseline trains a freshly built model to its fault-free baseline
// (the paper's initial-training stage) and returns test accuracy.
func TrainBaseline(model *snn.Model, train, test []snn.Sample, cfg BaselineConfig) (float64, error) {
	if cfg.LR == 0 {
		cfg.LR = 0.02
	}
	if cfg.BatchSize == 0 {
		cfg.BatchSize = 16
	}
	if cfg.ClipNorm == 0 {
		cfg.ClipNorm = 5
	}
	_, err := snn.Train(model.Net, train, snn.TrainConfig{
		Epochs:     cfg.Epochs,
		BatchSize:  cfg.BatchSize,
		LR:         cfg.LR,
		Classes:    model.Spec.Classes,
		ClipNorm:   cfg.ClipNorm,
		Loss:       cfg.Loss,
		Rng:        cfg.Rng,
		Engine:     cfg.Engine,
		Replicas:   cfg.Replicas,
		MicroBatch: cfg.MicroBatch,
		Hooks:      cfg.Hooks,
	})
	if err != nil {
		return 0, fmt.Errorf("core: baseline training: %w", err)
	}
	return snn.Evaluate(model.Net, test, 32), nil
}
