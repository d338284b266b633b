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
// salvage zoo. This package holds the baseline plan, the one fault cell
// (CellLane: restore the baseline, inject a fault instance, deploy or
// salvage, evaluate) and the campaigns built on it.
package core

import (
	"fmt"
	"math/rand"

	"falvolt/internal/snn"
)

// BaselineConfig controls baseline (fault-free) training. Zero values
// select the paper's defaults: batch 16, LR 0.02, gradient clip 5 and a
// single training lane on the network's engine.
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
	// Replicas and MicroBatch configure the data-parallel replica
	// training engine (see snn.TrainConfig; every configuration runs
	// that engine — zero replicas means one lane). Replica count never
	// changes results, only wall-clock.
	Replicas   int
	MicroBatch int
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
		Replicas:   cfg.Replicas,
		MicroBatch: cfg.MicroBatch,
	})
	if err != nil {
		return 0, fmt.Errorf("core: baseline training: %w", err)
	}
	return snn.Evaluate(model.Net, test, 32), nil
}
