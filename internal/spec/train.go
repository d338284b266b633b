package spec

import "fmt"

// TrainSpec is the unified training section: every spec surface that
// configures a gradient-descent loop — the figure suite's retraining,
// a mitigation strategy's retraining, the faultsim kind's baseline — points
// its training knobs at one shape instead of growing ad-hoc per-kind
// fields. Zero values defer to the consuming loop's documented
// defaults, and each consumer validates strictly: a knob the loop
// would silently ignore (or that duplicates a legacy flat field) is
// rejected at Decode time.
//
// Replicas is execution placement, like Spec.Backend: snn.Train routes
// every configuration (Replicas 0 included) through the data-parallel
// replica engine, which reduces gradients in fixed micro-batch order
// and derives dropout masks per micro-batch, so the lane count never
// changes results — only wall-clock — and it is cleared from the
// canonical form (snn's TestTrainDefaultConfigIsReplicaEngine pins
// this, dropout included). MicroBatch, by contrast, changes the
// loss-averaging partition and therefore the results, so it is part of
// the experiment's identity and stays — except when it equals the
// effective batch, where the partition is a no-op and canonical()
// clears it.
type TrainSpec struct {
	// Epochs is the training budget (0 = the consuming loop's default).
	Epochs int `json:"epochs,omitempty"`
	// Batch is the global batch size (0 = the loop's default, 16).
	Batch int `json:"batch,omitempty"`
	// LR is the learning rate (0 = the loop's default).
	LR float64 `json:"lr,omitempty"`
	// ClipNorm caps the global gradient norm. 0 always means the
	// consuming loop's default (the paper's clip of 5) — clipping
	// cannot be disabled through a spec, only retuned; library callers
	// that need it off use snn.TrainConfig directly, where 0 disables.
	ClipNorm float64 `json:"clipNorm,omitempty"`
	// Loss is the training objective: "mse" (the paper's, default) or
	// "crossentropy". Resolved by snn.LossByName.
	Loss string `json:"loss,omitempty"`
	// Replicas is the data-parallel training lane count (0 = one lane;
	// every count runs the same replica engine). Execution-only:
	// cleared from the canonical form, because the deterministic
	// fixed-order reduction and per-micro-batch dropout seeding make
	// results bit-identical at any lane count.
	Replicas int `json:"replicas,omitempty"`
	// MicroBatch is the per-replica micro-batch size (0 = the whole
	// batch). Result-affecting: part of the canonical form, unless it
	// equals the effective batch (a no-op partition, cleared by
	// canonical()). It must not exceed the effective batch.
	MicroBatch int `json:"microBatch,omitempty"`
}

// DefaultBatch is the global batch size every consuming loop falls back
// to when Batch is 0 — the paper's batch of 16, shared by
// core.BaselineConfig, mitigation retraining and the faultsim kind. It is
// the batch MicroBatch is validated against (and normalized by) when
// the spec leaves Batch unset.
const DefaultBatch = 16

// TrainLosses lists the addressable training objectives, mirroring
// snn.LossByName (spelled out here so the spec layer stays free of the
// snn dependency tree; a test in this package asserts they match).
func TrainLosses() []string {
	return []string{"crossentropy", "mse"}
}

// Validate checks field sanity: non-negative budgets, a known loss,
// and a micro-batch that fits the batch it partitions.
func (t *TrainSpec) Validate() error {
	if t == nil {
		return nil
	}
	if t.Epochs < 0 {
		return fmt.Errorf("spec: training epochs %d negative", t.Epochs)
	}
	if t.Batch < 0 {
		return fmt.Errorf("spec: training batch %d negative", t.Batch)
	}
	if t.LR < 0 {
		return fmt.Errorf("spec: training lr %v negative", t.LR)
	}
	if t.ClipNorm < 0 {
		return fmt.Errorf("spec: training clipNorm %v negative", t.ClipNorm)
	}
	known := false
	for _, l := range append(TrainLosses(), "") {
		if t.Loss == l {
			known = true
			break
		}
	}
	if !known {
		return fmt.Errorf("spec: unknown training loss %q (want %v)", t.Loss, TrainLosses())
	}
	if t.Replicas < 0 {
		return fmt.Errorf("spec: training replicas %d negative", t.Replicas)
	}
	if t.MicroBatch < 0 {
		return fmt.Errorf("spec: training microBatch %d negative", t.MicroBatch)
	}
	if eb := t.effectiveBatch(); t.MicroBatch > eb {
		if t.Batch > 0 {
			return fmt.Errorf("spec: training microBatch %d exceeds batch %d", t.MicroBatch, t.Batch)
		}
		return fmt.Errorf("spec: training microBatch %d exceeds the default batch %d (set batch explicitly)", t.MicroBatch, eb)
	}
	return nil
}

// effectiveBatch is the batch size the consuming loop will actually run
// — Batch, or every consumer's shared DefaultBatch when unset.
func (t *TrainSpec) effectiveBatch() int {
	if t.Batch > 0 {
		return t.Batch
	}
	return DefaultBatch
}

// canonical returns the spec with the execution-only Replicas knob
// cleared, along with a MicroBatch that matches the effective batch (a
// one-micro-batch-per-step partition, identical to MicroBatch 0 — the
// knob would otherwise differentiate fingerprints of bit-identical
// runs). It copies only when something changes, so canonicalization
// never mutates the source spec (nil stays nil).
func (t *TrainSpec) canonical() *TrainSpec {
	if t == nil {
		return t
	}
	noopMB := t.MicroBatch > 0 && t.MicroBatch >= t.effectiveBatch()
	if t.Replicas == 0 && !noopMB {
		return t
	}
	c := *t
	c.Replicas = 0
	if noopMB {
		c.MicroBatch = 0
	}
	return &c
}
