package mitigation

import (
	"fmt"
	"math/rand"
	"sort"

	"falvolt/internal/faults"
	"falvolt/internal/snn"
	"falvolt/internal/systolic"
	"falvolt/internal/tensor"
)

// Mitigation salvages a trained network deployed on faulty hardware.
// Apply transforms the model and/or the array's deployment in place so
// that subsequent inference on arr tolerates the faults described by
// fm; it does not evaluate (callers measure accuracy before and after).
// fm is the concrete accumulator-output fault map, and may be nil or
// empty when the injected fault class is not PE-addressable (memory
// bit-flips, transient strikes) — strategies that need per-PE
// coordinates then degrade to their no-op or global behaviour.
type Mitigation interface {
	// Name returns the registry name ("falvolt", "respawn", ...).
	Name() string
	// Apply salvages model deployed on arr against fm, in place. The
	// model may be retrained (snapshot with Network.State first if the
	// original is still needed) and the network is left deployed on arr.
	Apply(model *snn.Model, arr *systolic.Array, fm *faults.Map) (*Outcome, error)
	// Describe returns a one-line human-readable summary.
	Describe() string
}

// Outcome summarises what a mitigation did — the per-cell quantities
// the salvage benchmark reports alongside recovered accuracy.
type Outcome struct {
	// Mitigation is the strategy's registry name.
	Mitigation string
	// RetrainEpochs is the number of retraining epochs spent (0 for the
	// zero-retraining strategies).
	RetrainEpochs int
	// PrunedFraction is the overall fraction of weights pruned (retrain
	// family only).
	PrunedFraction float64
	// RemappedLayers counts GEMM layers whose weight-to-PE mapping was
	// permuted (respawn/rescuesnn).
	RemappedLayers int
	// BypassedPEs counts PEs individually bypassed via the per-PE mux
	// mask (rescuesnn).
	BypassedPEs int
	// ClampedLayers counts GEMM layers given a range restriction
	// (softsnn).
	ClampedLayers int
}

// Options carries the shared strategy configuration, the retraining
// family's included (Mitigate takes it directly). Zero values select
// documented defaults; strategies ignore fields they do not use.
type Options struct {
	// Train and Test drive the retraining family: it retrains on Train
	// and reports final accuracy on Test.
	Train, Test []snn.Sample
	// Epochs is the retraining budget (retrain family; ignored for FaP).
	Epochs int
	// BatchSize and LR configure the retraining loop (0 selects the
	// Algorithm-1 defaults, 16 and 1e-3).
	BatchSize int
	LR        float64
	// ClipNorm caps the global gradient norm during retraining.
	ClipNorm float64
	// FixedVth, when non-zero, forces every spiking layer to this
	// threshold before retraining — the Fig. 2 fixed-threshold sweeps.
	// FaPIT conventionally uses 1.0 (the training default).
	FixedVth float64
	// Rng drives batch shuffling. When nil, a generator seeded 1 is
	// constructed, so runs are reproducible from the options alone —
	// never from the wall clock.
	Rng *rand.Rand
	// Engine is the compute backend retraining and evaluation run on
	// (nil selects tensor.Default()). Mitigate installs it on the model's
	// network, where it stays; call Network.SetEngine to change it.
	// Results are bit-identical on every engine; only wall-clock changes.
	Engine tensor.Backend
	// BypassBit is rescuesnn's severity threshold: PEs with a stuck bit
	// at or above this position are bypassed. 0 selects the array
	// format's first integer bit (faults at or above the binary point
	// trigger bypass); fractional-bit-only faults are left to the remap.
	BypassBit int
	// TrackCurve records float-path test accuracy after every retraining
	// epoch (the Fig. 8 convergence curves). Costs one evaluation/epoch.
	TrackCurve bool
	// CurveEvalSize limits how many test samples the per-epoch curve uses
	// (0 = all).
	CurveEvalSize int
	// Replicas and MicroBatch configure the data-parallel replica
	// training engine for the retraining family (see snn.TrainConfig;
	// every configuration runs that engine — zero replicas means one
	// lane). Replica count never changes results.
	Replicas   int
	MicroBatch int
	// Progress observes retraining (epoch, mean loss); nil is silent —
	// the library default. cmd tools install a printer.
	Progress func(epoch int, loss float64)
}

// Names lists the registered mitigation names, sorted — the mitigation
// counterpart of faults.ModelNames.
func Names() []string {
	names := []string{"fap", "fapit", "falvolt", "respawn", "rescuesnn", "softsnn"}
	sort.Strings(names)
	return names
}

// New constructs a mitigation by registry name — the counterpart of
// faults.ModelByName. The empty name selects "falvolt" (the paper's
// contribution).
func New(name string, opt Options) (Mitigation, error) {
	switch name {
	case "fap":
		return &retrainStrategy{method: FaP, opt: opt}, nil
	case "fapit":
		return &retrainStrategy{method: FaPIT, opt: opt}, nil
	case "", "falvolt":
		return &retrainStrategy{method: FalVolt, opt: opt}, nil
	case "respawn":
		return &respawn{opt: opt}, nil
	case "rescuesnn":
		return &rescueSNN{opt: opt}, nil
	case "softsnn":
		return &softSNN{opt: opt}, nil
	}
	return nil, fmt.Errorf("mitigation: unknown mitigation %q (want %v)", name, Names())
}

// pristine reports whether the array carries no fault state of any
// class, so a strategy's no-op fast path is safe.
func pristine(arr *systolic.Array, fm *faults.Map) bool {
	if fm != nil && len(fm.Faults) > 0 {
		return false
	}
	if w := arr.WeightFaultMap(); w != nil && len(w.Faults) > 0 {
		return false
	}
	if m := arr.MemoryFaults(); m != nil {
		for _, r := range m.BitRate {
			if r > 0 {
				return false
			}
		}
	}
	if t := arr.Transient(); t != nil && len(t.Strikes) > 0 {
		return false
	}
	return true
}

// ensureMap substitutes an empty array-shaped map for a nil fm so
// strategies can treat "no map" and "empty map" identically.
func ensureMap(arr *systolic.Array, fm *faults.Map) *faults.Map {
	if fm != nil {
		return fm
	}
	rows, cols := arr.Dims()
	return faults.NewMap(rows, cols)
}
