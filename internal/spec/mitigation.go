package spec

import (
	"fmt"

	"falvolt/internal/fixed"
)

// MitigationSpec selects and configures one pluggable salvage strategy
// (mitigation.Mitigation) by name — the mitigation counterpart of
// FaultModelSpec. Fields are literal, like every other section: the
// canonical form preserves exactly what was written, so a spec that
// spells out a default and one that omits it are conservatively
// distinct experiments.
//
// Which knobs a kind reads is validated strictly — a retraining budget
// on a zero-retraining strategy, or a bypass bit on anything but
// rescuesnn, is almost certainly a mis-edited kind and fails loudly.
type MitigationSpec struct {
	// Kind is the strategy: "fap", "fapit", "falvolt", "respawn",
	// "rescuesnn" or "softsnn" ("" = "falvolt").
	Kind string `json:"kind,omitempty"`
	// Epochs is the retraining budget (fapit/falvolt only; 0 = the
	// consuming campaign's budget). FaP and the zero-retraining
	// strategies reject it.
	Epochs int `json:"epochs,omitempty"`
	// LR is the retraining learning rate (fapit/falvolt only). 0 selects
	// the consuming kind's default: 0.01 in salvage, and in faultsim
	// mitigation.Mitigate's Algorithm-1 default of 1e-3.
	LR float64 `json:"lr,omitempty"`
	// Vth forces a fixed threshold voltage before retraining (fapit
	// only — falvolt learns thresholds, the rest never touch them).
	Vth float64 `json:"vth,omitempty"`
	// BypassBit is rescuesnn's severity threshold: PEs with a stuck bit
	// at or above this position are bypassed (0 = the array format's
	// first integer bit).
	BypassBit int `json:"bypassBit,omitempty"`
	// Training is the unified training section for the retraining loop
	// (fapit/falvolt only). Its epochs and lr alias the legacy flat
	// knobs (setting both spellings is an error); batch, clipNorm,
	// replicas and microBatch configure the loop directly; loss is
	// rejected — retraining keeps the paper's objective. Omitted on old
	// specs, so historical fingerprints are unchanged.
	Training *TrainSpec `json:"training,omitempty"`
}

// MitigationKinds lists the addressable mitigation names, sorted. It is
// spelled out here rather than imported so the spec layer stays free of
// the snn/systolic dependency tree; a test in internal/mitigation
// asserts it matches mitigation.Names().
func MitigationKinds() []string {
	return []string{"falvolt", "fap", "fapit", "rescuesnn", "respawn", "softsnn"}
}

// EffectiveKind resolves the strategy kind ("" = "falvolt").
func (m MitigationSpec) EffectiveKind() string {
	if m.Kind == "" {
		return "falvolt"
	}
	return m.Kind
}

// retrains reports whether the kind runs the retraining loop (so Epochs
// and LR mean something).
func (m MitigationSpec) retrains() bool {
	switch m.EffectiveKind() {
	case "fapit", "falvolt":
		return true
	}
	return false
}

// Validate checks the strategy selection: known kind, in-range knobs,
// and no knob the kind would silently ignore.
func (m MitigationSpec) Validate() error {
	kind := m.EffectiveKind()
	known := false
	for _, k := range MitigationKinds() {
		if kind == k {
			known = true
			break
		}
	}
	if !known {
		return fmt.Errorf("spec: unknown mitigation kind %q (want %v)", m.Kind, MitigationKinds())
	}
	if m.Epochs < 0 {
		return fmt.Errorf("spec: mitigation epochs %d negative", m.Epochs)
	}
	if m.LR < 0 {
		return fmt.Errorf("spec: mitigation lr %v negative", m.LR)
	}
	if m.Vth < 0 {
		return fmt.Errorf("spec: mitigation vth %v negative", m.Vth)
	}
	if m.BypassBit < 0 || m.BypassBit >= fixed.WordBits {
		return fmt.Errorf("spec: mitigation bypassBit %d outside [0,%d)", m.BypassBit, fixed.WordBits)
	}
	if !m.retrains() && (m.Epochs != 0 || m.LR != 0) {
		return fmt.Errorf("spec: mitigation %q does not retrain — drop epochs/lr", kind)
	}
	if kind != "fapit" && m.Vth != 0 {
		return fmt.Errorf("spec: mitigation %q does not use vth (fapit only)", kind)
	}
	if kind != "rescuesnn" && m.BypassBit != 0 {
		return fmt.Errorf("spec: mitigation %q does not use bypassBit (rescuesnn only)", kind)
	}
	if t := m.Training; t != nil {
		if err := t.Validate(); err != nil {
			return err
		}
		if !m.retrains() {
			return fmt.Errorf("spec: mitigation %q does not retrain — drop the training section", kind)
		}
		if t.Epochs > 0 && m.Epochs > 0 {
			return fmt.Errorf("spec: mitigation sets both epochs and training.epochs — drop one")
		}
		if t.LR != 0 && m.LR != 0 {
			return fmt.Errorf("spec: mitigation sets both lr and training.lr — drop one")
		}
		if t.Loss != "" {
			return fmt.Errorf("spec: mitigation training does not use loss (retraining keeps the paper's objective)")
		}
	}
	return nil
}

// EffectiveEpochs resolves the retraining budget from whichever knob
// is set (0 = the consuming campaign's budget).
func (m MitigationSpec) EffectiveEpochs() int {
	if m.Training != nil && m.Training.Epochs > 0 {
		return m.Training.Epochs
	}
	return m.Epochs
}

// EffectiveLR resolves the retraining learning rate from whichever
// knob is set (0 = the Algorithm-1 default).
func (m MitigationSpec) EffectiveLR() float64 {
	if m.Training != nil && m.Training.LR != 0 {
		return m.Training.LR
	}
	return m.LR
}

// TrainingOrZero returns the training section, or a zero value when
// absent, so consumers can read the replica knobs without nil checks.
func (m MitigationSpec) TrainingOrZero() TrainSpec {
	if m.Training == nil {
		return TrainSpec{}
	}
	return *m.Training
}

// SalvageCampaignSpec sizes the head-to-head salvage benchmark (kind
// "salvage"): every (fault model × rate × mitigation × repeat) cell
// injects the model into a small trained SNN's array, applies the
// mitigation, and measures accuracy recovered, retraining epochs spent
// and per-inference MAC-cycle overhead.
type SalvageCampaignSpec struct {
	// Models is the fault-model axis, by faults.ModelByName name
	// (nil = stuckat, bitflip, transient).
	Models []string `json:"models,omitempty"`
	// Mitigations is the strategy axis (nil = falvolt, respawn,
	// rescuesnn, softsnn).
	Mitigations []MitigationSpec `json:"mitigations,omitempty"`
	// Rates is the severity axis (nil = 0.05, 0.10).
	Rates []float64 `json:"rates,omitempty"`
	// Repeats is the seed-addressed fault instances per cell (0 = 2).
	Repeats int `json:"repeats,omitempty"`
	// Array is the systolic array side (0 = 16).
	Array int `json:"array,omitempty"`
	// BaseEpochs is the shared baseline training budget (0 = 2).
	BaseEpochs int `json:"baseEpochs,omitempty"`
	// Epochs is the retraining budget for retrain-family cells whose
	// MitigationSpec leaves it 0 (0 = 2).
	Epochs int `json:"epochs,omitempty"`
	// Batch is the evaluation batch size (0 = 32).
	Batch int `json:"batch,omitempty"`
}

// DefaultSalvageModels is the fault-model axis a nil Models resolves to.
func DefaultSalvageModels() []string {
	return []string{"stuckat", "bitflip", "transient"}
}

// DefaultSalvageMitigations is the strategy axis a nil Mitigations
// resolves to: the paper's contribution plus the three zero/low-cost
// literature baselines.
func DefaultSalvageMitigations() []MitigationSpec {
	return []MitigationSpec{
		{Kind: "falvolt"},
		{Kind: "respawn"},
		{Kind: "rescuesnn"},
		{Kind: "softsnn"},
	}
}

// Defaulted returns a copy with every zero field replaced by its
// documented default.
func (s SalvageCampaignSpec) Defaulted() SalvageCampaignSpec {
	def := func(v *int, d int) {
		if *v == 0 {
			*v = d
		}
	}
	if s.Models == nil {
		s.Models = DefaultSalvageModels()
	}
	if s.Mitigations == nil {
		s.Mitigations = DefaultSalvageMitigations()
	}
	if s.Rates == nil {
		s.Rates = []float64{0.05, 0.10}
	}
	def(&s.Repeats, 2)
	def(&s.Array, 16)
	def(&s.BaseEpochs, 2)
	def(&s.Epochs, 2)
	def(&s.Batch, 32)
	return s
}

// Validate checks the campaign section: known fault models, valid
// mitigation specs, in-range sweep axes.
func (s SalvageCampaignSpec) Validate() error {
	d := s.Defaulted()
	for _, m := range d.Models {
		switch m {
		case "stuckat", "bitflip", "transient":
		default:
			return fmt.Errorf("spec: salvage fault model %q unknown (want stuckat, bitflip or transient)", m)
		}
	}
	if len(d.Models) == 0 {
		return fmt.Errorf("spec: salvage models empty")
	}
	if len(d.Mitigations) == 0 {
		return fmt.Errorf("spec: salvage mitigations empty")
	}
	for i, m := range d.Mitigations {
		if err := m.Validate(); err != nil {
			return fmt.Errorf("spec: salvage mitigation %d: %w", i, err)
		}
	}
	if len(d.Rates) == 0 {
		return fmt.Errorf("spec: salvage rates empty")
	}
	for _, r := range d.Rates {
		if r < 0 || r > 1 {
			return fmt.Errorf("spec: salvage rate %v outside [0,1]", r)
		}
	}
	if d.Repeats < 1 {
		return fmt.Errorf("spec: salvage repeats %d < 1", d.Repeats)
	}
	if d.Array < 2 || d.Array > 256 {
		return fmt.Errorf("spec: salvage array side %d outside [2,256]", d.Array)
	}
	if d.BaseEpochs < 1 || d.Epochs < 0 || d.Batch < 1 {
		return fmt.Errorf("spec: salvage baseEpochs %d / epochs %d / batch %d out of range",
			d.BaseEpochs, d.Epochs, d.Batch)
	}
	return nil
}

// SiteSweepSpec sizes the exhaustive single-site vulnerability sweep
// (kind "sitesweep"): one trial per (PE row, PE column, bit, polarity)
// stuck-at site from faults.EnumerateSites, each injecting exactly that
// site into a systolic array and measuring output corruption against a
// clean twin over a short fixed spiking workload — the model-free map
// of which physical sites matter.
type SiteSweepSpec struct {
	// Array is the systolic array side (0 = 8).
	Array int `json:"array,omitempty"`
	// Bits restricts the swept bit positions (nil = all word bits).
	Bits []uint `json:"bits,omitempty"`
	// Pols is the polarity axis: "both" (default), "sa0" or "sa1".
	Pols string `json:"pols,omitempty"`
	// Sample caps the sweep at a seed-addressed random subset of the
	// enumerated sites (0 = exhaustive).
	Sample int `json:"sample,omitempty"`
	// Batch is the input vectors per forward pass (0 = 4).
	Batch int `json:"batch,omitempty"`
	// Timesteps is the inference horizon each trial steps through
	// (0 = 2).
	Timesteps int `json:"timesteps,omitempty"`
	// Density is the input spike density (0 = 0.3).
	Density float64 `json:"density,omitempty"`
}

// Defaulted returns a copy with every zero field replaced by its
// documented default.
func (s SiteSweepSpec) Defaulted() SiteSweepSpec {
	def := func(v *int, d int) {
		if *v == 0 {
			*v = d
		}
	}
	def(&s.Array, 8)
	if s.Pols == "" {
		s.Pols = "both"
	}
	def(&s.Batch, 4)
	def(&s.Timesteps, 2)
	if s.Density == 0 {
		s.Density = 0.3
	}
	return s
}

// Validate checks the sweep section: in-range array, bits and axes.
func (s SiteSweepSpec) Validate() error {
	d := s.Defaulted()
	if d.Array < 2 || d.Array > 256 {
		return fmt.Errorf("spec: sitesweep array side %d outside [2,256]", d.Array)
	}
	for _, b := range d.Bits {
		if b >= fixed.WordBits {
			return fmt.Errorf("spec: sitesweep bit %d outside [0,%d)", b, fixed.WordBits)
		}
	}
	switch d.Pols {
	case "both", "sa0", "sa1":
	default:
		return fmt.Errorf("spec: sitesweep pols %q unknown (want both, sa0 or sa1)", s.Pols)
	}
	if d.Sample < 0 {
		return fmt.Errorf("spec: sitesweep sample %d negative", d.Sample)
	}
	if d.Batch < 1 || d.Timesteps < 1 {
		return fmt.Errorf("spec: sitesweep batch %d / timesteps %d < 1", d.Batch, d.Timesteps)
	}
	if d.Density < 0 || d.Density > 1 {
		return fmt.Errorf("spec: sitesweep density %v outside [0,1]", d.Density)
	}
	return nil
}
