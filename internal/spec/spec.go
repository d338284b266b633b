// Package spec is the declarative experiment-spec layer: one versioned,
// JSON-serializable Spec value fully describes any run of this
// repository — which campaign kind (a figure sweep, the yield study,
// the synthetic selftest), the model/suite scale, the fault model, the
// mitigation method, the seeds — plus execution placement (backend,
// shard). Every cmd tool compiles its flags into a Spec (and accepts
// -spec / -dump-spec to round-trip it), a registry turns a Spec into a
// runnable campaign.Campaign in exactly one place per kind, and cluster
// coordinators ship their canonical Spec to workers at registration, so
// a worker cannot be misconfigured: it builds from the bytes it was
// handed, not from flags that happen to match.
//
// The canonical form — Canonical() — is the Spec's identity: execution
// placement (Backend, Shard) is cleared, and the remaining fields
// marshal in fixed struct order, so the same spec fields always produce
// the same bytes and the same Fingerprint regardless of how the JSON
// was originally formatted or ordered. Field values are taken literally
// and NOT semantically normalized: a spec that spells out a documented
// default (e.g. "trials": 24) and one that omits it build the same
// campaign but are conservatively treated as distinct experiments —
// shards intended to merge must come from byte-equal canonical specs,
// which dump-spec/-spec round-trips guarantee.
package spec

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"

	"falvolt/internal/campaign"
	"falvolt/internal/faults"
	"falvolt/internal/fixed"
)

// Version is the current spec schema version. Decode rejects any other
// value: a spec written by a future schema must not be silently
// misinterpreted by an older build.
const Version = 1

// Spec declares one experiment run. Exactly the section matching Kind
// is consulted by the registry builder; Backend and Shard are execution
// placement and excluded from Canonical/Fingerprint (two shards of one
// campaign, or the same campaign on different engines, are the same
// experiment).
type Spec struct {
	// Version is the schema version (see Version).
	Version int `json:"version"`
	// Kind names the registered campaign builder: "fig2", "fig5a",
	// "fig5b", "fig5c", "mitigation", "ablations", "yield", "selftest",
	// "faultmodel", "salvage", "sitesweep", "faultsim" or "falvolt" (see
	// Kinds).
	Kind string `json:"kind"`
	// Seed drives all randomness of the run. 0 means the default seed
	// (7) for every kind — flag-compiled specs always pin it explicitly.
	Seed int64 `json:"seed,omitempty"`

	// Backend selects the compute engine ("", "serial", "parallel",
	// "parallel:N"). Execution-only: excluded from the canonical form.
	Backend string `json:"backend,omitempty"`
	// Shard restricts execution to the i-th of n interleaved trial
	// subsets ("i/n"). Execution-only: excluded from the canonical form.
	Shard string `json:"shard,omitempty"`
	// Name is a human-readable run name for service catalogs (`campaign
	// submit -name`). Execution-only, like Backend and Shard: two
	// submissions of the same experiment under different names are the
	// same experiment, so the name is excluded from the canonical form.
	Name string `json:"name,omitempty"`
	// Labels are free-form key=value catalog annotations ("team",
	// "sweep", "ticket", ...). Execution-only: excluded from the
	// canonical form and the fingerprint, like Name.
	Labels map[string]string `json:"labels,omitempty"`

	// Suite configures the figure campaigns (fig2, fig5a-c, mitigation).
	Suite *SuiteSpec `json:"suite,omitempty"`
	// Yield configures the manufacturing-yield study.
	Yield *YieldSpec `json:"yield,omitempty"`
	// Selftest configures the model-free synthetic smoke campaign.
	Selftest *SelftestSpec `json:"selftest,omitempty"`
	// Pipeline configures the one-trial end-to-end pipeline (kind
	// "falvolt", `campaign run -c falvolt`).
	Pipeline *PipelineSpec `json:"pipeline,omitempty"`
	// FaultSim configures the vulnerability sweeps (kind "faultsim",
	// `campaign run -c faultsim`).
	FaultSim *FaultSimSpec `json:"faultsim,omitempty"`
	// FaultModel configures the systolic-level fault-model
	// characterization campaign (kind "faultmodel").
	FaultModel *FaultModelCampaignSpec `json:"faultModel,omitempty"`
	// Salvage configures the head-to-head (fault model × mitigation)
	// salvage benchmark (kind "salvage").
	Salvage *SalvageCampaignSpec `json:"salvage,omitempty"`
	// SiteSweep configures the exhaustive single-site vulnerability
	// sweep (kind "sitesweep").
	SiteSweep *SiteSweepSpec `json:"siteSweep,omitempty"`
}

// SuiteSpec scales the experiment suite behind the figure campaigns.
// Zero values select the mode defaults (see Defaulted), matching the
// 0-means-default semantics the cmd flags always had.
type SuiteSpec struct {
	// Quick selects the reduced model/dataset sizes.
	Quick bool `json:"quick,omitempty"`
	// Array is the systolic array side (NxN); 0 = default (64), the
	// paper-proportional array for the scaled-down models: like the
	// paper's 256x256 under its full-size networks, every row and
	// column is exercised by at least one layer (see DESIGN.md).
	Array int `json:"array,omitempty"`
	// Epochs is the mitigation retraining budget (0 = mode default).
	Epochs int `json:"epochs,omitempty"`
	// Repeats is the fault maps averaged per vulnerability point
	// (0 = mode default).
	Repeats int `json:"repeats,omitempty"`
	// Eval caps test samples per deployed evaluation (0 = mode default).
	Eval int `json:"eval,omitempty"`
	// Training is the unified training section. The suite consumes its
	// epochs (the retraining budget — an alias of the legacy Epochs
	// knob, setting both is an error), replicas and microBatch; the
	// remaining knobs are pinned by the figure campaigns and rejected.
	// Omitted on old specs, so historical fingerprints are unchanged.
	Training *TrainSpec `json:"training,omitempty"`
}

// validateTraining checks the suite's unified training section against
// the legacy flat knobs.
func (ss *SuiteSpec) validateTraining() error {
	t := ss.Training
	if t == nil {
		return nil
	}
	if err := t.Validate(); err != nil {
		return err
	}
	if t.Epochs > 0 && ss.Epochs > 0 {
		return fmt.Errorf("spec: suite sets both epochs and training.epochs — drop one")
	}
	if t.Batch != 0 || t.LR != 0 || t.ClipNorm != 0 || t.Loss != "" {
		return fmt.Errorf("spec: suite training consumes epochs/replicas/microBatch only (the figure campaigns pin the paper's batch, LR, clip norm and loss)")
	}
	return nil
}

// Defaulted returns a copy with every zero field replaced by its mode
// default: array 64, repeats 8 (the paper's; quick 3), retraining
// epochs 20 (quick 6, either knob) and all test samples per evaluation
// (quick 64). Training is always set on the copy, never shared with the
// source; a micro-batch covering the suite's whole DefaultBatch is the
// partition of an unset one and is cleared, as in canonical().
func (ss SuiteSpec) Defaulted() SuiteSpec {
	t := TrainSpec{}
	if ss.Training != nil {
		t = *ss.Training
	}
	if t.Epochs > 0 {
		ss.Epochs, t.Epochs = t.Epochs, 0
	}
	if t.MicroBatch >= DefaultBatch {
		t.MicroBatch = 0
	}
	ss.Training = &t
	def := func(v *int, full, quick int) {
		if *v == 0 {
			*v = full
			if ss.Quick {
				*v = quick
			}
		}
	}
	def(&ss.Array, 64, 64)
	def(&ss.Repeats, 8, 3)
	def(&ss.Epochs, 20, 6)
	def(&ss.Eval, 0, 64)
	return ss
}

// YieldSpec describes a manufacturing-yield study population and its
// salvage policy. Zero values select the documented defaults (the
// `campaign -c yield` flag defaults), except Clustered, which is a
// plain bool: a spec that wants clustered defect maps must say so.
type YieldSpec struct {
	// Chips is the number of simulated dies (0 = 12).
	Chips int `json:"chips,omitempty"`
	// MeanFaulty is the mean faulty PEs per die (0 = 60).
	MeanFaulty float64 `json:"meanFaulty,omitempty"`
	// Alpha is the defect clustering parameter (0 = 1.0).
	Alpha float64 `json:"alpha,omitempty"`
	// Clustered draws spatially clustered fault maps.
	Clustered bool `json:"clustered,omitempty"`
	// Threshold is the minimum shipping accuracy (0 = 0.85).
	Threshold float64 `json:"threshold,omitempty"`
	// Method is the salvage policy: "fap", "fapit" or "falvolt"
	// ("" = "falvolt").
	Method string `json:"method,omitempty"`
	// MitEpochs is the retraining budget per salvaged die (0 = 4).
	MitEpochs int `json:"mitEpochs,omitempty"`
	// BaseEpochs is the baseline training budget (0 = 12).
	BaseEpochs int `json:"baseEpochs,omitempty"`
	// Array is the systolic array side (0 = 64).
	Array int `json:"array,omitempty"`
	// Eval caps evaluation samples per die (0 = 96).
	Eval int `json:"eval,omitempty"`
}

// SelftestSpec sizes the synthetic smoke campaign.
type SelftestSpec struct {
	// Trials is the synthetic trial count (0 = 24).
	Trials int `json:"trials,omitempty"`
	// DelayMillis adds an artificial per-trial delay in milliseconds,
	// so scheduling smoke tests (lease reassignment, coordinator
	// kill-and-restart) can interrupt a campaign deterministically.
	// Results are unaffected: merges stay byte-identical to the
	// instant variant of the same (trials, seed).
	DelayMillis int `json:"delayMillis,omitempty"`
}

// PipelineSpec describes the one-trial end-to-end FalVolt pipeline
// (kind "falvolt"): train a baseline, inject one fault map, mitigate. Rate
// and Quick are taken literally (like YieldSpec.Clustered): an omitted
// rate means a fault-free run, not campaign's -rate default of 0.30 —
// flag-compiled specs always spell both out.
type PipelineSpec struct {
	// Dataset is "mnist", "nmnist" or "dvsgesture" ("" = "mnist").
	Dataset string `json:"dataset,omitempty"`
	// Rate is the fraction of faulty PEs, in [0,1] (literal: 0 injects
	// nothing).
	Rate float64 `json:"rate,omitempty"`
	// Method is "fap", "fapit" or "falvolt" ("" = "falvolt").
	Method string `json:"method,omitempty"`
	// Array is the systolic array side (0 = 64).
	Array int `json:"array,omitempty"`
	// BaseEpochs is the baseline training budget (0 = 12).
	BaseEpochs int `json:"baseEpochs,omitempty"`
	// Epochs is the mitigation retraining budget (0 = 8).
	Epochs int `json:"epochs,omitempty"`
	// Train and Test are the dataset sizes (0 = 320 / 128).
	Train int `json:"train,omitempty"`
	Test  int `json:"test,omitempty"`
	// Quick selects the reduced model sizes (literal: omitted = full
	// size, though `campaign -c falvolt` defaults it to true).
	Quick bool `json:"quick,omitempty"`
}

// FaultSimSpec describes a vulnerability sweep (kind "faultsim"), one
// trial per (sweep point × polarity × repeat) cell.
type FaultSimSpec struct {
	// Dataset is "mnist", "nmnist" or "dvsgesture" ("" = "mnist").
	Dataset string `json:"dataset,omitempty"`
	// Sweep is "bits", "count", "size" or "model" ("" = "bits").
	Sweep string `json:"sweep,omitempty"`
	// Model selects the fault model for the "model" sweep (nil =
	// default stuck-at). Other sweeps do not read it.
	Model *FaultModelSpec `json:"model,omitempty"`
	// Array is the array side for bits/count sweeps (0 = 64).
	Array int `json:"array,omitempty"`
	// Faults is the faulty-PE count for bits/size sweeps (0 = 16).
	Faults int `json:"faults,omitempty"`
	// Repeats is the fault maps averaged per point (0 = 3).
	Repeats int `json:"repeats,omitempty"`
	// BaseEpochs is the baseline training budget (0 = 12).
	BaseEpochs int `json:"baseEpochs,omitempty"`
	// Train and Test are the dataset sizes (0 = 320 / 128).
	Train int `json:"train,omitempty"`
	Test  int `json:"test,omitempty"`
	// Mitigate, when set, salvages the deployment with the selected
	// strategy before each measurement instead of sweeping unmitigated
	// (`campaign run -c faultsim -mitigate`). Omitted on old specs, so historical
	// fingerprints are unchanged.
	Mitigate *MitigationSpec `json:"mitigate,omitempty"`
	// Training is the unified training section for the baseline loop.
	// Its epochs alias the legacy BaseEpochs knob (setting both is an
	// error); batch, lr, clipNorm, loss, replicas and microBatch
	// configure the loop directly. Omitted on old specs, so historical
	// fingerprints are unchanged.
	Training *TrainSpec `json:"training,omitempty"`
}

// validateTraining checks the sweep's unified training section against
// the legacy flat knob.
func (f *FaultSimSpec) validateTraining() error {
	t := f.Training
	if t == nil {
		return nil
	}
	if err := t.Validate(); err != nil {
		return err
	}
	if t.Epochs > 0 && f.BaseEpochs > 0 {
		return fmt.Errorf("spec: faultsim sets both baseEpochs and training.epochs — drop one")
	}
	return nil
}

// EffectiveBaseEpochs resolves the baseline training budget from
// whichever knob is set, applying the documented default (12).
func (f *FaultSimSpec) EffectiveBaseEpochs() int {
	if f.Training != nil && f.Training.Epochs > 0 {
		return f.Training.Epochs
	}
	if f.BaseEpochs > 0 {
		return f.BaseEpochs
	}
	return 12
}

// Defaulted returns a copy with every zero field replaced by its
// documented default. It is THE definition of the yield defaults:
// builders resolve through it and cmd/campaign registers its flag
// defaults from it, so the two surfaces cannot drift. (Clustered is a
// literal bool and stays as written; the flags default it to true.)
func (y YieldSpec) Defaulted() YieldSpec {
	def := func(v *int, d int) {
		if *v == 0 {
			*v = d
		}
	}
	deff := func(v *float64, d float64) {
		if *v == 0 {
			*v = d
		}
	}
	def(&y.Chips, 12)
	deff(&y.MeanFaulty, 60)
	deff(&y.Alpha, 1.0)
	deff(&y.Threshold, 0.85)
	if y.Method == "" {
		y.Method = "falvolt"
	}
	def(&y.MitEpochs, 4)
	def(&y.BaseEpochs, 12)
	def(&y.Array, 64)
	def(&y.Eval, 96)
	return y
}

// Defaulted returns a copy with every zero numeric/string field
// replaced by its documented default (Rate and Quick are literal — see
// the type comment).
func (p PipelineSpec) Defaulted() PipelineSpec {
	if p.Dataset == "" {
		p.Dataset = "mnist"
	}
	if p.Method == "" {
		p.Method = "falvolt"
	}
	def := func(v *int, d int) {
		if *v == 0 {
			*v = d
		}
	}
	def(&p.Array, 64)
	def(&p.BaseEpochs, 12)
	def(&p.Epochs, 8)
	def(&p.Train, 320)
	def(&p.Test, 128)
	return p
}

// Defaulted returns a copy with every zero field replaced by its
// documented default.
func (f FaultSimSpec) Defaulted() FaultSimSpec {
	if f.Dataset == "" {
		f.Dataset = "mnist"
	}
	if f.Sweep == "" {
		f.Sweep = "bits"
	}
	def := func(v *int, d int) {
		if *v == 0 {
			*v = d
		}
	}
	def(&f.Array, 64)
	def(&f.Faults, 16)
	def(&f.Repeats, 3)
	def(&f.BaseEpochs, 12)
	def(&f.Train, 320)
	def(&f.Test, 128)
	return f
}

// FaultModelSpec selects and configures one pluggable fault model
// (faults.FaultModel) by name — the spec-level address of a fault
// class, the way Backend addresses a compute engine. Fields are
// literal, like every other section: the canonical form (and thus the
// fingerprint) preserves exactly what was written, so two specs that
// spell the same model differently (one relying on a default, one
// spelling it out) are conservatively distinct experiments.
//
// Which knobs a kind reads is validated strictly — a profile on a
// stuck-at model, or a strike timestep on a bit-flip model, is almost
// certainly a mis-edited kind and fails loudly.
type FaultModelSpec struct {
	// Kind is the model: "stuckat", "bitflip" or "transient"
	// ("" = "stuckat").
	Kind string `json:"kind,omitempty"`
	// Bit pins the affected bit position (stuckat/transient). Setting
	// it implies BitMode "fixed"; combining it with another explicit
	// BitMode is an error. To pin bit 0, spell out bitMode: "fixed".
	Bit int `json:"bit,omitempty"`
	// BitMode picks bit positions (stuckat/transient): "msb" (default,
	// the paper's worst-case high-order bits), "fixed" or "random".
	BitMode string `json:"bitMode,omitempty"`
	// Pol is the forced polarity (stuckat/transient): "sa1" (default)
	// or "sa0"; ignored — and rejected — when PolMode is "random".
	Pol string `json:"pol,omitempty"`
	// PolMode is "fixed" (default) or "random" (stuckat/transient).
	PolMode string `json:"polMode,omitempty"`
	// Profile shapes the per-bit SRAM flip rates (bitflip only):
	// "decay" (default), "uniform" or "msb".
	Profile string `json:"profile,omitempty"`
	// Strike is the timestep the soft-error burst lands on (transient
	// only; default 0).
	Strike int `json:"strike,omitempty"`
	// Decay bounds each strike's duration in timesteps (transient
	// only; 0 = faults.DefaultMaxDuration).
	Decay int `json:"decay,omitempty"`
}

// EffectiveKind resolves the model kind ("" = "stuckat").
func (f FaultModelSpec) EffectiveKind() string {
	if f.Kind == "" {
		return "stuckat"
	}
	return f.Kind
}

// Validate checks the model selection: known kind, in-range bit, known
// modes, and no knob that the kind would silently ignore.
func (f FaultModelSpec) Validate() error {
	kind := f.EffectiveKind()
	switch kind {
	case "stuckat", "bitflip", "transient":
	default:
		return fmt.Errorf("spec: unknown fault model kind %q (want stuckat, bitflip or transient)", f.Kind)
	}
	if f.Bit < 0 || f.Bit >= fixed.WordBits {
		return fmt.Errorf("spec: fault model bit %d outside [0,%d)", f.Bit, fixed.WordBits)
	}
	switch f.BitMode {
	case "", "fixed", "random", "msb":
	default:
		return fmt.Errorf("spec: unknown bitMode %q (want fixed, random or msb)", f.BitMode)
	}
	if f.Bit != 0 && f.BitMode != "" && f.BitMode != "fixed" {
		return fmt.Errorf("spec: bit %d is ignored under bitMode %q — drop one", f.Bit, f.BitMode)
	}
	switch f.Pol {
	case "", "sa0", "sa1":
	default:
		return fmt.Errorf("spec: unknown polarity %q (want sa0 or sa1)", f.Pol)
	}
	switch f.PolMode {
	case "", "fixed", "random":
	default:
		return fmt.Errorf("spec: unknown polMode %q (want fixed or random)", f.PolMode)
	}
	if f.PolMode == "random" && f.Pol != "" {
		return fmt.Errorf("spec: pol %q is ignored under polMode random — drop one", f.Pol)
	}
	if _, err := faults.ParseBitProfile(f.Profile); err != nil {
		return fmt.Errorf("spec: %w", err)
	}
	if f.Strike < 0 {
		return fmt.Errorf("spec: strike timestep %d negative", f.Strike)
	}
	if f.Decay < 0 {
		return fmt.Errorf("spec: decay bound %d negative", f.Decay)
	}
	// Reject knobs the kind would silently ignore.
	switch kind {
	case "stuckat", "transient":
		if f.Profile != "" {
			return fmt.Errorf("spec: fault model %q does not use profile (bitflip only)", kind)
		}
		if kind == "stuckat" && (f.Strike != 0 || f.Decay != 0) {
			return fmt.Errorf("spec: fault model stuckat does not use strike/decay (transient only)")
		}
	case "bitflip":
		if f.Bit != 0 || f.BitMode != "" || f.Pol != "" || f.PolMode != "" {
			return fmt.Errorf("spec: fault model bitflip does not use bit/bitMode/pol/polMode (its per-bit behaviour comes from profile)")
		}
		if f.Strike != 0 || f.Decay != 0 {
			return fmt.Errorf("spec: fault model bitflip does not use strike/decay (transient only)")
		}
	}
	return nil
}

// genSpec resolves the bit/polarity knobs into a faults.GenSpec.
func (f FaultModelSpec) genSpec() faults.GenSpec {
	gs := faults.GenSpec{Bit: uint(f.Bit)}
	switch f.BitMode {
	case "fixed":
		gs.BitMode = faults.FixedBit
	case "random":
		gs.BitMode = faults.RandomBit
	case "msb":
		gs.BitMode = faults.MSBBits
	default: // "" — fixed if a bit was pinned, the msb regime otherwise
		if f.Bit != 0 {
			gs.BitMode = faults.FixedBit
		} else {
			gs.BitMode = faults.MSBBits
		}
	}
	switch {
	case f.PolMode == "random":
		gs.PolMode = faults.RandomPol
	case f.Pol == "sa0":
		gs.Pol = faults.StuckAt0
	default: // "" or "sa1"
		gs.Pol = faults.StuckAt1
	}
	return gs
}

// FaultModel validates the spec and constructs the configured
// faults.FaultModel it addresses.
func (f FaultModelSpec) FaultModel() (faults.FaultModel, error) {
	if err := f.Validate(); err != nil {
		return nil, err
	}
	switch f.EffectiveKind() {
	case "bitflip":
		profile, err := faults.ParseBitProfile(f.Profile)
		if err != nil {
			return nil, fmt.Errorf("spec: %w", err)
		}
		return faults.BitFlipModel{Profile: profile}, nil
	case "transient":
		return faults.TransientModel{Gen: f.genSpec(), Start: f.Strike, MaxDuration: f.Decay}, nil
	}
	return faults.StuckAtModel{Gen: f.genSpec()}, nil
}

// FaultModelCampaignSpec sizes the model-free fault-model
// characterization campaign (kind "faultmodel"): every (rate × repeat)
// cell injects the model into a systolic array at a seed-addressed
// instance and measures output corruption against a clean twin over a
// short spiking inference — no trained network needed, so the cluster
// can grind large (model × rate × seed) grids cheaply.
type FaultModelCampaignSpec struct {
	// Model selects and configures the fault model under test.
	Model FaultModelSpec `json:"model"`
	// Array is the systolic array side (0 = 32).
	Array int `json:"array,omitempty"`
	// Rates is the severity axis (nil = the default ladder).
	Rates []float64 `json:"rates,omitempty"`
	// Repeats is the seed-addressed instances per rate (0 = 4).
	Repeats int `json:"repeats,omitempty"`
	// Batch is the input vectors per forward pass (0 = 8).
	Batch int `json:"batch,omitempty"`
	// Timesteps is the inference horizon each trial steps through —
	// the axis transient strikes decay along (0 = 4).
	Timesteps int `json:"timesteps,omitempty"`
	// Density is the input spike density (0 = 0.3).
	Density float64 `json:"density,omitempty"`
}

// DefaultFaultModelRates is the rate ladder a nil Rates resolves to.
func DefaultFaultModelRates() []float64 {
	return []float64{0.01, 0.02, 0.05, 0.1, 0.2}
}

// Defaulted returns a copy with every zero field replaced by its
// documented default.
func (f FaultModelCampaignSpec) Defaulted() FaultModelCampaignSpec {
	def := func(v *int, d int) {
		if *v == 0 {
			*v = d
		}
	}
	def(&f.Array, 32)
	if f.Rates == nil {
		f.Rates = DefaultFaultModelRates()
	}
	def(&f.Repeats, 4)
	def(&f.Batch, 8)
	def(&f.Timesteps, 4)
	if f.Density == 0 {
		f.Density = 0.3
	}
	return f
}

// Validate checks the campaign section: a valid model and in-range
// sweep axes.
func (f FaultModelCampaignSpec) Validate() error {
	if err := f.Model.Validate(); err != nil {
		return err
	}
	d := f.Defaulted()
	if d.Array < 2 || d.Array > 1024 {
		return fmt.Errorf("spec: faultModel array side %d outside [2,1024]", d.Array)
	}
	if len(d.Rates) == 0 {
		return fmt.Errorf("spec: faultModel rates empty")
	}
	for _, r := range d.Rates {
		if r < 0 || r > 1 {
			return fmt.Errorf("spec: faultModel rate %v outside [0,1]", r)
		}
	}
	if d.Repeats < 1 {
		return fmt.Errorf("spec: faultModel repeats %d < 1", d.Repeats)
	}
	if d.Batch < 1 || d.Timesteps < 1 {
		return fmt.Errorf("spec: faultModel batch %d / timesteps %d < 1", d.Batch, d.Timesteps)
	}
	if d.Density < 0 || d.Density > 1 {
		return fmt.Errorf("spec: faultModel density %v outside [0,1]", d.Density)
	}
	return nil
}

// DefaultSeed is what a zero Spec.Seed resolves to, uniformly across
// kinds.
const DefaultSeed = 7

// EffectiveSeed resolves the run's seed (0 = DefaultSeed).
func (s *Spec) EffectiveSeed() int64 {
	if s.Seed == 0 {
		return DefaultSeed
	}
	return s.Seed
}

// sectionFor names the configuration section a kind consumes. Kinds
// without a dedicated section (the figure campaigns, and any future
// registry kind) use the suite section; "falvolt" reads the pipeline
// section.
func sectionFor(kind string) string {
	switch kind {
	case "yield":
		return "yield"
	case "selftest":
		return "selftest"
	case "falvolt":
		return "pipeline"
	case "faultsim":
		return "faultsim"
	case "faultmodel":
		return "faultModel"
	case "salvage":
		return "salvage"
	case "sitesweep":
		return "siteSweep"
	}
	return "suite"
}

// Validate checks the spec's envelope: supported version, a kind, a
// parseable shard, and that no section is configured which the kind
// would silently ignore (a yield section on a selftest spec is almost
// certainly a mis-edited kind, and must fail loudly like any other
// typo). Section contents are validated by the kind's builder (Build),
// which knows the semantics.
func (s *Spec) Validate() error {
	if s.Version != Version {
		return fmt.Errorf("spec: version %d unsupported (this build speaks version %d)", s.Version, Version)
	}
	if s.Kind == "" {
		return fmt.Errorf("spec: missing kind")
	}
	if _, err := campaign.ParseShard(s.Shard); err != nil {
		return fmt.Errorf("spec: %w", err)
	}
	if err := validateRunName(s.Name); err != nil {
		return err
	}
	if err := validateLabels(s.Labels); err != nil {
		return err
	}
	want := sectionFor(s.Kind)
	for name, present := range map[string]bool{
		"suite":      s.Suite != nil,
		"yield":      s.Yield != nil,
		"selftest":   s.Selftest != nil,
		"pipeline":   s.Pipeline != nil,
		"faultsim":   s.FaultSim != nil,
		"faultModel": s.FaultModel != nil,
		"salvage":    s.Salvage != nil,
		"siteSweep":  s.SiteSweep != nil,
	} {
		if present && name != want {
			return fmt.Errorf("spec: kind %q does not use the %s section (it reads %s) — wrong kind or leftover section?",
				s.Kind, name, want)
		}
	}
	// Training sections validate at the envelope so a bad knob (an
	// unknown loss, a duplicated epoch budget) is rejected at Decode
	// time, not first at build/run time.
	if s.Suite != nil {
		if err := s.Suite.validateTraining(); err != nil {
			return err
		}
	}
	if s.FaultSim != nil {
		if err := s.FaultSim.validateTraining(); err != nil {
			return err
		}
	}
	// Fault-model selections validate at the envelope so a bad model
	// (unknown kind, out-of-range bit) is rejected at Decode time, not
	// first at build/run time.
	if s.FaultSim != nil && s.FaultSim.Model != nil {
		if err := s.FaultSim.Model.Validate(); err != nil {
			return err
		}
	}
	if s.FaultSim != nil && s.FaultSim.Mitigate != nil {
		if err := s.FaultSim.Mitigate.Validate(); err != nil {
			return err
		}
	}
	if s.FaultModel != nil {
		if err := s.FaultModel.Validate(); err != nil {
			return err
		}
	}
	if s.Salvage != nil {
		if err := s.Salvage.Validate(); err != nil {
			return err
		}
	}
	if s.SiteSweep != nil {
		if err := s.SiteSweep.Validate(); err != nil {
			return err
		}
	}
	return nil
}

// Catalog-field limits. Names and labels travel through service
// catalogs, log lines and status tables; bound them so a pasted blob
// or a control character cannot wreck a listing or a journal line.
const (
	maxNameLen       = 128
	maxLabelKeyLen   = 64
	maxLabelValueLen = 256
	maxLabels        = 32
)

// validateRunName bounds the catalog name: printable, single-line,
// at most maxNameLen bytes.
func validateRunName(name string) error {
	if len(name) > maxNameLen {
		return fmt.Errorf("spec: name longer than %d bytes", maxNameLen)
	}
	for _, r := range name {
		if r < 0x20 || r == 0x7f {
			return fmt.Errorf("spec: name contains control character %q", r)
		}
	}
	return nil
}

// validateLabels bounds the catalog labels: non-empty printable keys,
// printable single-line values, at most maxLabels entries.
func validateLabels(labels map[string]string) error {
	if len(labels) > maxLabels {
		return fmt.Errorf("spec: more than %d labels", maxLabels)
	}
	for k, v := range labels {
		if k == "" {
			return fmt.Errorf("spec: empty label key")
		}
		if len(k) > maxLabelKeyLen {
			return fmt.Errorf("spec: label key %q longer than %d bytes", k[:maxLabelKeyLen], maxLabelKeyLen)
		}
		if len(v) > maxLabelValueLen {
			return fmt.Errorf("spec: label %q value longer than %d bytes", k, maxLabelValueLen)
		}
		for _, r := range k + v {
			if r < 0x20 || r == 0x7f {
				return fmt.Errorf("spec: label %q contains control character %q", k, r)
			}
		}
	}
	return nil
}

// Canonical returns the spec's identity bytes: execution placement
// (Backend, Shard) and catalog identity (Name, Labels)
// cleared, compact JSON in fixed struct-field order. Two specs
// describing the same experiment canonicalize identically however
// their JSON source was ordered or indented.
func (s *Spec) Canonical() ([]byte, error) {
	c := *s
	c.Backend, c.Shard = "", ""
	c.Name, c.Labels = "", nil
	// Training replica counts are execution placement too — the
	// deterministic reduction makes results bit-identical at any lane
	// count — so clear them wherever a training section appears, on
	// copies: canonicalization never mutates the source spec.
	if su := c.Suite; su != nil && su.Training.canonical() != su.Training {
		cp := *su
		cp.Training = cp.Training.canonical()
		c.Suite = &cp
	}
	if fs := c.FaultSim; fs != nil {
		tr := fs.Training.canonical()
		mit := fs.Mitigate
		if mit != nil && mit.Training.canonical() != mit.Training {
			mcp := *mit
			mcp.Training = mcp.Training.canonical()
			mit = &mcp
		}
		if tr != fs.Training || mit != fs.Mitigate {
			cp := *fs
			cp.Training, cp.Mitigate = tr, mit
			c.FaultSim = &cp
		}
	}
	if sa := c.Salvage; sa != nil {
		for i := range sa.Mitigations {
			if sa.Mitigations[i].Training.canonical() == sa.Mitigations[i].Training {
				continue
			}
			cp := *sa
			cp.Mitigations = make([]MitigationSpec, len(sa.Mitigations))
			copy(cp.Mitigations, sa.Mitigations)
			for j := range cp.Mitigations {
				cp.Mitigations[j].Training = cp.Mitigations[j].Training.canonical()
			}
			c.Salvage = &cp
			break
		}
	}
	b, err := json.Marshal(&c)
	if err != nil {
		return nil, fmt.Errorf("spec: canonicalize: %w", err)
	}
	return b, nil
}

// Fingerprint digests the canonical form into a short hex id — the
// cluster registration fingerprint and the stable name of "this exact
// experiment".
func (s *Spec) Fingerprint() (string, error) {
	b, err := s.Canonical()
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])[:16], nil
}

// Encode renders the full spec (execution fields included) as indented
// JSON with a trailing newline — the -dump-spec output, editable and
// loadable by -spec.
func (s *Spec) Encode() ([]byte, error) {
	b, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("spec: encode: %w", err)
	}
	return append(b, '\n'), nil
}

// Decode parses and validates spec JSON. Unknown fields are rejected —
// a typoed knob in a hand-edited spec must fail loudly, not silently
// fall back to a default — as are unsupported versions and trailing
// garbage.
func Decode(data []byte) (*Spec, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var s Spec
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("spec: decode: %w", err)
	}
	var trailing json.RawMessage
	if err := dec.Decode(&trailing); err != io.EOF {
		return nil, fmt.Errorf("spec: decode: trailing data after spec object")
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return &s, nil
}

// Load reads and decodes a spec file; path "-" reads stdin (so tools
// compose as `tool -dump-spec | tool -spec -`).
func Load(path string) (*Spec, error) {
	var (
		data []byte
		err  error
	)
	if path == "-" {
		data, err = io.ReadAll(os.Stdin)
	} else {
		data, err = os.ReadFile(path)
	}
	if err != nil {
		return nil, fmt.Errorf("spec: load: %w", err)
	}
	s, err := Decode(data)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return s, nil
}

// LoadOverride is Load plus the execution-backend override every cmd
// tool applies: a non-empty -backend flag wins over the spec file's.
func LoadOverride(path, backend string) (*Spec, error) {
	s, err := Load(path)
	if err != nil {
		return nil, err
	}
	if backend != "" {
		s.Backend = backend
	}
	return s, nil
}

// Dump writes the encoded spec to w — the shared -dump-spec output
// path.
func (s *Spec) Dump(w io.Writer) error {
	b, err := s.Encode()
	if err != nil {
		return err
	}
	_, err = w.Write(b)
	return err
}
