package core

import (
	"fmt"
	"math/rand"
	"strconv"
	"strings"

	"falvolt/internal/campaign"
	"falvolt/internal/faults"
	"falvolt/internal/mitigation"
	"falvolt/internal/spec"
	"falvolt/internal/systolic"
)

// The "salvage" campaign kind: the head-to-head mitigation benchmark.
// Every (fault model × rate × mitigation × repeat) cell restores the
// shared trained baseline, injects a seed-addressed fault instance,
// measures raw (unmitigated) accuracy, applies the cell's salvage
// strategy through the mitigation.Mitigation seam, and measures
// salvaged accuracy plus the costs that separate the strategies:
// retraining epochs spent and per-inference MAC-cycle overhead. Trials
// are a pure function of the spec, per-trial randomness is a pure
// function of the trial seed, and metrics fold deterministically, so
// sharded merges are byte-identical to a single-process run.

// SalvageMitLabels names each mitigation axis entry: the kind, suffixed
// with its list index when the same kind appears more than once (e.g. a
// falvolt epoch sweep). A pure function of the spec, so every shard,
// worker and report renderer agrees on the keys.
func SalvageMitLabels(mits []spec.MitigationSpec) []string {
	counts := map[string]int{}
	for _, m := range mits {
		counts[m.EffectiveKind()]++
	}
	labels := make([]string, len(mits))
	for i, m := range mits {
		kind := m.EffectiveKind()
		if counts[kind] > 1 {
			labels[i] = fmt.Sprintf("%s#%d", kind, i)
		} else {
			labels[i] = kind
		}
	}
	return labels
}

// SalvageTrials enumerates the grid deterministically: fault models,
// then mitigations, then rates, then repeats, IDs dense. The Key names
// the (model, mitigation, rate) cell the report averages over; Tags pin
// the exact coordinates.
func SalvageTrials(d spec.SalvageCampaignSpec, seed int64) []campaign.Trial {
	labels := SalvageMitLabels(d.Mitigations)
	var trials []campaign.Trial
	id := 0
	for _, model := range d.Models {
		for mi, label := range labels {
			for _, rate := range d.Rates {
				rtag := strconv.FormatFloat(rate, 'g', -1, 64)
				key := fmt.Sprintf("model=%s|mit=%s|rate=%s", model, label, rtag)
				for rep := 0; rep < d.Repeats; rep++ {
					trials = append(trials, campaign.Trial{
						ID:   id,
						Key:  key,
						Seed: seed + 7919*int64(id),
						Tags: map[string]string{
							"model": model,
							"mit":   label,
							"miti":  strconv.Itoa(mi),
							"rate":  rtag,
							"rep":   strconv.Itoa(rep),
						},
					})
					id++
				}
			}
		}
	}
	return trials
}

// salvageMeta fingerprints every result-affecting knob so shards run
// with different settings refuse to merge.
func salvageMeta(d spec.SalvageCampaignSpec, seed int64, extra map[string]string) map[string]string {
	mits := make([]string, len(d.Mitigations))
	for i, ms := range d.Mitigations {
		mits[i] = fmt.Sprintf("%s:e%d:lr%g:v%g:b%d",
			ms.EffectiveKind(), ms.Epochs, ms.LR, ms.Vth, ms.BypassBit)
	}
	rates := make([]string, len(d.Rates))
	for i, r := range d.Rates {
		rates[i] = strconv.FormatFloat(r, 'g', -1, 64)
	}
	m := map[string]string{
		"models":      strings.Join(d.Models, "+"),
		"mitigations": strings.Join(mits, "+"),
		"rates":       strings.Join(rates, "+"),
		"repeats":     strconv.Itoa(d.Repeats),
		"array":       strconv.Itoa(d.Array),
		"base-epochs": strconv.Itoa(d.BaseEpochs),
		"epochs":      strconv.Itoa(d.Epochs),
		"batch":       strconv.Itoa(d.Batch),
		"seed":        strconv.FormatInt(seed, 10),
	}
	for k, v := range extra {
		m[k] = v
	}
	return m
}

// SalvageCampaign builds the runnable campaign for a salvage section.
// The baseline resources are shared with the yield study
// (SyntheticYieldBuild): one trained model, its fault-free snapshot, a
// clean array, and a BuildModel factory for parallel lanes. They are
// built on first worker use, so planning trials, and resuming a
// checkpoint that already covers every trial, never pay for baseline
// training. Lane 0 reuses the shared model and array; further lanes
// build private replicas via BuildModel.
func SalvageCampaign(cfg spec.SalvageCampaignSpec, seed int64,
	fingerprint map[string]string, build func() (YieldDeps, error)) (campaign.Campaign, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	d := cfg.Defaulted()
	lazy := &lazyDeps{build: func() (YieldDeps, error) {
		deps, err := build()
		if err != nil {
			return YieldDeps{}, err
		}
		return deps, plannedArray("salvage", deps.Arr, d.Array, d.Array)
	}}
	meta := salvageMeta(d, seed, fingerprint)
	return campaign.NewWithMeta("salvage", meta, SalvageTrials(d, seed), func(lane int) (campaign.Worker, error) {
		deps, err := lazy.get()
		if err != nil {
			return nil, err
		}
		model, arr, err := deps.Lane(lane)
		if err != nil {
			return nil, err
		}
		cl := NewCellLane(deps, model, arr)
		return campaign.WorkerFunc(func(t campaign.Trial) (campaign.Result, error) {
			return salvageTrial(cl, d, t)
		}), nil
	}), nil
}

// salvageTrial runs one (model × rate × mitigation × repeat) cell on cl.
func salvageTrial(cl *CellLane, d spec.SalvageCampaignSpec, t campaign.Trial) (campaign.Result, error) {
	rate, err := strconv.ParseFloat(t.Tags["rate"], 64)
	if err != nil {
		return campaign.Result{}, fmt.Errorf("core: trial %d: bad rate tag %q", t.ID, t.Tags["rate"])
	}
	mi, err := strconv.Atoi(t.Tags["miti"])
	if err != nil || mi < 0 || mi >= len(d.Mitigations) {
		return campaign.Result{}, fmt.Errorf("core: trial %d: bad mitigation tag %q", t.ID, t.Tags["miti"])
	}
	ms := d.Mitigations[mi]
	fmodel, err := faults.ModelByName(t.Tags["model"])
	if err != nil {
		return campaign.Result{}, fmt.Errorf("core: trial %d: %w", t.ID, err)
	}
	lr := ms.EffectiveLR()
	if lr == 0 {
		lr = 0.01
	}
	mit, err := newMitigation(ms, d.Epochs, lr, cl.deps, rand.New(rand.NewSource(t.Seed+1)))
	if err != nil {
		return campaign.Result{}, fmt.Errorf("core: trial %d: %w", t.ID, err)
	}
	inject := func(arr *systolic.Array) error { return fmodel.Inject(arr, rate, t.Seed) }
	// Raw accuracy (bypass off) is the floor every strategy is measured
	// against; the strategy then owns deployment, bypass and retraining.
	s, err := cl.Salvage(d.Array, inject, mit, true, d.Batch)
	if err != nil {
		return campaign.Result{}, fmt.Errorf("core: trial %d: %w", t.ID, err)
	}
	out := s.Outcome
	return campaign.Result{
		TrialID: t.ID,
		Key:     t.Key,
		Metrics: map[string]float64{
			"raw":       s.Raw,
			"acc":       s.Acc,
			"recovered": s.Acc - s.Raw,
			"epochs":    float64(out.RetrainEpochs),
			"pruned":    out.PrunedFraction,
			"remapped":  float64(out.RemappedLayers),
			"bypassed":  float64(out.BypassedPEs),
			"clamped":   float64(out.ClampedLayers),
			"mac":       s.MAC,
		},
	}, nil
}

// newMitigation builds ms's strategy over the baseline's data with the
// knob defaults every salvage path shares: epochs 0 selects defEpochs,
// batch 0 selects 16, and clip norm 0 selects the paper's clip of 5 (the
// same sentinel as BaselineConfig: clipping cannot be disabled from a
// spec, only retuned).
func newMitigation(ms spec.MitigationSpec, defEpochs int, lr float64, deps YieldDeps, rng *rand.Rand) (mitigation.Mitigation, error) {
	epochs := ms.EffectiveEpochs()
	if epochs == 0 {
		epochs = defEpochs
	}
	mt := ms.TrainingOrZero()
	batch, clip := mt.Batch, mt.ClipNorm
	if batch == 0 {
		batch = 16
	}
	if clip == 0 {
		clip = 5
	}
	return mitigation.New(ms.EffectiveKind(), mitigation.Options{
		Train:      deps.Train,
		Test:       deps.Test,
		Epochs:     epochs,
		BatchSize:  batch,
		LR:         lr,
		ClipNorm:   clip,
		FixedVth:   ms.Vth,
		Rng:        rng,
		BypassBit:  ms.BypassBit,
		Replicas:   mt.Replicas,
		MicroBatch: mt.MicroBatch,
	})
}
