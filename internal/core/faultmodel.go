package core

import (
	"fmt"
	"io"
	"math"
	"math/rand"
	"strconv"

	"falvolt/internal/campaign"
	"falvolt/internal/fixed"
	"falvolt/internal/spec"
	"falvolt/internal/systolic"
	"falvolt/internal/tensor"
)

// The "faultmodel" campaign kind: systolic-level characterization of a
// pluggable fault model. Every (rate × repeat) cell injects a
// seed-addressed fault instance into an array and measures output
// corruption against a clean twin over a short spiking inference — no
// trained network in the loop, so large (model × rate × seed) grids are
// cheap enough for the cluster to grind exhaustively, and every cell
// reproduces bit-identically on any shard split or worker count.

// FaultModelTrials enumerates the campaign deterministically: rates in
// spec order, repeats within each rate, IDs dense. Each trial's seed is
// an injective function of (campaign seed, trial ID), so a cell's fault
// instance is addressable from the trial alone.
func FaultModelTrials(cfg spec.FaultModelCampaignSpec, seed int64) []campaign.Trial {
	var trials []campaign.Trial
	id := 0
	for _, rate := range cfg.Rates {
		key := "rate=" + strconv.FormatFloat(rate, 'g', -1, 64)
		for rep := 0; rep < cfg.Repeats; rep++ {
			trials = append(trials, campaign.Trial{
				ID:   id,
				Key:  key,
				Seed: seed + 7919*int64(id),
				Tags: map[string]string{
					"rate": strconv.FormatFloat(rate, 'g', -1, 64),
					"rep":  strconv.Itoa(rep),
				},
			})
			id++
		}
	}
	return trials
}

// corruptionProbe is one lane's private state for the model-free kinds
// (faultmodel, sitesweep): a faulty array plus a deterministic spiking
// workload and its clean output, derived from the campaign seed —
// identical on every lane, shard and worker count, so only the trial's
// fault instance varies between cells.
type corruptionProbe struct {
	faulty *systolic.Array
	wm     *systolic.Matrix
	x      *tensor.Patches
	yClean *tensor.Tensor
}

func newCorruptionProbe(side, batch int, density float64, seed int64) (*corruptionProbe, error) {
	mk := func() (*systolic.Array, error) {
		return systolic.New(systolic.Config{
			Rows: side, Cols: side, Format: fixed.Q16x16, Saturate: true,
			Engine: tensor.Serial(),
		})
	}
	clean, err := mk()
	if err != nil {
		return nil, err
	}
	faulty, err := mk()
	if err != nil {
		return nil, err
	}
	// Ragged K and M tiles: K > Rows exercises multi-tile accumulation,
	// M > Cols exercises column reuse — the shapes fault effects
	// propagate through in a real deployment.
	k := side + side/2 + 1
	m := side + side/3 + 2
	rng := rand.New(rand.NewSource(seed))
	w := tensor.New(m, k)
	w.RandNormal(rng, 0.5)
	wm := systolic.QuantizeMatrix(w, fixed.Q16x16)
	x := tensor.New(batch, k)
	xrng := rand.New(rand.NewSource(seed + 1))
	for i := range x.Data {
		if xrng.Float64() < density {
			x.Data[i] = 1
		}
	}
	rows := tensor.RowPatches(x)
	return &corruptionProbe{faulty: faulty, wm: wm, x: rows, yClean: clean.Forward(rows, wm, true)}, nil
}

// measure injects trial t's fault instance into the cleared faulty
// array and steps it through the inference horizon, comparing each
// timestep's output against the clean reference. Metrics accumulate in
// index order over float64, so a trial's result is bit-identical
// wherever it runs.
func (p *corruptionProbe) measure(t campaign.Trial, timesteps int, inject func(*systolic.Array) error) (campaign.Result, error) {
	p.faulty.ClearFaults()
	if err := inject(p.faulty); err != nil {
		return campaign.Result{}, fmt.Errorf("core: trial %d: %w", t.ID, err)
	}
	var corrupt, total int
	var sumAbs, maxAbs float64
	for step := 0; step < timesteps; step++ {
		p.faulty.SetTimestep(step)
		yf := p.faulty.Forward(p.x, p.wm, true)
		for i := range yf.Data {
			d := math.Abs(float64(yf.Data[i]) - float64(p.yClean.Data[i]))
			total++
			if d != 0 {
				corrupt++
				sumAbs += d
				if d > maxAbs {
					maxAbs = d
				}
			}
		}
		tensor.ReleaseScratch(yf)
	}
	p.faulty.ClearFaults()
	return campaign.Result{
		TrialID: t.ID,
		Key:     t.Key,
		Metrics: map[string]float64{
			"corrupt": float64(corrupt) / float64(total),
			"mae":     sumAbs / float64(total),
			"max":     maxAbs,
		},
	}, nil
}

// FaultModelCampaign builds the runnable campaign for a faultModel
// section (validated here, so mis-specified sections fail at build
// time on every surface — cmd flags, spec files, cluster workers).
func FaultModelCampaign(cfg spec.FaultModelCampaignSpec, seed int64) (campaign.Campaign, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	d := cfg.Defaulted()
	model, err := d.Model.FaultModel()
	if err != nil {
		return nil, err
	}
	meta := map[string]string{
		"model": model.Name(),
		"array": strconv.Itoa(d.Array),
	}
	trials := FaultModelTrials(d, seed)
	return campaign.NewWithMeta("faultmodel", meta, trials, func(lane int) (campaign.Worker, error) {
		p, err := newCorruptionProbe(d.Array, d.Batch, d.Density, seed)
		if err != nil {
			return nil, err
		}
		return campaign.WorkerFunc(func(t campaign.Trial) (campaign.Result, error) {
			rate, err := strconv.ParseFloat(t.Tags["rate"], 64)
			if err != nil {
				return campaign.Result{}, fmt.Errorf("core: trial %d: bad rate tag %q", t.ID, t.Tags["rate"])
			}
			return p.measure(t, d.Timesteps, func(a *systolic.Array) error { return model.Inject(a, rate, t.Seed) })
		}), nil
	}), nil
}

// faultModelPoint is one rate row of the rendered report.
type faultModelPoint struct {
	Rate    float64 `json:"rate"`
	Corrupt float64 `json:"corrupt"`
	MAE     float64 `json:"mae"`
	Max     float64 `json:"max"`
}

// faultModelReport is the merge-rendered JSON artifact.
type faultModelReport struct {
	Model  string            `json:"model"`
	Array  int               `json:"array"`
	Points []faultModelPoint `json:"points"`
}

func faultModelJSON(d spec.FaultModelCampaignSpec, results []campaign.Result) (*faultModelReport, error) {
	corrupt := campaign.GroupMean(results, "corrupt")
	mae := campaign.GroupMean(results, "mae")
	maxm := campaign.GroupMean(results, "max")
	rep := &faultModelReport{Model: d.Model.EffectiveKind(), Array: d.Array}
	for _, rate := range d.Rates {
		key := "rate=" + strconv.FormatFloat(rate, 'g', -1, 64)
		rep.Points = append(rep.Points, faultModelPoint{
			Rate:    rate,
			Corrupt: corrupt[key],
			MAE:     mae[key],
			Max:     maxm[key],
		})
	}
	return rep, nil
}

func renderFaultModel(w io.Writer, d spec.FaultModelCampaignSpec, results []campaign.Result) error {
	rep, err := faultModelJSON(d, results)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "Fault-model characterization: model=%s array=%dx%d\n", rep.Model, rep.Array, rep.Array)
	fmt.Fprintf(w, "%-10s %-12s %-12s %-12s\n", "rate", "corrupt", "mae", "max")
	for _, p := range rep.Points {
		fmt.Fprintf(w, "%-10g %-12.4f %-12.4f %-12.4f\n", p.Rate, p.Corrupt, p.MAE, p.Max)
	}
	return nil
}

func init() {
	spec.Register("faultmodel", func(s *spec.Spec, opt spec.BuildOpts) (*spec.Built, error) {
		if s.FaultModel == nil {
			return nil, fmt.Errorf("core: spec kind %q needs a faultModel section", s.Kind)
		}
		d := s.FaultModel.Defaulted()
		cam, err := FaultModelCampaign(*s.FaultModel, s.EffectiveSeed())
		if err != nil {
			return nil, err
		}
		return &spec.Built{
			Campaign: cam,
			Render: func(w io.Writer, results []campaign.Result) error {
				return renderFaultModel(w, d, results)
			},
			JSON: func(results []campaign.Result) (any, error) {
				return faultModelJSON(d, results)
			},
		}, nil
	})
}
