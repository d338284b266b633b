package experiments

import (
	"fmt"
	"math/rand"
	"strconv"

	"falvolt/internal/campaign"
	"falvolt/internal/core"
	"falvolt/internal/mitigation"
)

// Campaign adapters: every figure sweep decomposes into a deterministic
// list of seed-addressed campaign.Trials, so any figure can run sharded
// across processes (`campaign run -shard`, `campaign serve`) and the
// merged results are bit-identical to a single-process run. Trial keys
// are "series|x" addresses; repeats share a key and are averaged in
// trial-ID order by the figure assemblers.
//
// Trial enumeration is pure — it never trains a baseline — so `plan` and
// shard agreement are free; workers train (or load cached) baselines
// lazily on first use.

// CampaignNames lists the campaign-backed sweeps, in figure order.
// "mitigation" is the shared Fig. 6/7/8 study; "ablations" the six
// design-choice ablations.
func CampaignNames() []string {
	return []string{"fig2", "fig5a", "fig5b", "fig5c", "mitigation", "ablations"}
}

// Campaign returns the named sweep as a campaign.
func (s *Suite) Campaign(name string) (campaign.Campaign, error) {
	var trials []campaign.Trial
	var cells []laneCell
	switch name {
	case "fig2":
		trials, cells = s.fig2Trials()
	case "fig5a", "fig5b", "fig5c":
		trials, cells = s.fig5Trials(name)
	case "mitigation":
		trials, cells = s.mitigationTrials()
	case "ablations":
		trials, cells = s.ablationTrials()
	default:
		return nil, fmt.Errorf("experiments: unknown campaign %q (want one of %v)", name, CampaignNames())
	}
	return s.cellCampaign(name, trials, cells), nil
}

// laneCell is what one trial measures: the dataset whose baseline it
// runs on, and the measurement it takes on that dataset's lane. A cell
// naming no dataset gets no lane (a nil one). The measurement fills the
// result's metrics and series; the runner stamps its trial ID and key.
type laneCell struct {
	ds      string
	measure func(cl *core.CellLane, t campaign.Trial) (campaign.Result, error)
}

// cellCampaign runs kind's trials, trial t measuring cells[t.ID], on
// lanes that hold one core.CellLane per named dataset, each on a
// private replica built on the lane's first trial of that dataset.
func (s *Suite) cellCampaign(kind string, trials []campaign.Trial, cells []laneCell) campaign.Campaign {
	return campaign.NewWithMeta(kind, s.campaignMeta(), trials, func(int) (campaign.Worker, error) {
		lanes := map[string]*core.CellLane{}
		return campaign.WorkerFunc(func(t campaign.Trial) (campaign.Result, error) {
			if t.ID < 0 || t.ID >= len(cells) {
				return campaign.Result{}, fmt.Errorf("experiments: %s trial %d out of range", kind, t.ID)
			}
			c := cells[t.ID]
			cl, ok := lanes[c.ds]
			if !ok && c.ds != "" {
				bl, err := s.Dataset(c.ds)
				if err != nil {
					return campaign.Result{}, err
				}
				if cl, err = bl.lane(); err != nil {
					return campaign.Result{}, err
				}
				lanes[c.ds] = cl
			}
			res, err := c.measure(cl, t)
			if err != nil {
				return campaign.Result{}, err
			}
			res.TrialID, res.Key = t.ID, t.Key
			return res, nil
		}), nil
	})
}

// campaignMeta fingerprints the options that determine trial semantics;
// checkpoints refuse to resume or merge across differing fingerprints.
func (s *Suite) campaignMeta() map[string]string {
	return map[string]string{
		"quick":   strconv.FormatBool(s.Spec.Quick),
		"seed":    strconv.FormatInt(s.Seed, 10),
		"array":   fmt.Sprintf("%dx%d", s.Spec.Array, s.Spec.Array),
		"repeats": strconv.Itoa(s.Spec.Repeats),
		"epochs":  strconv.Itoa(s.Spec.Epochs),
		"eval":    strconv.Itoa(s.Spec.Eval),
	}
}

// Figures assembles the named campaign's figures from merged results
// (complete coverage required). For "mitigation" the order is the
// paper's: Fig. 6 per dataset, Fig. 7, Fig. 8 per dataset.
func (s *Suite) Figures(name string, results []campaign.Result) ([]*Figure, error) {
	switch name {
	case "fig2":
		f, err := s.fig2Figure(results)
		return wrapFigure(f, err)
	case "fig5a", "fig5b", "fig5c":
		f, err := s.fig5Figure(name, results)
		return wrapFigure(f, err)
	case "mitigation":
		return s.mitigationFigures(results)
	case "ablations":
		return s.ablationFigures(results)
	}
	return nil, fmt.Errorf("experiments: unknown campaign %q", name)
}

func wrapFigure(f *Figure, err error) ([]*Figure, error) {
	if err != nil {
		return nil, err
	}
	return []*Figure{f}, nil
}

// ftag spells a float in its shortest decimal form, as trial keys and
// tags carry it.
func ftag(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// --- mitigation campaigns (Fig. 2 and the shared Fig. 6/7/8 study) ---

// fig2Datasets are the datasets of the motivational sweep.
var fig2Datasets = []string{"MNIST", "DVSGesture"}

// fig2Rates are its faulty-PE fractions.
var fig2Rates = []float64{0.30, 0.60}

// fig2Epochs is the reduced retraining budget of the sweep.
func (s *Suite) fig2Epochs() int {
	epochs := s.Spec.Epochs / 2
	if epochs < 2 {
		epochs = 2
	}
	return epochs
}

// fig2Trials enumerates the sweep — dataset, rate, then Vth, seeded
// Seed + ID — with the FaPIT cell each trial retrains.
func (s *Suite) fig2Trials() ([]campaign.Trial, []laneCell) {
	var trials []campaign.Trial
	var cells []laneCell
	for d, name := range fig2Datasets {
		for _, rate := range fig2Rates {
			for _, vth := range Fig2Vths {
				j := len(trials)
				trials = append(trials, campaign.Trial{
					ID:   j,
					Key:  fmt.Sprintf("%s@%.0f%%|%.2f", name, rate*100, vth),
					Seed: s.Seed + int64(j),
					Tags: map[string]string{
						"dataset": name, "dsidx": strconv.Itoa(d),
						"rate": ftag(rate), "vth": ftag(vth),
					},
				})
				cells = append(cells, s.mitigatedCell(name, d, rate, false, mitigation.FaPIT, mitigation.Options{
					Epochs: s.fig2Epochs(), FixedVth: vth,
				}))
			}
		}
	}
	return trials, cells
}

func (s *Suite) fig2Figure(results []campaign.Result) (*Figure, error) {
	accs := campaign.GroupMean(results, "acc")
	fig := &Figure{
		ID: "Fig2", Title: "Fixed-threshold retraining sweep (motivation)",
		XLabel: "Vth", YLabel: "accuracy",
		Notes: []string{fmt.Sprintf("FaPIT with forced global threshold, %d retrain epochs, MSB sa1 fault maps", s.fig2Epochs())},
	}
	xs := append([]float64(nil), Fig2Vths...)
	for _, name := range fig2Datasets {
		for _, rate := range fig2Rates {
			ys := make([]float64, 0, len(Fig2Vths))
			for _, vth := range Fig2Vths {
				key := fmt.Sprintf("%s@%.0f%%|%.2f", name, rate*100, vth)
				acc, ok := accs[key]
				if !ok {
					return nil, fmt.Errorf("experiments: fig2 results missing %q (incomplete merge?)", key)
				}
				ys = append(ys, acc)
			}
			fig.Series = append(fig.Series, Series{
				Label: fmt.Sprintf("%s@%.0f%%", name, rate*100),
				X:     xs, Y: ys,
			})
		}
	}
	return fig, nil
}

// mitigationMethods is the method order of the Fig. 6/7/8 study.
var mitigationMethods = []mitigation.Method{mitigation.FaP, mitigation.FaPIT, mitigation.FalVolt}

// mitigationTrials enumerates the study — dataset, rate, then method,
// seeded Seed + 17·ID — with the cell each trial mitigates. Curves for
// Fig. 8 are tracked at the paper's 30% operating point.
func (s *Suite) mitigationTrials() ([]campaign.Trial, []laneCell) {
	var trials []campaign.Trial
	var cells []laneCell
	for d, p := range s.plans() {
		name := p.name
		for _, rate := range MitigationRates {
			for _, m := range mitigationMethods {
				j := len(trials)
				track := rate == 0.30 && m != mitigation.FaP
				trials = append(trials, campaign.Trial{
					ID:   j,
					Key:  fmt.Sprintf("%s|%s|%s", name, ftag(rate), m),
					Seed: s.Seed + int64(j*17),
					Tags: map[string]string{
						"dataset": name, "dsidx": strconv.Itoa(d),
						"rate": ftag(rate), "method": m.String(),
						"curve": strconv.FormatBool(track),
					},
				})
				cells = append(cells, s.mitigatedCell(name, d, rate, true, m, mitigation.Options{
					Epochs: s.Spec.Epochs, TrackCurve: track, CurveEvalSize: s.Spec.Eval,
				}))
			}
		}
	}
	return trials, cells
}

// mitigatedCell retrains dataset ds (the dsIdx-th) with m and cfg against
// the fault map every method shares at (ds, rate), on the retraining
// recipe every figure trial shares and a generator seeded from the
// trial. A study cell (Fig. 6/7/8) records the pruned fraction, the
// Vths and any Fig. 8 curve beside the accuracy; a Fig. 2 cell records
// the accuracy alone.
func (s *Suite) mitigatedCell(ds string, dsIdx int, rate float64, study bool, m mitigation.Method, cfg mitigation.Options) laneCell {
	cfg.BatchSize, cfg.LR, cfg.ClipNorm = 16, 0.01, 5
	cfg.Replicas, cfg.MicroBatch = s.Spec.Training.Replicas, s.Spec.Training.MicroBatch
	return laneCell{ds: ds, measure: func(cl *core.CellLane, t campaign.Trial) (campaign.Result, error) {
		fm, err := s.mitigationFaultMap(dsIdx, rate)
		if err != nil {
			return campaign.Result{}, err
		}
		cfg := cfg
		cfg.Rng = rand.New(rand.NewSource(t.Seed))
		rep, err := cl.Mitigate(fm, m, cfg)
		if err != nil {
			return campaign.Result{}, err
		}
		s.logf("%s %s: acc %.3f (pruned %.1f%%)\n", m, t.Key, rep.Accuracy, rep.PrunedFraction*100)
		res := campaign.Result{Metrics: map[string]float64{"acc": rep.Accuracy}}
		if !study {
			return res, nil
		}
		res.Metrics["pruned"] = rep.PrunedFraction
		res.Series = map[string][]float64{"vth": rep.Vths}
		if len(rep.Curve) > 0 {
			var es, ls, as []float64
			for _, p := range rep.Curve {
				es = append(es, float64(p.Epoch))
				ls = append(ls, p.Loss)
				as = append(as, p.Accuracy)
			}
			res.Series["curveEpoch"], res.Series["curveLoss"], res.Series["curveAcc"] = es, ls, as
		}
		return res, nil
	}}
}

// mitigationFigures assembles Fig. 6/7/8 from merged study results, in
// paper order: Fig. 6 per dataset, Fig. 7, Fig. 8 per dataset. It needs
// the trained baselines (layer names, baseline accuracies) — in a
// merge-only process set Suite.CacheDir (the -cache flag) to avoid
// retraining.
func (s *Suite) mitigationFigures(results []campaign.Result) ([]*Figure, error) {
	bls, err := s.AllDatasets()
	if err != nil {
		return nil, err
	}
	byKey := campaign.GroupByKey(results)
	find := func(name string, rate float64, m mitigation.Method) *campaign.Result {
		rs := byKey[fmt.Sprintf("%s|%s|%s", name, ftag(rate), m)]
		if len(rs) == 0 {
			return nil
		}
		return &rs[0]
	}
	var fig6, fig8 []*Figure

	// Fig. 7: accuracy per method per rate, one series per (dataset, method).
	fig7 := &Figure{
		ID: "Fig7", Title: "Mitigation comparison: FaP vs FaPIT vs FalVolt",
		XLabel: "faultRate", YLabel: "accuracy",
		Notes: []string{fmt.Sprintf("%d retrain epochs, MSB sa1 fault maps shared across methods", s.Spec.Epochs)},
	}
	xs := append([]float64(nil), MitigationRates...)
	for _, bl := range bls {
		for _, m := range mitigationMethods {
			ys := make([]float64, len(MitigationRates))
			for i, rate := range MitigationRates {
				r := find(bl.Name, rate, m)
				if r == nil {
					return nil, fmt.Errorf("experiments: mitigation results missing %s|%s|%s (incomplete merge?)",
						bl.Name, ftag(rate), m)
				}
				ys[i] = r.Metrics["acc"]
			}
			fig7.Series = append(fig7.Series, Series{
				Label: fmt.Sprintf("%s-%s", bl.Name, m), X: xs, Y: ys,
			})
		}
	}

	// Fig. 6: FalVolt's optimized per-layer thresholds, one figure per
	// dataset (hidden layers only, as the paper reports).
	for _, bl := range bls {
		names := bl.Model.SpikingNames
		fig := &Figure{
			ID:     "Fig6-" + bl.Name,
			Title:  fmt.Sprintf("Optimized threshold voltages per layer (%s)", bl.Name),
			XLabel: "layer", YLabel: "Vth",
			XTicks: names[1:], // hidden layers; encoder excluded per paper
		}
		xsl := make([]float64, len(names)-1)
		for i := range xsl {
			xsl[i] = float64(i)
		}
		for _, rate := range MitigationRates {
			r := find(bl.Name, rate, mitigation.FalVolt)
			if r == nil || len(r.Series["vth"]) != len(names) {
				continue
			}
			fig.Series = append(fig.Series, Series{
				Label: fmt.Sprintf("%.0f%%", rate*100), X: xsl, Y: r.Series["vth"][1:],
			})
		}
		fig6 = append(fig6, fig)
	}

	// Fig. 8: convergence curves at 30% faults, one figure per dataset.
	for _, bl := range bls {
		fig := &Figure{
			ID:     "Fig8-" + bl.Name,
			Title:  fmt.Sprintf("Retraining convergence at 30%% faulty PEs (%s)", bl.Name),
			XLabel: "epoch", YLabel: "accuracy",
			Notes: []string{fmt.Sprintf("baseline accuracy %.3f", bl.Acc)},
		}
		for _, m := range []mitigation.Method{mitigation.FaPIT, mitigation.FalVolt} {
			r := find(bl.Name, 0.30, m)
			if r == nil {
				continue
			}
			fig.Series = append(fig.Series, Series{
				Label: m.String(),
				X:     append([]float64(nil), r.Series["curveEpoch"]...),
				Y:     append([]float64(nil), r.Series["curveAcc"]...),
			})
		}
		fig8 = append(fig8, fig)
	}
	return append(append(fig6, fig7), fig8...), nil
}
