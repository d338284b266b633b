package experiments

import (
	"fmt"
	"math/rand"
	"strconv"

	"falvolt/internal/campaign"
	"falvolt/internal/mitigation"
)

// Campaign adapters: every figure sweep decomposes into a deterministic
// list of seed-addressed campaign.Trials, so any figure can run sharded
// across processes (cmd/experiments -shard, cmd/campaign run) and the
// merged results are bit-identical to a single-process run. Trial keys
// are "series|x" addresses; repeats share a key and are averaged in
// trial-ID order by the figure assemblers.
//
// Trial enumeration is pure — it never trains a baseline — so `plan` and
// shard agreement are free; workers train (or load cached) baselines
// lazily on first use.

// CampaignNames lists the campaign-backed sweeps, in figure order.
// "mitigation" is the shared Fig. 6/7/8 study.
func CampaignNames() []string {
	return []string{"fig2", "fig5a", "fig5b", "fig5c", "mitigation"}
}

// Campaign returns the named sweep as a campaign.
func (s *Suite) Campaign(name string) (campaign.Campaign, error) {
	meta := s.campaignMeta()
	switch name {
	case "fig2":
		return campaign.NewWithMeta(name, meta, s.fig2Trials(), func(lane int) (campaign.Worker, error) {
			return campaign.WorkerFunc(s.runFig2Trial), nil
		}), nil
	case "fig5a", "fig5b", "fig5c":
		return s.fig5Campaign(name), nil
	case "mitigation":
		return campaign.NewWithMeta(name, meta, s.mitigationTrials(), func(lane int) (campaign.Worker, error) {
			return campaign.WorkerFunc(s.runMitigationTrial), nil
		}), nil
	}
	return nil, fmt.Errorf("experiments: unknown campaign %q (want one of %v)", name, CampaignNames())
}

// campaignMeta fingerprints the options that determine trial semantics;
// checkpoints refuse to resume or merge across differing fingerprints.
func (s *Suite) campaignMeta() map[string]string {
	return map[string]string{
		"quick":   strconv.FormatBool(s.Opt.Quick),
		"seed":    strconv.FormatInt(s.Opt.Seed, 10),
		"array":   fmt.Sprintf("%dx%d", s.Opt.ArrayRows, s.Opt.ArrayCols),
		"repeats": strconv.Itoa(s.Opt.Repeats),
		"epochs":  strconv.Itoa(s.Opt.RetrainEpochs),
		"eval":    strconv.Itoa(s.Opt.EvalSamples),
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
	}
	return nil, fmt.Errorf("experiments: unknown campaign %q", name)
}

func wrapFigure(f *Figure, err error) ([]*Figure, error) {
	if err != nil {
		return nil, err
	}
	return []*Figure{f}, nil
}

// datasetNames returns the suite's dataset names in plan order without
// training anything.
func (s *Suite) datasetNames() []string {
	var names []string
	for _, p := range s.plans() {
		names = append(names, p.name)
	}
	return names
}

func atoiTag(t campaign.Trial, key string) (int, error) {
	v, err := strconv.Atoi(t.Tags[key])
	if err != nil {
		return 0, fmt.Errorf("experiments: trial %d has bad %s tag %q", t.ID, key, t.Tags[key])
	}
	return v, nil
}

func atofTag(t campaign.Trial, key string) (float64, error) {
	v, err := strconv.ParseFloat(t.Tags[key], 64)
	if err != nil {
		return 0, fmt.Errorf("experiments: trial %d has bad %s tag %q", t.ID, key, t.Tags[key])
	}
	return v, nil
}

// ftag round-trips a float through its shortest decimal form (ParseFloat
// recovers the identical bits, keeping seed arithmetic like
// int64(rate*1000) exact across processes).
func ftag(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// --- mitigation campaigns (Fig. 2 and the shared Fig. 6/7/8 study) ---

// fig2Datasets are the datasets of the motivational sweep.
var fig2Datasets = []string{"MNIST", "DVSGesture"}

// fig2Rates are its faulty-PE fractions.
var fig2Rates = []float64{0.30, 0.60}

// fig2Epochs is the reduced retraining budget of the sweep.
func (s *Suite) fig2Epochs() int {
	epochs := s.Opt.RetrainEpochs / 2
	if epochs < 2 {
		epochs = 2
	}
	return epochs
}

func (s *Suite) fig2Trials() []campaign.Trial {
	var trials []campaign.Trial
	for d, name := range fig2Datasets {
		for _, rate := range fig2Rates {
			for _, vth := range Fig2Vths {
				j := len(trials)
				trials = append(trials, campaign.Trial{
					ID:   j,
					Key:  fmt.Sprintf("%s@%.0f%%|%.2f", name, rate*100, vth),
					Seed: s.Opt.Seed + int64(j),
					Tags: map[string]string{
						"dataset": name, "dsidx": strconv.Itoa(d),
						"rate": ftag(rate), "vth": ftag(vth),
					},
				})
			}
		}
	}
	return trials
}

func (s *Suite) runFig2Trial(t campaign.Trial) (campaign.Result, error) {
	bl, err := s.Dataset(t.Tags["dataset"])
	if err != nil {
		return campaign.Result{}, err
	}
	dsIdx, err := atoiTag(t, "dsidx")
	if err != nil {
		return campaign.Result{}, err
	}
	rate, err := atofTag(t, "rate")
	if err != nil {
		return campaign.Result{}, err
	}
	vth, err := atofTag(t, "vth")
	if err != nil {
		return campaign.Result{}, err
	}
	fm, err := s.mitigationFaultMap(dsIdx, rate)
	if err != nil {
		return campaign.Result{}, err
	}
	rep, err := s.mitigateJob(bl, fm, mitigation.Config{
		Method: mitigation.FaPIT, Epochs: s.fig2Epochs(), FixedVth: vth,
		Rng: rand.New(rand.NewSource(t.Seed)),
	})
	if err != nil {
		return campaign.Result{}, err
	}
	s.logf("fig2 %s rate %.0f%% vth %.2f: %.3f\n", bl.Name, rate*100, vth, rep.Accuracy)
	return campaign.Result{TrialID: t.ID, Key: t.Key, Metrics: map[string]float64{"acc": rep.Accuracy}}, nil
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

func (s *Suite) mitigationTrials() []campaign.Trial {
	var trials []campaign.Trial
	for d, name := range s.datasetNames() {
		for _, rate := range MitigationRates {
			for _, m := range mitigationMethods {
				j := len(trials)
				track := rate == 0.30 && m != mitigation.FaP
				trials = append(trials, campaign.Trial{
					ID:   j,
					Key:  fmt.Sprintf("%s|%s|%s", name, ftag(rate), m),
					Seed: s.Opt.Seed + int64(j*17),
					Tags: map[string]string{
						"dataset": name, "dsidx": strconv.Itoa(d),
						"rate": ftag(rate), "method": m.String(),
						"curve": strconv.FormatBool(track),
					},
				})
			}
		}
	}
	return trials
}

func (s *Suite) runMitigationTrial(t campaign.Trial) (campaign.Result, error) {
	bl, err := s.Dataset(t.Tags["dataset"])
	if err != nil {
		return campaign.Result{}, err
	}
	dsIdx, err := atoiTag(t, "dsidx")
	if err != nil {
		return campaign.Result{}, err
	}
	rate, err := atofTag(t, "rate")
	if err != nil {
		return campaign.Result{}, err
	}
	method, err := mitigation.ParseMethod(t.Tags["method"])
	if err != nil {
		return campaign.Result{}, err
	}
	fm, err := s.mitigationFaultMap(dsIdx, rate)
	if err != nil {
		return campaign.Result{}, err
	}
	rep, err := s.mitigateJob(bl, fm, mitigation.Config{
		Method: method, Epochs: s.Opt.RetrainEpochs,
		Rng: rand.New(rand.NewSource(t.Seed)),
		// Curves for Fig. 8 at the paper's 30% operating point.
		TrackCurve:    t.Tags["curve"] == "true",
		CurveEvalSize: s.Opt.EvalSamples,
	})
	if err != nil {
		return campaign.Result{}, err
	}
	s.logf("fig7 %s %s rate %.0f%%: acc %.3f (pruned %.1f%%)\n",
		bl.Name, method, rate*100, rep.Accuracy, rep.PrunedFraction*100)
	res := campaign.Result{
		TrialID: t.ID, Key: t.Key,
		Metrics: map[string]float64{"acc": rep.Accuracy, "pruned": rep.PrunedFraction},
		Series:  map[string][]float64{"vth": rep.Vths},
	}
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
}

// mitigationFigures assembles Fig. 6/7/8 from merged study results, in
// paper order: Fig. 6 per dataset, Fig. 7, Fig. 8 per dataset. It needs
// the trained baselines (layer names, baseline accuracies) — in a
// merge-only process use Options.CacheDir to avoid retraining.
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
		Notes: []string{fmt.Sprintf("%d retrain epochs, MSB sa1 fault maps shared across methods", s.Opt.RetrainEpochs)},
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

// --- in-memory campaigns for small sweeps (ablations) ---

// runLocal executes n single-value trials through the campaign engine
// on the process-default runner and returns the values in trial order —
// the replacement for the ad-hoc parallel loops the ablations used.
func runLocal(name string, n int, run func(i int) (float64, error)) ([]float64, error) {
	trials := make([]campaign.Trial, n)
	for i := range trials {
		trials[i] = campaign.Trial{ID: i, Key: fmt.Sprintf("%s/%d", name, i)}
	}
	c := campaign.New(name, trials, func(lane int) (campaign.Worker, error) {
		return campaign.WorkerFunc(func(t campaign.Trial) (campaign.Result, error) {
			v, err := run(t.ID)
			if err != nil {
				return campaign.Result{}, err
			}
			return campaign.Result{TrialID: t.ID, Key: t.Key, Metrics: map[string]float64{"value": v}}, nil
		}), nil
	})
	rr, err := campaign.Run(c, campaign.Options{})
	if err != nil {
		return nil, err
	}
	out := make([]float64, n)
	for _, r := range rr.Results {
		out[r.TrialID] = r.Metrics["value"]
	}
	return out, nil
}
