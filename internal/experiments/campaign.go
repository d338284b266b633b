package experiments

import (
	"fmt"
	"math/rand"
	"strconv"

	"falvolt/internal/campaign"
	"falvolt/internal/faults"
	"falvolt/internal/fixed"
	"falvolt/internal/mitigation"
	"falvolt/internal/snn"
	"falvolt/internal/systolic"
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
	case "fig5a":
		return campaign.NewWithMeta(name, meta, s.fig5aTrials(), s.vulnWorkerFactory(s.runFig5aTrial)), nil
	case "fig5b":
		return campaign.NewWithMeta(name, meta, s.fig5bTrials(), s.vulnWorkerFactory(s.runFig5bTrial)), nil
	case "fig5c":
		return campaign.NewWithMeta(name, meta, s.fig5cTrials(), s.vulnWorkerFactory(s.runFig5cTrial)), nil
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

// RunCampaign executes the named campaign (or a shard of it) and
// returns its results; the campaign.Options select shard, checkpoint
// and runner.
func (s *Suite) RunCampaign(name string, opt campaign.Options) (*campaign.RunResult, error) {
	c, err := s.Campaign(name)
	if err != nil {
		return nil, err
	}
	if opt.Log == nil {
		opt.Log = s.Opt.Log
	}
	return campaign.Run(c, opt)
}

// campaignFigures runs the named campaign to completion in-process and
// assembles its figures — the path behind the Fig* convenience methods.
func (s *Suite) campaignFigures(name string) ([]*Figure, error) {
	rr, err := s.RunCampaign(name, campaign.Options{})
	if err != nil {
		return nil, err
	}
	return s.Figures(name, rr.Results)
}

// Figures assembles the named campaign's figures from merged results
// (complete coverage required). For "mitigation" the order is the
// paper's: Fig. 6 per dataset, Fig. 7, Fig. 8 per dataset.
func (s *Suite) Figures(name string, results []campaign.Result) ([]*Figure, error) {
	switch name {
	case "fig2":
		f, err := s.fig2Figure(results)
		return wrapFigure(f, err)
	case "fig5a":
		f, err := s.fig5aFigure(results)
		return wrapFigure(f, err)
	case "fig5b":
		f, err := s.fig5bFigure(results)
		return wrapFigure(f, err)
	case "fig5c":
		f, err := s.fig5cFigure(results)
		return wrapFigure(f, err)
	case "mitigation":
		r, err := s.mitigationFigures(results)
		if err != nil {
			return nil, err
		}
		var out []*Figure
		out = append(out, r.fig6...)
		out = append(out, r.fig7)
		out = append(out, r.fig8...)
		return out, nil
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

func parsePolarity(s string) (faults.Polarity, error) {
	switch s {
	case "sa0":
		return faults.StuckAt0, nil
	case "sa1":
		return faults.StuckAt1, nil
	}
	return 0, fmt.Errorf("experiments: bad polarity tag %q", s)
}

func parseMethod(s string) (mitigation.Method, error) {
	switch s {
	case mitigation.FaP.String():
		return mitigation.FaP, nil
	case mitigation.FaPIT.String():
		return mitigation.FaPIT, nil
	case mitigation.FalVolt.String():
		return mitigation.FalVolt, nil
	}
	return 0, fmt.Errorf("experiments: bad method tag %q", s)
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

// --- vulnerability campaigns (Fig. 5a/5b/5c) ---

// fig5aFaultyPEs is the fixed faulty-PE count of the Fig. 5a sweep.
const fig5aFaultyPEs = 16

// fig5cFaultyPEs is the fixed faulty-PE count of the Fig. 5c sweep.
const fig5cFaultyPEs = 4

// vulnJob is one (dataset, polarity) series of Fig. 5a, or one dataset
// series of Fig. 5b/5c.
type vulnJob struct {
	ds  string
	pol faults.Polarity
}

func (s *Suite) fig5aJobs() []vulnJob {
	var jobs []vulnJob
	for _, name := range s.datasetNames() {
		for _, pol := range []faults.Polarity{faults.StuckAt0, faults.StuckAt1} {
			jobs = append(jobs, vulnJob{ds: name, pol: pol})
		}
	}
	return jobs
}

func (s *Suite) fig5aTrials() []campaign.Trial {
	var trials []campaign.Trial
	for j, jb := range s.fig5aJobs() {
		for i, bit := range Fig5aBits {
			for rep := 0; rep < s.Opt.Repeats; rep++ {
				trials = append(trials, campaign.Trial{
					ID:   len(trials),
					Key:  fmt.Sprintf("%s-%s|%d", jb.pol, jb.ds, bit),
					Seed: s.Opt.Seed + int64(j*1000+i*10+rep),
					Tags: map[string]string{
						"dataset": jb.ds, "pol": jb.pol.String(),
						"bit": strconv.Itoa(int(bit)), "rep": strconv.Itoa(rep),
					},
				})
			}
		}
	}
	return trials
}

func (s *Suite) fig5bTrials() []campaign.Trial {
	var trials []campaign.Trial
	for j, name := range s.datasetNames() {
		for i, count := range Fig5bCounts {
			for rep := 0; rep < s.Opt.Repeats; rep++ {
				trials = append(trials, campaign.Trial{
					ID:   len(trials),
					Key:  fmt.Sprintf("%s|%d", name, count),
					Seed: s.Opt.Seed + int64(j*1000+i*10+rep),
					Tags: map[string]string{
						"dataset": name, "count": strconv.Itoa(count), "rep": strconv.Itoa(rep),
					},
				})
			}
		}
	}
	return trials
}

func (s *Suite) fig5cTrials() []campaign.Trial {
	var trials []campaign.Trial
	for j, name := range s.datasetNames() {
		for i, side := range Fig5cSides {
			for rep := 0; rep < s.Opt.Repeats; rep++ {
				trials = append(trials, campaign.Trial{
					ID:   len(trials),
					Key:  fmt.Sprintf("%s|%d", name, side),
					Seed: s.Opt.Seed + int64(j*1000+i*10+rep),
					Tags: map[string]string{
						"dataset": name, "side": strconv.Itoa(side), "rep": strconv.Itoa(rep),
					},
				})
			}
		}
	}
	return trials
}

// vulnWorker is one lane's private state for the vulnerability
// campaigns: per-dataset model replicas plus per-side arrays (Fig. 5c).
// Results are bit-identical whichever lane evaluates a trial, because
// every replica restores the same baseline snapshot.
type vulnWorker struct {
	s     *Suite
	evals map[string]*evalWorker
	tests map[string][]snn.Sample
	arrs  map[int]*systolic.Array
}

func (s *Suite) vulnWorkerFactory(run func(*vulnWorker, campaign.Trial) (campaign.Result, error)) func(int) (campaign.Worker, error) {
	return func(lane int) (campaign.Worker, error) {
		w := &vulnWorker{
			s:     s,
			evals: make(map[string]*evalWorker),
			tests: make(map[string][]snn.Sample),
			arrs:  make(map[int]*systolic.Array),
		}
		return campaign.WorkerFunc(func(t campaign.Trial) (campaign.Result, error) {
			return run(w, t)
		}), nil
	}
}

// eval returns the lane-private worker for a dataset, training the
// shared baseline on first use (suite-wide, mutex-guarded).
func (w *vulnWorker) eval(ds string) (*evalWorker, []snn.Sample, error) {
	if ew, ok := w.evals[ds]; ok {
		return ew, w.tests[ds], nil
	}
	bl, err := w.s.Dataset(ds)
	if err != nil {
		return nil, nil, err
	}
	m, err := bl.BuildModel()
	if err != nil {
		return nil, nil, err
	}
	if err := m.Net.LoadState(bl.State); err != nil {
		return nil, nil, err
	}
	ew := &evalWorker{model: m, arr: w.s.NewArray()}
	w.evals[ds] = ew
	w.tests[ds] = bl.TestSlice(w.s.Opt.EvalSamples)
	return ew, w.tests[ds], nil
}

// arrFor returns the lane-private side x side array (Fig. 5c).
func (w *vulnWorker) arrFor(side int) *systolic.Array {
	if a, ok := w.arrs[side]; ok {
		return a
	}
	a := systolic.MustNew(systolic.Config{
		Rows: side, Cols: side, Format: fixed.Q16x16, Saturate: true,
	})
	w.arrs[side] = a
	return a
}

func (s *Suite) runFig5aTrial(w *vulnWorker, t campaign.Trial) (campaign.Result, error) {
	ew, test, err := w.eval(t.Tags["dataset"])
	if err != nil {
		return campaign.Result{}, err
	}
	bit, err := atoiTag(t, "bit")
	if err != nil {
		return campaign.Result{}, err
	}
	pol, err := parsePolarity(t.Tags["pol"])
	if err != nil {
		return campaign.Result{}, err
	}
	fm, err := faults.Generate(s.Opt.ArrayRows, s.Opt.ArrayCols, faults.GenSpec{
		NumFaulty: fig5aFaultyPEs, BitMode: faults.FixedBit, Bit: uint(bit),
		Pol: pol, PolMode: faults.FixedPol,
	}, rand.New(rand.NewSource(t.Seed)))
	if err != nil {
		return campaign.Result{}, err
	}
	acc, err := faultyAccuracy(ew, fm, test)
	if err != nil {
		return campaign.Result{}, err
	}
	s.logf("fig5a %s %s bit %d rep %s: %.3f\n", t.Tags["dataset"], pol, bit, t.Tags["rep"], acc)
	return campaign.Result{TrialID: t.ID, Key: t.Key, Metrics: map[string]float64{"acc": acc}}, nil
}

func (s *Suite) runFig5bTrial(w *vulnWorker, t campaign.Trial) (campaign.Result, error) {
	ew, test, err := w.eval(t.Tags["dataset"])
	if err != nil {
		return campaign.Result{}, err
	}
	count, err := atoiTag(t, "count")
	if err != nil {
		return campaign.Result{}, err
	}
	fm, err := faults.Generate(s.Opt.ArrayRows, s.Opt.ArrayCols, faults.GenSpec{
		NumFaulty: count, BitMode: faults.MSBBits,
		Pol: faults.StuckAt1, PolMode: faults.FixedPol,
	}, rand.New(rand.NewSource(t.Seed)))
	if err != nil {
		return campaign.Result{}, err
	}
	acc, err := faultyAccuracy(ew, fm, test)
	if err != nil {
		return campaign.Result{}, err
	}
	s.logf("fig5b %s n=%d rep %s: %.3f\n", t.Tags["dataset"], count, t.Tags["rep"], acc)
	return campaign.Result{TrialID: t.ID, Key: t.Key, Metrics: map[string]float64{"acc": acc}}, nil
}

func (s *Suite) runFig5cTrial(w *vulnWorker, t campaign.Trial) (campaign.Result, error) {
	ew, test, err := w.eval(t.Tags["dataset"])
	if err != nil {
		return campaign.Result{}, err
	}
	side, err := atoiTag(t, "side")
	if err != nil {
		return campaign.Result{}, err
	}
	fm, err := faults.Generate(side, side, faults.GenSpec{
		NumFaulty: fig5cFaultyPEs, BitMode: faults.MSBBits,
		Pol: faults.StuckAt1, PolMode: faults.FixedPol,
	}, rand.New(rand.NewSource(t.Seed)))
	if err != nil {
		return campaign.Result{}, err
	}
	sideWorker := &evalWorker{model: ew.model, arr: w.arrFor(side)}
	acc, err := faultyAccuracy(sideWorker, fm, test)
	if err != nil {
		return campaign.Result{}, err
	}
	s.logf("fig5c %s %dx%d rep %s: %.3f\n", t.Tags["dataset"], side, side, t.Tags["rep"], acc)
	return campaign.Result{TrialID: t.ID, Key: t.Key, Metrics: map[string]float64{"acc": acc}}, nil
}

func (s *Suite) fig5aFigure(results []campaign.Result) (*Figure, error) {
	accs := campaign.GroupMean(results, "acc")
	fig := &Figure{
		ID: "Fig5a", Title: "Accuracy vs fault bit location",
		XLabel: "bit", YLabel: "accuracy",
		Notes: []string{
			fmt.Sprintf("%d faulty PEs on a %dx%d array, averaged over %d fault maps",
				fig5aFaultyPEs, s.Opt.ArrayRows, s.Opt.ArrayCols, s.Opt.Repeats),
		},
	}
	xs := make([]float64, len(Fig5aBits))
	for i, b := range Fig5aBits {
		xs[i] = float64(b)
	}
	for _, jb := range s.fig5aJobs() {
		ys := make([]float64, len(Fig5aBits))
		for i, bit := range Fig5aBits {
			key := fmt.Sprintf("%s-%s|%d", jb.pol, jb.ds, bit)
			acc, ok := accs[key]
			if !ok {
				return nil, fmt.Errorf("experiments: fig5a results missing %q (incomplete merge?)", key)
			}
			ys[i] = acc
		}
		fig.Series = append(fig.Series, Series{
			Label: fmt.Sprintf("%s-%s", jb.pol, jb.ds), X: xs, Y: ys,
		})
	}
	return fig, nil
}

func (s *Suite) fig5bFigure(results []campaign.Result) (*Figure, error) {
	accs := campaign.GroupMean(results, "acc")
	fig := &Figure{
		ID: "Fig5b", Title: "Accuracy vs number of faulty PEs",
		XLabel: "faultyPEs", YLabel: "accuracy",
		Notes: []string{
			fmt.Sprintf("MSB (bits 24-31) stuck-at-1 faults on a %dx%d array, %d maps/point",
				s.Opt.ArrayRows, s.Opt.ArrayCols, s.Opt.Repeats),
		},
	}
	xs := make([]float64, len(Fig5bCounts))
	for i, c := range Fig5bCounts {
		xs[i] = float64(c)
	}
	for _, name := range s.datasetNames() {
		ys := make([]float64, len(Fig5bCounts))
		for i, count := range Fig5bCounts {
			key := fmt.Sprintf("%s|%d", name, count)
			acc, ok := accs[key]
			if !ok {
				return nil, fmt.Errorf("experiments: fig5b results missing %q (incomplete merge?)", key)
			}
			ys[i] = acc
		}
		fig.Series = append(fig.Series, Series{Label: name, X: xs, Y: ys})
	}
	return fig, nil
}

func (s *Suite) fig5cFigure(results []campaign.Result) (*Figure, error) {
	accs := campaign.GroupMean(results, "acc")
	fig := &Figure{
		ID: "Fig5c", Title: "Accuracy vs size of systolic array",
		XLabel: "totalPEs", YLabel: "accuracy",
		Notes: []string{
			fmt.Sprintf("%d faulty PEs (MSB stuck-at-1), %d maps/point", fig5cFaultyPEs, s.Opt.Repeats),
		},
	}
	xs := make([]float64, len(Fig5cSides))
	for i, side := range Fig5cSides {
		xs[i] = float64(side * side)
	}
	for _, name := range s.datasetNames() {
		ys := make([]float64, len(Fig5cSides))
		for i, side := range Fig5cSides {
			key := fmt.Sprintf("%s|%d", name, side)
			acc, ok := accs[key]
			if !ok {
				return nil, fmt.Errorf("experiments: fig5c results missing %q (incomplete merge?)", key)
			}
			ys[i] = acc
		}
		fig.Series = append(fig.Series, Series{Label: name, X: xs, Y: ys})
	}
	return fig, nil
}

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
	method, err := parseMethod(t.Tags["method"])
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

// mitigationFigures assembles Fig. 6/7/8 from merged study results. It
// needs the trained baselines (layer names, baseline accuracies) — in a
// merge-only process use Options.CacheDir to avoid retraining.
func (s *Suite) mitigationFigures(results []campaign.Result) (*mitigationResults, error) {
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
	res := &mitigationResults{}

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
	res.fig7 = fig7

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
		res.fig6 = append(res.fig6, fig)
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
		res.fig8 = append(res.fig8, fig)
	}
	return res, nil
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
