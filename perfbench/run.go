package main

import (
	"fmt"
	"io"
	"math"
	"runtime"
	"time"

	"falvolt/internal/campaign"
	"falvolt/internal/core"
	"falvolt/internal/tensor"
)

// run performs one benchmark run: set-up (several times), the untraced
// timed campaign, the correctness gate and, with tracing, the traced
// replay. The untraced phase takes the whole measured time without
// tracing and half of it with tracing; the traced replay takes the rest.
func run(cfg runConfig) (report, environment, error) {
	w := cfg.w
	env := environment{
		Workload: w.Name, Why: w.Why, Seed: cfg.seed, Engine: engine, Trace: cfg.trace,
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), CPU: cpuModel(), Go: runtime.Version(),
	}
	if err := tensor.SetDefaultByName(engine); err != nil {
		return report{}, env, err
	}
	logf := func(format string, args ...any) {
		if cfg.log != nil {
			fmt.Fprintf(cfg.log, format, args...)
		}
	}

	var setups []setup
	for i := 0; i < setupReps; i++ {
		s, err := setUp(w, cfg.sz)
		if err != nil {
			return report{}, env, fmt.Errorf("set-up: %w", err)
		}
		logf("set-up %d: %.2fs, baseline accuracy %.4f\n", i+1, s.total.Seconds(), s.baseAcc)
		if i < setupReps-1 {
			s.deps = core.YieldDeps{} // only the last build is used; free the others
		}
		setups = append(setups, s)
	}
	deps := setups[len(setups)-1].deps
	var problems []string
	for _, s := range setups[1:] {
		if s.baseAcc != setups[0].baseAcc {
			problems = append(problems, fmt.Sprintf("set-up is not deterministic: baseline accuracy %v vs %v", s.baseAcc, setups[0].baseAcc))
			break
		}
	}

	budget := time.Duration(cfg.seconds * float64(time.Second))
	if cfg.trace {
		budget /= 2
	}
	timed, err := runTimed(w, cfg.sz, deps, cfg.seed, budget, cfg.tmpRoot)
	if err != nil {
		return report{}, env, fmt.Errorf("timed campaign: %w", err)
	}
	env.Trials = len(timed.results)
	logf("timed phase: %d trials in %.2fs\n", len(timed.results), timed.wall.Seconds())
	logTrials(cfg.log, timed.results)
	extra, err := runScored(w, cfg.sz, deps, cfg.seed, timed.results)
	if err != nil {
		return report{}, env, err
	}
	env.ExtraTrials = len(extra)
	if len(extra) > 0 {
		logf("untimed scored trials: %d\n", len(extra))
		logTrials(cfg.log, extra)
	}

	g := gate(w, cfg.pinned, setups[0].baseAcc, timed.results, extra)
	problems = append(problems, g.problems...)
	rep := report{Attempted: g.attempted, Failed: g.attempted - g.passed}

	if !cfg.trace {
		walls := make([]float64, len(timed.results))
		for i, r := range timed.results {
			walls[i] = r.Wall * 1000
		}
		totals := make([]float64, len(setups))
		for i, s := range setups {
			totals[i] = s.total.Seconds()
		}
		rep.Metrics = map[string]metric{
			"setup_s":                  {median(totals), "s"},
			"trials_per_s":             {float64(g.timedPassed) / timed.wall.Seconds(), "1/s"},
			"trial_ms.p50":             {median(walls), "ms"},
			"passed_frac":              {g.passedFrac(), "ratio"},
			"baseline_acc":             {setups[0].baseAcc, "ratio"},
			"raw_accuracy":             {g.raw, "ratio"},
			"accuracy":                 {g.acc, "ratio"},
			"sim_cycles_per_inference": {g.mac, "cycles"},
		}
	} else {
		m, replayed, mismatches, err := traced(cfg, setups, timed)
		if err != nil {
			return report{}, env, fmt.Errorf("traced replay: %w", err)
		}
		problems = append(problems, mismatches...)
		rep.Attempted += replayed
		rep.Failed += len(mismatches)
		rep.Metrics = m
	}
	for n, m := range rep.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			problems = append(problems, fmt.Sprintf("metric %s is %v", n, m.Value))
			rep.Metrics[n] = metric{0, m.Unit}
		}
	}
	for _, p := range problems {
		logf("FAIL: %s\n", p)
	}
	rep.Correct = len(problems) == 0 && rep.Attempted > 0
	return rep, env, nil
}

// gateResult is the correctness gate's verdict.
type gateResult struct {
	passed, attempted int
	timedPassed       int     // passed trials of the timed phase
	raw, acc, mac     float64 // means over the scored trials
	problems          []string
}

func (g gateResult) passedFrac() float64 {
	if g.attempted == 0 {
		return 0
	}
	return float64(g.passed) / float64(g.attempted)
}

// gate checks every trial, timed and extra (plausible metrics, and the
// pinned digest when given), averages the scored trials, IDs below
// scoredTrials, and checks those means against the workload's floors.
func gate(w workload, pinned []string, baseAcc float64, timed, extra []campaign.Result) gateResult {
	g := gateResult{attempted: len(timed) + len(extra)}
	if len(timed) == 0 {
		g.problems = append(g.problems, "no trial completed in the timed phase")
	}
	scored := 0
	for i, r := range append(timed[:len(timed):len(timed)], extra...) {
		m := r.Metrics
		ok := m["raw"] >= 0 && m["raw"] <= 1 && m["acc"] >= 0 && m["acc"] <= 1 && m["mac"] > 0
		if !ok {
			g.problems = append(g.problems, fmt.Sprintf("trial %d: implausible metrics %v", r.TrialID, m))
		} else if pinned != nil {
			if err := verifyDigest(r, pinned); err != nil {
				g.problems = append(g.problems, err.Error())
				ok = false
			}
		}
		if ok {
			g.passed++
			if i < len(timed) {
				g.timedPassed++
			}
		}
		if r.TrialID < scoredTrials {
			scored++
			g.raw += m["raw"]
			g.acc += m["acc"]
			g.mac += m["mac"]
		}
	}
	if scored == 0 {
		g.problems = append(g.problems, "no scored trial")
		return g
	}
	n := float64(scored)
	g.raw, g.acc, g.mac = g.raw/n, g.acc/n, g.mac/n
	if baseAcc < w.MinBaseline {
		g.problems = append(g.problems, fmt.Sprintf("baseline accuracy %.4f below floor %.2f", baseAcc, w.MinBaseline))
	}
	if w.MinRecovered > 0 && g.acc-g.raw < w.MinRecovered {
		g.problems = append(g.problems, fmt.Sprintf("mean recovery %.4f below floor %.2f", g.acc-g.raw, w.MinRecovered))
	}
	if w.MinRaw > 0 && g.raw < w.MinRaw {
		g.problems = append(g.problems, fmt.Sprintf("mean raw accuracy %.4f below floor %.2f", g.raw, w.MinRaw))
	}
	return g
}

// traced replays the timed trials with spans and derives the per-layer
// metrics. Every replayed trial must reproduce its untraced result; it
// returns how many were replayed and a problem for each that did not.
func traced(cfg runConfig, setups []setup, timed timedRun) (map[string]metric, int, []string, error) {
	deps := setups[len(setups)-1].deps
	d := cfg.w.salvageSpec(cfg.sz).Defaulted()
	byID := map[int]campaign.Result{}
	for _, r := range timed.results {
		byID[r.TrialID] = r
	}
	var trials []campaign.Trial
	for _, t := range core.SalvageTrials(d, cfg.seed) {
		if _, ok := byID[t.ID]; ok {
			trials = append(trials, t)
		}
	}
	tr := newTracer()
	results, err := tr.replay(d, deps, trials, time.Duration(cfg.seconds*float64(time.Second)/2))
	if err != nil {
		return nil, 0, nil, err
	}
	var problems []string
	for _, r := range results {
		want, err := digest(byID[r.TrialID])
		if err != nil {
			return nil, 0, nil, err
		}
		if got, err := digest(r); err != nil || got != want {
			problems = append(problems, fmt.Sprintf("traced trial %d does not reproduce its untraced result", r.TrialID))
		}
	}
	cleanMS, err := tr.cleanEvalMS(deps, d.Batch, 3)
	if err != nil {
		return nil, 0, nil, err
	}
	if err := tr.profileTraining(deps, deps.Model.Spec.Classes); err != nil {
		return nil, 0, nil, err
	}
	if cfg.spans != "" {
		if err := writeSpans(cfg.spans, tr.spans); err != nil {
			return nil, 0, nil, fmt.Errorf("write spans: %w", err)
		}
		if cfg.log != nil {
			fmt.Fprintf(cfg.log, "spans written to %s\n", cfg.spans)
		}
	}

	gens := make([]float64, len(setups))
	trains := make([]float64, len(setups))
	for i, s := range setups {
		gens[i], trains[i] = s.generate.Seconds(), s.train.Seconds()
	}
	m, tracedWall := layerMetrics(tr.spans, len(results))
	m["datasets.generate_s"] = metric{median(gens), "s"}
	m["core.train_baseline_s"] = metric{median(trains), "s"}
	m["systolic.fault_slowdown"] = metric{m["snn.eval_raw_ms"].Value / cleanMS, "ratio"}
	m["campaign.overhead_ms"] = metric{campaignOverheadMS(1, timed.wall.Seconds(), timed.results), "ms"}
	m["process.peak_rss_mb"] = metric{peakRSSMB(), "MB"}

	untracedS := 0.0
	for _, r := range results {
		untracedS += byID[r.TrialID].Wall
	}
	m["trace.overhead"] = metric{tracedWall.Seconds()/untracedS - 1, "ratio"}
	return m, len(results), problems, nil
}

// layerMetrics folds the spans of the traced trials (per-trial means)
// and of the training profile (per epoch), and returns the traced
// trials' total wall-clock.
func layerMetrics(spans []span, trials int) (map[string]metric, time.Duration) {
	perTrial := map[string]time.Duration{}
	var trialWall, leaf, systolicTime time.Duration
	var accum, tiles, bypassed uint64
	inferences := 0
	hasChild := make([]bool, len(spans))
	for _, s := range spans {
		if s.Parent >= 0 {
			hasChild[s.Parent] = true
		}
	}
	for _, s := range spans {
		if s.Trial < 0 { // training profile and clean evaluations
			perTrial["side:"+s.Name] += s.dur()
			continue
		}
		perTrial[s.Name] += s.dur()
		switch s.Name {
		case "trial":
			trialWall += s.dur()
		case "snn.eval_raw", "snn.eval_final":
			accum += s.Accumulations
			tiles += s.TilePasses
			bypassed += s.BypassedSteps
			inferences += s.Inferences
		case "snn.conv.fwd", "snn.linear.fwd":
			systolicTime += s.dur()
		}
		if !hasChild[s.ID] {
			leaf += s.dur()
		}
	}
	n := float64(max(trials, 1))
	ms := func(d time.Duration) float64 { return float64(d) / 1e6 }
	m := map[string]metric{}
	for _, name := range []string{"core.restore", "faults.inject", "snn.deploy", "snn.eval_raw", "snn.eval_final", "mitigation.apply"} {
		m[name+"_ms"] = metric{ms(perTrial[name]) / n, "ms"}
	}
	for _, k := range []string{"conv", "linear", "bn", "plif", "pool", "other"} {
		m["snn."+k+".fwd_ms"] = metric{ms(perTrial["snn."+k+".fwd"]) / n, "ms"}
		m["snn."+k+".bwd_ms"] = metric{ms(perTrial["side:snn."+k+".bwd"]), "ms"}
	}
	m["snn.train_fwd_ms"] = metric{ms(perTrial["side:snn.train_fwd"]), "ms"}
	m["snn.optim_ms"] = metric{ms(perTrial["side:snn.optim"]), "ms"}
	inf := float64(max(inferences, 1))
	m["systolic.accumulations"] = metric{float64(accum) / inf, "count"}
	m["systolic.tile_passes"] = metric{float64(tiles) / inf, "count"}
	m["systolic.bypassed_steps"] = metric{float64(bypassed) / inf, "count"}
	m["systolic.accum_per_us"] = metric{float64(accum) / (float64(systolicTime) / 1e3), "1/us"}
	m["trace.coverage"] = metric{float64(leaf) / float64(trialWall), "ratio"}
	return m, trialWall
}

// logTrials prints one line per completed trial.
func logTrials(w io.Writer, results []campaign.Result) {
	if w == nil {
		return
	}
	for _, r := range results {
		fmt.Fprintf(w, "trial %d: raw %.4f acc %.4f wall %.3fs\n", r.TrialID, r.Metrics["raw"], r.Metrics["acc"], r.Wall)
	}
}
