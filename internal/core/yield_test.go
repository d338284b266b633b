package core

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"

	"falvolt/internal/campaign"
	"falvolt/internal/faults"
	"falvolt/internal/mitigation"
	"falvolt/internal/snn"
	"falvolt/internal/tensor"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

func TestYieldStudyMechanics(t *testing.T) {
	h := newHarness(t)
	cfg := YieldConfig{
		Chips:     6,
		Defects:   faults.DefectModel{MeanFaulty: 20, Alpha: 1},
		Threshold: 0.5,
		// mitigation.FaP salvage keeps the test fast (no retraining).
		Mitigation:  mitigation.Config{Method: mitigation.FaP},
		EvalSamples: 40,
		Rng:         rand.New(rand.NewSource(42)),
	}
	rep, err := YieldStudy(h.model, h.baseline, h.arr, h.train, h.test, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Chips != 6 {
		t.Errorf("chips = %d", rep.Chips)
	}
	if rep.ShippableMitigated < rep.FaultFree {
		t.Error("fault-free dies always ship")
	}
	if rep.ShippableMitigated > rep.Chips || rep.ShippableNoMitigation > rep.Chips {
		t.Error("shippable counts exceed population")
	}
	if rep.YieldMitigated() < rep.YieldNoMitigation()-1e-9 {
		// With bypass+pruning, salvage should never ship fewer dies than
		// the discard flow on the same population (it strictly removes
		// corruption). Equal is possible.
		t.Errorf("salvage yield %.2f below discard yield %.2f",
			rep.YieldMitigated(), rep.YieldNoMitigation())
	}
	if !strings.Contains(rep.String(), "yield:") {
		t.Errorf("String() = %q", rep.String())
	}
}

func TestYieldStudyClustered(t *testing.T) {
	h := newHarness(t)
	cfg := YieldConfig{
		Chips:       3,
		Defects:     faults.DefectModel{MeanFaulty: 15, Alpha: 0.7},
		Clustered:   true,
		Threshold:   0.5,
		Mitigation:  mitigation.Config{Method: mitigation.FaP},
		EvalSamples: 24,
		Rng:         rand.New(rand.NewSource(43)),
	}
	rep, err := YieldStudy(h.model, h.baseline, h.arr, h.train, h.test, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Chips != 3 {
		t.Errorf("chips = %d", rep.Chips)
	}
}

func TestYieldStudyValidation(t *testing.T) {
	h := newHarness(t)
	if _, err := YieldStudy(h.model, h.baseline, h.arr, h.train, h.test,
		YieldConfig{Chips: 0, Threshold: 0.5}); err == nil {
		t.Error("zero chips should error")
	}
	if _, err := YieldStudy(h.model, h.baseline, h.arr, h.train, h.test,
		YieldConfig{Chips: 1, Threshold: 0}); err == nil {
		t.Error("zero threshold should error")
	}
	if _, err := YieldStudy(h.model, h.baseline, h.arr, h.train, h.test,
		YieldConfig{Chips: 1, Threshold: 1.5}); err == nil {
		t.Error("threshold > 1 should error")
	}
}

// yieldTestConfig is the shared small-population campaign configuration
// of the sharding/determinism tests (seed-derived, no shared Rng, so
// every process/shard enumerates identical trials).
func yieldTestConfig() YieldConfig {
	return YieldConfig{
		Chips:       6,
		Defects:     faults.DefectModel{MeanFaulty: 20, Alpha: 1},
		Threshold:   0.5,
		Mitigation:  mitigation.Config{Method: mitigation.FaP},
		EvalSamples: 32,
		Seed:        42,
	}
}

func yieldTestDeps(t *testing.T, h *testHarness) YieldDeps {
	t.Helper()
	return YieldDeps{
		Model: h.model, Baseline: h.baseline, Arr: h.arr,
		Train: h.train, Test: h.test,
		BuildModel: func() (*snn.Model, error) {
			return snn.Build(h.model.Spec, rand.New(rand.NewSource(1)))
		},
	}
}

// TestYieldCampaignShardMergeBitIdentical is the acceptance gate: a
// yield campaign split into 2 shards (separately checkpointed) and
// merged produces bit-identical results — and an identical report — to
// the single-process run.
func TestYieldCampaignShardMergeBitIdentical(t *testing.T) {
	h := newHarness(t)
	cfg := yieldTestConfig()
	dir := t.TempDir()

	whole, err := YieldCampaign(yieldTestDeps(t, h), cfg)
	if err != nil {
		t.Fatal(err)
	}
	rrWhole, err := campaign.Run(whole, campaign.Options{
		Runner: campaign.PoolRunner{Engine: tensor.Serial()},
	})
	if err != nil {
		t.Fatal(err)
	}
	want, err := campaign.MarshalResults(rrWhole.Results)
	if err != nil {
		t.Fatal(err)
	}
	wantRep, err := YieldFromResults(rrWhole.Results, cfg.Chips, cfg.Threshold)
	if err != nil {
		t.Fatal(err)
	}

	var paths []string
	for i := 0; i < 2; i++ {
		c, err := YieldCampaign(yieldTestDeps(t, h), cfg)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, fmt.Sprintf("yield-shard%d.jsonl", i))
		rr, err := campaign.Run(c, campaign.Options{
			Shard:      campaign.Shard{Index: i, Count: 2},
			Checkpoint: path,
			Runner:     campaign.PoolRunner{Engine: tensor.NewParallel(2)},
		})
		if err != nil {
			t.Fatal(err)
		}
		if !rr.Complete {
			t.Fatalf("shard %d incomplete", i)
		}
		paths = append(paths, path)
	}
	_, merged, err := campaign.MergeFiles(paths...)
	if err != nil {
		t.Fatal(err)
	}
	got, err := campaign.MarshalResults(merged)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("sharded+merged yield results differ from single-process run:\n--- merged ---\n%s\n--- single ---\n%s", got, want)
	}
	gotRep, err := YieldFromResults(merged, cfg.Chips, cfg.Threshold)
	if err != nil {
		t.Fatal(err)
	}
	if *gotRep != *wantRep {
		t.Fatalf("merged report %+v != single-process report %+v", gotRep, wantRep)
	}
}

// TestYieldCampaignResume kills a campaign via a trial-count cutoff and
// resumes it from the checkpoint: no die re-runs, and the final report
// equals the uninterrupted run's.
func TestYieldCampaignResume(t *testing.T) {
	h := newHarness(t)
	cfg := yieldTestConfig()
	path := filepath.Join(t.TempDir(), "yield.jsonl")

	// countingDeps wraps the worker path indirectly: count dies via a
	// wrapper campaign so re-runs are observable.
	base, err := YieldCampaign(yieldTestDeps(t, h), cfg)
	if err != nil {
		t.Fatal(err)
	}
	var runs atomic.Int64
	trials, err := base.Trials()
	if err != nil {
		t.Fatal(err)
	}
	counting := func() campaign.Campaign {
		return campaign.New("yield", trials, func(lane int) (campaign.Worker, error) {
			w, err := base.NewWorker(lane)
			if err != nil {
				return nil, err
			}
			return campaign.WorkerFunc(func(tr campaign.Trial) (campaign.Result, error) {
				runs.Add(1)
				return w.RunTrial(tr)
			}), nil
		})
	}
	serial := campaign.PoolRunner{Engine: tensor.Serial()}
	rr, err := campaign.Run(counting(), campaign.Options{Checkpoint: path, MaxNew: 2, Runner: serial})
	if err != nil {
		t.Fatal(err)
	}
	if rr.Complete || rr.Executed != 2 {
		t.Fatalf("cutoff run: executed %d, complete %v", rr.Executed, rr.Complete)
	}
	rr2, err := campaign.Run(counting(), campaign.Options{Checkpoint: path, Runner: serial})
	if err != nil {
		t.Fatal(err)
	}
	if !rr2.Complete || rr2.Resumed != 2 || rr2.Executed != cfg.Chips-2 {
		t.Fatalf("resume: resumed %d executed %d complete %v", rr2.Resumed, rr2.Executed, rr2.Complete)
	}
	if runs.Load() != int64(cfg.Chips) {
		t.Fatalf("dies ran %d times across both sittings, want exactly %d", runs.Load(), cfg.Chips)
	}
	rep, err := YieldFromResults(rr2.Results, cfg.Chips, cfg.Threshold)
	if err != nil {
		t.Fatal(err)
	}
	uninterrupted, err := YieldStudy(h.model, h.baseline, h.arr, h.train, h.test, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if *rep != *uninterrupted {
		t.Fatalf("resumed report %+v != uninterrupted %+v", rep, uninterrupted)
	}
}

func TestYieldTrialsDeterministicEnumeration(t *testing.T) {
	cfg := yieldTestConfig()
	a, err := YieldTrials(16, 16, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := YieldTrials(16, 16, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != cfg.Chips || len(b) != cfg.Chips {
		t.Fatalf("trial counts %d/%d, want %d", len(a), len(b), cfg.Chips)
	}
	for i := range a {
		if a[i].ID != i || a[i].Seed != b[i].Seed || a[i].Tags["faulty"] != b[i].Tags["faulty"] {
			t.Fatalf("trial %d differs between enumerations: %+v vs %+v", i, a[i], b[i])
		}
	}
	cfg2 := cfg
	cfg2.Seed = 43
	c, err := YieldTrials(16, 16, cfg2)
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for i := range a {
		if a[i].Seed != c[i].Seed {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds should enumerate different die populations")
	}
}

// TestYieldFromResultsAccounting checks the yield math on synthetic
// results: fault-free dies always ship, faulty dies ship per-flow by
// threshold, and the mean is exact.
func TestYieldFromResultsAccounting(t *testing.T) {
	mk := func(id, faulty int, raw, mit float64) campaign.Result {
		m := map[string]float64{"faulty": float64(faulty)}
		if faulty > 0 {
			m["raw"], m["mit"] = raw, mit
		}
		return campaign.Result{TrialID: id, Key: fmt.Sprintf("die%04d", id), Metrics: m}
	}
	results := []campaign.Result{
		mk(0, 0, 0, 0),        // fault-free: ships in both flows
		mk(1, 10, 0.40, 0.90), // salvaged only
		mk(2, 4, 0.92, 0.95),  // ships in both
		mk(3, 30, 0.20, 0.30), // unsalvageable
		mk(4, 8, 0.85, 0.85),  // exactly at threshold: ships (>=)
	}
	rep, err := YieldFromResults(results, 5, 0.85)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Chips != 5 || rep.FaultFree != 1 {
		t.Errorf("chips/faultfree = %d/%d", rep.Chips, rep.FaultFree)
	}
	if rep.ShippableNoMitigation != 3 { // dies 0, 2, 4
		t.Errorf("no-mitigation shippable = %d, want 3", rep.ShippableNoMitigation)
	}
	if rep.ShippableMitigated != 4 { // dies 0, 1, 2, 4
		t.Errorf("mitigated shippable = %d, want 4", rep.ShippableMitigated)
	}
	if want := float64(0+10+4+30+8) / 5; rep.MeanFaulty != want {
		t.Errorf("mean faulty = %v, want %v", rep.MeanFaulty, want)
	}
	if math.Abs(rep.YieldNoMitigation()-0.6) > 1e-15 || math.Abs(rep.YieldMitigated()-0.8) > 1e-15 {
		t.Errorf("yields = %v / %v", rep.YieldNoMitigation(), rep.YieldMitigated())
	}

	// Incomplete result sets are refused.
	if _, err := YieldFromResults(results[:4], 5, 0.85); err == nil {
		t.Error("missing die should be an error")
	}
	// Order independence: reversed input gives the identical report.
	rev := []campaign.Result{results[4], results[3], results[2], results[1], results[0]}
	rep2, err := YieldFromResults(rev, 5, 0.85)
	if err != nil {
		t.Fatal(err)
	}
	if *rep2 != *rep {
		t.Errorf("report depends on result order: %+v vs %+v", rep2, rep)
	}
}

func TestYieldReportMath(t *testing.T) {
	var zero YieldReport
	if zero.YieldNoMitigation() != 0 || zero.YieldMitigated() != 0 {
		t.Error("zero-chip report should yield 0, not NaN")
	}
	rep := YieldReport{Chips: 8, FaultFree: 2, ShippableNoMitigation: 3, ShippableMitigated: 7, MeanFaulty: 12.5}
	if rep.YieldNoMitigation() != 3.0/8 || rep.YieldMitigated() != 7.0/8 {
		t.Errorf("yield fractions %v / %v", rep.YieldNoMitigation(), rep.YieldMitigated())
	}
	s := rep.String()
	for _, want := range []string{"8 dies", "12.5 faulty", "37.5%", "87.5%"} {
		if !strings.Contains(s, want) {
			t.Errorf("String() = %q missing %q", s, want)
		}
	}
}

// TestYieldReportGolden pins the YieldReport JSON schema: cmd/campaign
// merge emits it, so drift must break CI instead of downstream parsers.
func TestYieldReportGolden(t *testing.T) {
	rep := YieldReport{Chips: 8, FaultFree: 2, ShippableNoMitigation: 3, ShippableMitigated: 7, MeanFaulty: 12.5}
	got, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')
	golden := filepath.Join("testdata", "yieldreport.golden.json")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("missing golden file (run with -update): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("YieldReport JSON drifted from golden:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}
