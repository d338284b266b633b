package experiments

import (
	"bytes"
	"strings"
	"testing"

	"falvolt/internal/campaign"
	"falvolt/internal/core"
	"falvolt/internal/mitigation"
	"falvolt/internal/spec"
)

// quickSuite is the quick-mode suite every enumeration test shares;
// nothing here trains unless a test asks for a baseline.
func quickSuite(t *testing.T) *Suite {
	t.Helper()
	s, err := SuiteFromSpec(&spec.Spec{Version: spec.Version, Kind: "fig2", Seed: 7,
		Suite: &spec.SuiteSpec{Quick: true}}, spec.BuildOpts{})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// suiteFrom builds the suite of a fig2 spec with the given seed and
// suite section.
func suiteFrom(t *testing.T, seed int64, ss spec.SuiteSpec) *Suite {
	t.Helper()
	s, err := SuiteFromSpec(&spec.Spec{Version: spec.Version, Kind: "fig2", Seed: seed,
		Suite: &ss}, spec.BuildOpts{})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestNewSuiteFillsDefaults(t *testing.T) {
	s := suiteFrom(t, 0, spec.SuiteSpec{})
	if s.Spec.Array != 64 {
		t.Errorf("default array %dx%d, want 64x64", s.Spec.Array, s.Spec.Array)
	}
	if s.Spec.Repeats != 8 {
		t.Errorf("default repeats %d, want 8", s.Spec.Repeats)
	}
	if s.Spec.Epochs != 20 {
		t.Errorf("default retrain epochs %d, want 20", s.Spec.Epochs)
	}
	if s.Seed == 0 {
		t.Error("seed should default non-zero")
	}
}

func TestQuickOptionsSmaller(t *testing.T) {
	q, d := suiteFrom(t, 0, spec.SuiteSpec{Quick: true}), suiteFrom(t, 0, spec.SuiteSpec{})
	if !q.Spec.Quick {
		t.Error("a quick suite must keep Quick")
	}
	if q.Spec.Repeats >= d.Spec.Repeats || q.Spec.Epochs >= d.Spec.Epochs {
		t.Error("quick mode should use fewer repeats and epochs")
	}
}

func TestUnknownDatasetErrors(t *testing.T) {
	s := quickSuite(t)
	if _, err := s.Dataset("imagenet"); err == nil {
		t.Error("unknown dataset should error")
	}
}

func TestPlansCoverPaperDatasets(t *testing.T) {
	s := quickSuite(t)
	var names []string
	for _, p := range s.plans() {
		names = append(names, p.name)
	}
	want := []string{"MNIST", "N-MNIST", "DVSGesture"}
	if strings.Join(names, ",") != strings.Join(want, ",") {
		t.Errorf("plans = %v, want %v", names, want)
	}
}

func TestMitigationFaultMapDeterministicAndRated(t *testing.T) {
	s := quickSuite(t)
	a, err := s.mitigationFaultMap(1, 0.30)
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.mitigationFaultMap(1, 0.30)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Faults) != len(b.Faults) {
		t.Fatal("same cell should give identical fault maps")
	}
	for i := range a.Faults {
		if a.Faults[i] != b.Faults[i] {
			t.Fatal("fault maps differ for identical cell")
		}
	}
	rate := 0.30
	wantPEs := int(rate*float64(64*64) + 0.5)
	if got := a.NumFaultyPEs(); got != wantPEs {
		t.Errorf("30%% of 64x64 = %d faulty PEs, want %d", got, wantPEs)
	}
	c, err := s.mitigationFaultMap(2, 0.30)
	if err != nil {
		t.Fatal(err)
	}
	same := len(a.Faults) == len(c.Faults)
	if same {
		identical := true
		for i := range a.Faults {
			if a.Faults[i] != c.Faults[i] {
				identical = false
				break
			}
		}
		if identical {
			t.Error("different datasets should draw different fault maps")
		}
	}
}

func TestFigurePrintAlignment(t *testing.T) {
	fig := &Figure{
		ID: "FigX", Title: "demo", XLabel: "x", YLabel: "acc",
		Notes:  []string{"a note"},
		Series: []Series{{Label: "s1", X: []float64{0, 10}, Y: []float64{0.5, 0.25}}},
	}
	var buf bytes.Buffer
	fig.Print(&buf)
	out := buf.String()
	for _, want := range []string{"FigX", "demo", "a note", "s1", "0.500", "0.250", "10"} {
		if !strings.Contains(out, want) {
			t.Errorf("printed figure missing %q:\n%s", want, out)
		}
	}
}

func TestFigurePrintXTicks(t *testing.T) {
	fig := &Figure{
		ID: "Fig6-demo", Title: "vth", XLabel: "layer",
		XTicks: []string{"Conv1", "FC1"},
		Series: []Series{{Label: "30%", X: []float64{0, 1}, Y: []float64{0.7, 0.9}}},
	}
	var buf bytes.Buffer
	fig.Print(&buf)
	if !strings.Contains(buf.String(), "Conv1") || !strings.Contains(buf.String(), "FC1") {
		t.Errorf("XTicks not rendered:\n%s", buf.String())
	}
}

func TestFigurePrintEmpty(t *testing.T) {
	fig := &Figure{ID: "FigE", Title: "empty"}
	var buf bytes.Buffer
	fig.Print(&buf)
	if !strings.Contains(buf.String(), "no data") {
		t.Error("empty figure should say so")
	}
}

func TestFigurePrintRaggedSeries(t *testing.T) {
	fig := &Figure{
		ID: "FigR", Title: "ragged", XLabel: "x",
		Series: []Series{
			{Label: "long", X: []float64{1, 2, 3}, Y: []float64{0.1, 0.2, 0.3}},
			{Label: "short", X: []float64{1, 2, 3}, Y: []float64{0.9}},
		},
	}
	var buf bytes.Buffer
	fig.Print(&buf) // must not panic
	if !strings.Contains(buf.String(), "-") {
		t.Error("missing placeholder for short series")
	}
}

// TestAblationFiguresNameMissingTrial: folding ablation results that
// lack one trial fails with the missing trial's key, and the complete
// set folds into the six figures in order. Nothing trains.
func TestAblationFiguresNameMissingTrial(t *testing.T) {
	s := quickSuite(t)
	c, err := s.Campaign("ablations")
	if err != nil {
		t.Fatal(err)
	}
	trials, err := c.Trials()
	if err != nil {
		t.Fatal(err)
	}
	if len(trials) != 18 {
		t.Fatalf("ablations enumerate %d trials, want 18", len(trials))
	}
	var results []campaign.Result
	for _, tr := range trials {
		results = append(results, campaign.Result{TrialID: tr.ID, Key: tr.Key, Metrics: map[string]float64{
			"accuracy": 0.5, "corrupting": 0.25, "bypassed": 0.75, "accumulator": 0.125, "weight-register": 1,
		}})
	}
	figs, err := s.Figures("ablations", results)
	if err != nil {
		t.Fatal(err)
	}
	var ids []string
	for _, f := range figs {
		ids = append(ids, f.ID)
	}
	want := "Ablation-SurrogateWidth,Ablation-VthGrad,Ablation-Bypass,Ablation-QFormat,Ablation-LIFvsPLIF,Ablation-FaultSite"
	if strings.Join(ids, ",") != want {
		t.Errorf("ablation figures %v, want %s", ids, want)
	}
	missing := trials[7].Key
	if _, err := s.Figures("ablations", append(results[:7:7], results[8:]...)); err == nil || !strings.Contains(err.Error(), missing) {
		t.Errorf("folding without trial %q: error %v, want one naming it", missing, err)
	}
}

// TestCampaignTrialEnumeration checks the sharding preconditions of
// every suite campaign without training anything: enumeration is pure
// (identical across calls), IDs are dense, and seeds/keys are stable.
func TestCampaignTrialEnumeration(t *testing.T) {
	s := quickSuite(t)
	for _, name := range CampaignNames() {
		c, err := s.Campaign(name)
		if err != nil {
			t.Fatal(err)
		}
		if c.Name() != name {
			t.Errorf("campaign %q reports name %q", name, c.Name())
		}
		a, err := c.Trials()
		if err != nil {
			t.Fatal(err)
		}
		b, err := c.Trials()
		if err != nil {
			t.Fatal(err)
		}
		if len(a) == 0 || len(a) != len(b) {
			t.Fatalf("%s: %d/%d trials", name, len(a), len(b))
		}
		for i := range a {
			if a[i].ID != i {
				t.Fatalf("%s: trial %d has id %d", name, i, a[i].ID)
			}
			if a[i].Key != b[i].Key || a[i].Seed != b[i].Seed {
				t.Fatalf("%s: enumeration not pure at trial %d", name, i)
			}
			if a[i].Key == "" {
				t.Fatalf("%s: trial %d has empty key", name, i)
			}
		}
	}
	if _, err := s.Campaign("nope"); err == nil {
		t.Error("unknown campaign should error")
	}
}

// TestFig5aTrialSeedsMatchLegacyFormula pins the seed addressing of the
// fig5a sweep: seeds must stay Seed + j*1000 + i*10 + rep so results
// remain comparable with pre-campaign runs.
func TestFig5aTrialSeedsMatchLegacyFormula(t *testing.T) {
	s := quickSuite(t)
	c, err := s.Campaign("fig5a")
	if err != nil {
		t.Fatal(err)
	}
	trials, err := c.Trials()
	if err != nil {
		t.Fatal(err)
	}
	wantLen := 6 * len(core.Fig5aBits) * s.Spec.Repeats
	if len(trials) != wantLen {
		t.Fatalf("fig5a enumerates %d trials, want %d", len(trials), wantLen)
	}
	id := 0
	for j := 0; j < 6; j++ {
		for i := range core.Fig5aBits {
			for rep := 0; rep < s.Spec.Repeats; rep++ {
				want := s.Seed + int64(j*1000+i*10+rep)
				if trials[id].Seed != want {
					t.Fatalf("trial %d seed %d, want %d", id, trials[id].Seed, want)
				}
				id++
			}
		}
	}
}

// TestCampaignShardsPartitionTrials: interleaved shards cover every
// trial exactly once for each suite campaign.
func TestCampaignShardsPartitionTrials(t *testing.T) {
	s := quickSuite(t)
	for _, name := range CampaignNames() {
		c, err := s.Campaign(name)
		if err != nil {
			t.Fatal(err)
		}
		trials, err := c.Trials()
		if err != nil {
			t.Fatal(err)
		}
		seen := map[int]int{}
		for i := 0; i < 3; i++ {
			for _, tr := range (campaign.Shard{Index: i, Count: 3}).Of(trials) {
				seen[tr.ID]++
			}
		}
		if len(seen) != len(trials) {
			t.Fatalf("%s: shards cover %d of %d trials", name, len(seen), len(trials))
		}
	}
}

func TestEpochsToReachTarget(t *testing.T) {
	curve := []mitigation.EpochPoint{
		{Epoch: 0, Accuracy: 0.3},
		{Epoch: 1, Accuracy: 0.6},
		{Epoch: 2, Accuracy: 0.9},
	}
	if e := mitigation.EpochsToReachTarget(curve, 0.55); e != 1 {
		t.Errorf("target 0.55 reached at %d, want 1", e)
	}
	if e := mitigation.EpochsToReachTarget(curve, 0.95); e != -1 {
		t.Errorf("unreached target should give -1, got %d", e)
	}
}

func TestTrimFloat(t *testing.T) {
	if trimFloat(3) != "3" {
		t.Errorf("trimFloat(3) = %q", trimFloat(3))
	}
	if trimFloat(0.5) != "0.5" {
		t.Errorf("trimFloat(0.5) = %q", trimFloat(0.5))
	}
}
