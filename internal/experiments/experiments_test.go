package experiments

import (
	"bytes"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"

	"falvolt/internal/campaign"
	"falvolt/internal/mitigation"
)

func TestNewSuiteFillsDefaults(t *testing.T) {
	s := NewSuite(Options{})
	if s.Opt.ArrayRows != 64 || s.Opt.ArrayCols != 64 {
		t.Errorf("default array %dx%d, want 64x64", s.Opt.ArrayRows, s.Opt.ArrayCols)
	}
	if s.Opt.Repeats != 8 {
		t.Errorf("default repeats %d, want 8", s.Opt.Repeats)
	}
	if s.Opt.RetrainEpochs != 20 {
		t.Errorf("default retrain epochs %d, want 20", s.Opt.RetrainEpochs)
	}
	if s.Opt.Seed == 0 {
		t.Error("seed should default non-zero")
	}
}

func TestQuickOptionsSmaller(t *testing.T) {
	q, d := QuickOptions(), DefaultOptions()
	if !q.Quick {
		t.Error("QuickOptions must set Quick")
	}
	if q.Repeats >= d.Repeats || q.RetrainEpochs >= d.RetrainEpochs {
		t.Error("quick mode should use fewer repeats and epochs")
	}
}

func TestUnknownDatasetErrors(t *testing.T) {
	s := NewSuite(QuickOptions())
	if _, err := s.Dataset("imagenet"); err == nil {
		t.Error("unknown dataset should error")
	}
}

func TestPlansCoverPaperDatasets(t *testing.T) {
	s := NewSuite(QuickOptions())
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
	s := NewSuite(QuickOptions())
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

func TestRunLocalCoversAllIndices(t *testing.T) {
	var hits [57]int32
	vals, err := runLocal("cover", len(hits), func(i int) (float64, error) {
		atomic.AddInt32(&hits[i], 1)
		return float64(i) * 2, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, h := range hits {
		if h != 1 {
			t.Fatalf("index %d executed %d times", i, h)
		}
		if vals[i] != float64(i)*2 {
			t.Fatalf("value %d = %v", i, vals[i])
		}
	}
	// n smaller than worker count.
	var single int32
	if _, err := runLocal("single", 1, func(i int) (float64, error) {
		atomic.AddInt32(&single, 1)
		return 0, nil
	}); err != nil {
		t.Fatal(err)
	}
	if single != 1 {
		t.Errorf("single job executed %d times", single)
	}
	// n == 0 is a no-op.
	if _, err := runLocal("empty", 0, func(i int) (float64, error) {
		t.Error("should not run")
		return 0, nil
	}); err != nil {
		t.Fatal(err)
	}
	// Errors propagate.
	if _, err := runLocal("failing", 3, func(i int) (float64, error) {
		if i == 1 {
			return 0, errBoom
		}
		return 0, nil
	}); err == nil {
		t.Error("runLocal should surface trial errors")
	}
}

var errBoom = fmt.Errorf("boom")

// TestCampaignTrialEnumeration checks the sharding preconditions of
// every suite campaign without training anything: enumeration is pure
// (identical across calls), IDs are dense, and seeds/keys are stable.
func TestCampaignTrialEnumeration(t *testing.T) {
	s := NewSuite(QuickOptions())
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
	s := NewSuite(QuickOptions())
	trials := s.fig5aTrials()
	wantLen := 6 * len(Fig5aBits) * s.Opt.Repeats
	if len(trials) != wantLen {
		t.Fatalf("fig5a enumerates %d trials, want %d", len(trials), wantLen)
	}
	id := 0
	for j := 0; j < 6; j++ {
		for i := range Fig5aBits {
			for rep := 0; rep < s.Opt.Repeats; rep++ {
				want := s.Opt.Seed + int64(j*1000+i*10+rep)
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
	s := NewSuite(QuickOptions())
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
