package core

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"falvolt/internal/campaign"
	"falvolt/internal/spec"
)

// The faultsim and falvolt kinds must print what the faultsim and
// falvolt tools printed before they became spec shims. Each golden
// under testdata/ is the stdout of the pre-registry tool, its first line
// the command that produced it; the tests run the equivalent spec
// through spec.Build + campaign.Run with the build log and the report
// on one stream, as the tools print them.

// trialClock matches falvolt's wall-clock trial field, the one part of
// the report that is not a function of the spec.
var trialClock = regexp.MustCompile(`trial [0-9.]+s`)

// readKindGolden returns a golden's expected output, without its
// command line.
func readKindGolden(t *testing.T, name string) string {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("testdata", name+".golden"))
	if err != nil {
		t.Fatal(err)
	}
	cmd, out, ok := strings.Cut(string(b), "\n")
	if !ok || !strings.HasPrefix(cmd, "# ") {
		t.Fatalf("%s.golden does not start with its command line", name)
	}
	return out
}

// runKind builds s, runs it whole, and returns the built campaign, its
// results, and build log + report.
func runKind(t *testing.T, s *spec.Spec) (*spec.Built, []campaign.Result, string) {
	t.Helper()
	var out bytes.Buffer
	built, err := spec.Build(s, spec.BuildOpts{Log: &out})
	if err != nil {
		t.Fatal(err)
	}
	rr, err := campaign.Run(built.Campaign, campaign.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := built.Render(&out, rr.Results); err != nil {
		t.Fatal(err)
	}
	return built, rr.Results, out.String()
}

func faultSimSpec(sweep string) *spec.Spec {
	return &spec.Spec{
		Version: spec.Version, Kind: "faultsim", Seed: 7,
		FaultSim: &spec.FaultSimSpec{
			Dataset: "mnist", Sweep: sweep, Array: 16, Faults: 4,
			Repeats: 1, BaseEpochs: 6, Train: 320, Test: 64,
		},
	}
}

// TestFaultSimKindGolden pins the count sweep against the tool's
// output, then checks that the same campaign run as two shards and
// merged renders byte-identically.
func TestFaultSimKindGolden(t *testing.T) {
	built, single, got := runKind(t, faultSimSpec("count"))
	if want := readKindGolden(t, "faultsim-count"); got != want {
		t.Fatalf("faultsim count output:\n%s\nwant:\n%s", got, want)
	}

	// The baseline is already built, so the shards only rerun trials.
	dir := t.TempDir()
	paths := []string{filepath.Join(dir, "s0.jsonl"), filepath.Join(dir, "s1.jsonl")}
	for i, path := range paths {
		if _, err := campaign.Run(built.Campaign, campaign.Options{
			Shard: campaign.Shard{Index: i, Count: 2}, Checkpoint: path,
		}); err != nil {
			t.Fatal(err)
		}
	}
	_, merged, err := campaign.MergeFiles(paths...)
	if err != nil {
		t.Fatal(err)
	}
	var want, sharded bytes.Buffer
	if err := built.Render(&want, single); err != nil {
		t.Fatal(err)
	}
	if err := built.Render(&sharded, merged); err != nil {
		t.Fatal(err)
	}
	if sharded.String() != want.String() {
		t.Fatalf("2-shard merge renders\n%s\nsingle process\n%s", sharded.String(), want.String())
	}
}

// TestFaultSimKindMitigatedGolden pins a salvaged model sweep, whose
// per-cell retraining seeds follow the trial order.
func TestFaultSimKindMitigatedGolden(t *testing.T) {
	s := faultSimSpec("model")
	s.FaultSim.Model = &spec.FaultModelSpec{Kind: "stuckat"}
	s.FaultSim.Mitigate = &spec.MitigationSpec{Kind: "fapit"}
	_, _, got := runKind(t, s)
	if want := readKindGolden(t, "faultsim-model-fapit"); got != want {
		t.Fatalf("faultsim model -mitigate fapit output:\n%s\nwant:\n%s", got, want)
	}
}

// TestFalVoltKindGolden pins the one-trial pipeline kind, the trial
// clock aside.
func TestFalVoltKindGolden(t *testing.T) {
	_, results, got := runKind(t, &spec.Spec{
		Version: spec.Version, Kind: "falvolt", Seed: 7,
		Pipeline: &spec.PipelineSpec{
			Dataset: "mnist", Rate: 0.3, Method: "falvolt", Array: 16,
			BaseEpochs: 6, Epochs: 2, Train: 320, Test: 64, Quick: true,
		},
	})
	if len(results) != 1 {
		t.Fatalf("falvolt ran %d trials, want 1", len(results))
	}
	want := readKindGolden(t, "falvolt-rate0.3")
	got = trialClock.ReplaceAllString(got, "trial Ns")
	if want = trialClock.ReplaceAllString(want, "trial Ns"); got != want {
		t.Fatalf("falvolt output:\n%s\nwant:\n%s", got, want)
	}
}

// TestFaultSimRejectsImpossibleCells: a stuck-at cell asking for more
// faulty PEs than its array holds fails at build time, before any
// training, and the error names the sweep point.
func TestFaultSimRejectsImpossibleCells(t *testing.T) {
	for _, tc := range []struct {
		sweep         string
		array, faults int
		point         string
	}{
		{"size", 16, 17, "side=4"},
		{"count", 4, 4, "faulty=32"},
	} {
		s := faultSimSpec(tc.sweep)
		s.FaultSim.Array, s.FaultSim.Faults = tc.array, tc.faults
		if _, err := spec.Build(s, spec.BuildOpts{}); err == nil || !strings.Contains(err.Error(), tc.point) {
			t.Errorf("%s sweep (array %d, faults %d): err = %v, want a build error naming %s",
				tc.sweep, tc.array, tc.faults, err, tc.point)
		}
	}
}

// TestFalVoltRejectsImpossibleRates: a pipeline rate outside [0,1]
// fails at build time, before any training, and the error names it.
func TestFalVoltRejectsImpossibleRates(t *testing.T) {
	for _, tc := range []struct {
		rate float64
		want string
	}{
		{1.5, "rate 1.5"},
		{-0.1, "rate -0.1"},
		{math.NaN(), "rate NaN"},
	} {
		s := &spec.Spec{
			Version: spec.Version, Kind: "falvolt", Seed: 7,
			Pipeline: &spec.PipelineSpec{Rate: tc.rate, Array: 16, Quick: true},
		}
		if _, err := spec.Build(s, spec.BuildOpts{}); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("rate %v: err = %v, want a build error naming %s", tc.rate, err, tc.want)
		}
	}
}
