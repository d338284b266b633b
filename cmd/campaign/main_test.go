package main

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"falvolt/internal/campaign"
	"falvolt/internal/core"
	"falvolt/internal/snn"
)

// invoke runs one in-process invocation and returns its exit status
// and streams.
func invoke(t *testing.T, args ...string) (int, string, string) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	code := run(args, &stdout, &stderr)
	return code, stdout.String(), stderr.String()
}

// TestDumpSpecMatchesRetiredTools pins the flag-compiled specs of the
// yield, faultsim and falvolt kinds and of the figure kinds (fig2,
// fig5a-c, mitigation, ablations). Each testdata file is the -dump-spec
// output of the standalone tool the kind's flags came from (the figure
// kinds' from the experiments tool, whose -fig 7 named the mitigation
// study); campaign must reproduce its bytes, because fingerprints,
// checkpoints and -cache files all hash them.
func TestDumpSpecMatchesRetiredTools(t *testing.T) {
	for _, tc := range []struct {
		tool   string // the retired tool's command line
		golden string
		args   []string
	}{
		{"yield", "yield", []string{"-c", "yield"}},
		{"yield -chips 40 -epochs 6 -method fap", "yield-chips40-fap",
			[]string{"-c", "yield", "-chips", "40", "-mit-epochs", "6", "-method", "fap"}},
		{"faultsim", "faultsim", []string{"-c", "faultsim"}},
		{"faultsim -sweep count", "faultsim-count", []string{"-c", "faultsim", "-sweep", "count"}},
		{"faultsim -sweep size -faults 2 -repeats 1 -base-epochs 1 -train 48 -test 24", "faultsim-size",
			[]string{"-c", "faultsim", "-sweep", "size", "-faults", "2", "-repeats", "1", "-base-epochs", "1", "-train", "48", "-test", "24"}},
		{"faultsim -sweep model -model bitflip -mitigate fapit", "faultsim-model-bitflip-fapit",
			[]string{"-c", "faultsim", "-sweep", "model", "-model", "bitflip", "-mitigate", "fapit"}},
		{"faultsim -sweep model -model stuckat -mitigate rescuesnn -mit-epochs 2", "faultsim-model-stuckat-rescuesnn",
			[]string{"-c", "faultsim", "-sweep", "model", "-model", "stuckat", "-mitigate", "rescuesnn", "-mit-epochs", "2"}},
		{"faultsim -dataset nmnist -array 32", "faultsim-nmnist", []string{"-c", "faultsim", "-dataset", "nmnist", "-array", "32"}},
		{"falvolt", "falvolt", []string{"-c", "falvolt"}},
		{"falvolt -dataset dvsgesture -rate 0.6 -method fapit -epochs 10", "falvolt-dvsgesture-fapit",
			[]string{"-c", "falvolt", "-dataset", "dvsgesture", "-rate", "0.6", "-method", "fapit", "-epochs", "10"}},
		{"falvolt -rate 0.3 -train 320 -test 64 -base-epochs 6 -epochs 2 -array 16", "falvolt-rate0.3",
			[]string{"-c", "falvolt", "-rate", "0.3", "-train", "320", "-test", "64", "-base-epochs", "6", "-epochs", "2", "-array", "16"}},
		{"falvolt -quick=false -seed 3", "falvolt-full-seed3", []string{"-c", "falvolt", "-quick=false", "-seed", "3"}},
		{"experiments -quick -fig 2", "fig2-quick", []string{"-c", "fig2", "-quick"}},
		{"experiments -quick -fig 5a", "fig5a-quick", []string{"-c", "fig5a", "-quick"}},
		{"experiments -quick -fig 5b", "fig5b-quick", []string{"-c", "fig5b", "-quick"}},
		{"experiments -quick -fig 5c", "fig5c-quick", []string{"-c", "fig5c", "-quick"}},
		{"experiments -quick -fig 7", "mitigation-quick", []string{"-c", "mitigation", "-quick"}},
		{"experiments -quick -fig ablations", "ablations-quick", []string{"-c", "ablations", "-quick"}},
		{"experiments -quick -array 16 -repeats 1 -eval 16 -epochs 1 -fig 5a", "fig5a-golden-config",
			[]string{"-c", "fig5a", "-quick", "-array", "16", "-repeats", "1", "-eval", "16", "-epochs", "1"}},
		{"experiments -fig 7 -seed 3 -array 32", "mitigation-full-seed3",
			[]string{"-c", "mitigation", "-seed", "3", "-array", "32"}},
	} {
		want, err := os.ReadFile(filepath.Join("testdata", tc.golden+".json"))
		if err != nil {
			t.Fatal(err)
		}
		code, got, stderr := invoke(t, append(append([]string{"plan"}, tc.args...), "-dump-spec")...)
		if code != 0 || got != string(want) {
			t.Errorf("%s: campaign plan %s -dump-spec exited %d (%s) with\n%s\nwant\n%s",
				tc.tool, strings.Join(tc.args, " "), code, stderr, got, want)
		}
	}
}

func TestPlanListsTrials(t *testing.T) {
	code, stdout, stderr := invoke(t, "plan", "-c", "selftest", "-trials", "5")
	if code != 0 {
		t.Fatalf("plan exited %d: %s", code, stderr)
	}
	var trials []struct{ ID int }
	if err := json.Unmarshal([]byte(stdout), &trials); err != nil {
		t.Fatalf("plan stdout is not a trial list: %v\n%s", err, stdout)
	}
	if len(trials) != 5 || trials[4].ID != 4 {
		t.Errorf("plan listed %+v, want trials 0..4", trials)
	}
	if !strings.HasPrefix(stderr, "5 trials (spec ") {
		t.Errorf("plan stderr = %q", stderr)
	}
}

// TestRunShardsThenMerge runs a campaign whole and as two shards: the
// merged shards print what the whole run printed.
func TestRunShardsThenMerge(t *testing.T) {
	dir := t.TempDir()
	path := func(name string) string { return filepath.Join(dir, name) }
	code, whole, stderr := invoke(t, "run", "-c", "selftest", "-trials", "8", "-o", path("whole.jsonl"))
	if code != 0 || whole == "" {
		t.Fatalf("run exited %d with stdout %q: %s", code, whole, stderr)
	}
	for i, shard := range []string{"0/2", "1/2"} {
		code, stdout, stderr := invoke(t, "run", "-c", "selftest", "-trials", "8", "-shard", shard,
			"-o", path([]string{"a.jsonl", "b.jsonl"}[i]))
		if code != 0 || stdout != "" || !strings.Contains(stderr, "shard complete") {
			t.Fatalf("run -shard %s exited %d, stdout %q, stderr %q", shard, code, stdout, stderr)
		}
	}
	code, merged, stderr := invoke(t, "merge", path("a.jsonl"), path("b.jsonl"))
	if code != 0 {
		t.Fatalf("merge exited %d: %s", code, stderr)
	}
	if merged != whole {
		t.Errorf("merged shards print\n%s\nwhole run prints\n%s", merged, whole)
	}
}

// TestUsageErrors checks that command-line mistakes exit 2 with a
// message naming them, before any file is written or any service is
// contacted.
func TestUsageErrors(t *testing.T) {
	t.Setenv("CAMPAIGN_TOKEN", "")
	for _, tc := range []struct {
		args []string
		want string
	}{
		{nil, "usage: campaign"},
		{[]string{"launch"}, `unknown subcommand "launch"`},
		{[]string{"plan", "-nope"}, "flag provided but not defined: -nope"},
		{[]string{"run", "-c", "selftest", "fig5a"}, `unexpected argument "fig5a"`},
		{[]string{"merge"}, "merge needs at least one checkpoint file"},
		{[]string{"serve", "-c", "selftest"}, "serve needs a bearer token"},
		{[]string{"serve", "-c", "selftest", "-token", "t", "extra"}, `unexpected argument "extra"`},
		{[]string{"service", "-token", "t"}, "service needs -state"},
		{[]string{"service", "-state", "svc"}, "service needs a bearer token"},
		{[]string{"work"}, "work needs -coordinator"},
		{[]string{"work", "-coordinator", "http://127.0.0.1:1"}, "work needs a bearer token"},
		{[]string{"work", "-coordinator", "http://127.0.0.1:1", "-token", "t", "extra"}, `unexpected argument "extra"`},
		{[]string{"submit", "-c", "selftest", "-token", "t"}, "submit needs -service"},
		{[]string{"submit", "-c", "selftest", "-service", "http://127.0.0.1:1"}, "submit needs a bearer token"},
		{[]string{"submit", "-c", "selftest", "extra"}, `unexpected argument "extra"`},
		{[]string{"runs", "-token", "t"}, "runs needs -service"},
		{[]string{"runs", "-service", "http://127.0.0.1:1"}, "runs needs a bearer token"},
		{[]string{"runs", "-service", "http://127.0.0.1:1", "-token", "t", "extra"}, `unexpected argument "extra"`},
		{[]string{"drain", "-service", "http://127.0.0.1:1", "-token", "t"}, "drain needs -service <url> and -worker"},
		{[]string{"drain", "-service", "http://127.0.0.1:1", "-worker", "w"}, "drain needs a bearer token"},
		{[]string{"drain", "-service", "http://127.0.0.1:1", "-worker", "w", "-token", "t", "extra"}, `unexpected argument "extra"`},
		// Shards are always planned uniformly and runs share the fleet by
		// fair share alone: no load-aware planner, no priority bands.
		{[]string{"plan", "-c", "selftest", "-balance", "x"}, "flag provided but not defined: -balance"},
		{[]string{"plan", "-c", "selftest", "-shards", "4"}, "flag provided but not defined: -shards"},
		{[]string{"serve", "-c", "selftest", "-token", "t", "-balance", "x"}, "flag provided but not defined: -balance"},
		{[]string{"submit", "-c", "selftest", "-priority", "5"}, "flag provided but not defined: -priority"},
		// A falvolt rate must be a finite number, and only falvolt has a
		// network to save.
		{[]string{"run", "-c", "falvolt", "-rate", "NaN"}, `invalid value "NaN" for flag -rate`},
		{[]string{"run", "-c", "yield", "-save", "x"}, `-save: campaign kind "yield"`},
	} {
		code, stdout, stderr := invoke(t, tc.args...)
		if code != 2 || stdout != "" || !strings.Contains(stderr, tc.want) {
			t.Errorf("campaign %s: exit %d, stdout %q, stderr %q; want exit 2 naming %q",
				strings.Join(tc.args, " "), code, stdout, stderr, tc.want)
		}
	}
	if _, err := os.Stat("svc"); err == nil {
		t.Error("service created its -state dir before checking the token")
	}
}

// TestDumpSpecNeedsNoService checks that -dump-spec on serve and submit
// compiles the spec without a token or service URL.
func TestDumpSpecNeedsNoService(t *testing.T) {
	t.Setenv("CAMPAIGN_TOKEN", "")
	for _, sub := range []string{"serve", "submit"} {
		code, stdout, stderr := invoke(t, sub, "-c", "selftest", "-dump-spec")
		if code != 0 || !strings.Contains(stdout, `"kind": "selftest"`) {
			t.Errorf("%s -dump-spec: exit %d, stdout %q, stderr %q", sub, code, stdout, stderr)
		}
	}
}

func TestParseRates(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want []float64
		bad  string // the entry an error must name
	}{
		{in: "", want: nil},
		{in: "0.01, 0.05,0.1", want: []float64{0.01, 0.05, 0.1}},
		{in: "0.1,x", bad: `"x"`},
		{in: "NaN,0.1", bad: `"NaN"`},
		{in: "0.1,+Inf", bad: `"+Inf"`},
		{in: "-inf", bad: `"-inf"`},
		{in: "1e999", bad: `"1e999"`},
	} {
		got, err := parseRates(tc.in)
		if tc.bad != "" {
			if err == nil || !strings.Contains(err.Error(), "bad -rates entry "+tc.bad) {
				t.Errorf("parseRates(%q) = %v, %v; want an error naming %s", tc.in, got, err, tc.bad)
			}
			continue
		}
		if err != nil || len(got) != len(tc.want) {
			t.Errorf("parseRates(%q) = %v, %v; want %v", tc.in, got, err, tc.want)
			continue
		}
		for i := range got {
			if got[i] != tc.want[i] {
				t.Errorf("parseRates(%q) = %v, want %v", tc.in, got, tc.want)
				break
			}
		}
	}
	// End to end, the entry is rejected before the spec is canonicalized.
	code, _, stderr := invoke(t, "plan", "-c", "faultmodel", "-rates", "NaN,0.1")
	if code != 1 || !strings.Contains(stderr, `bad -rates entry "NaN"`) {
		t.Errorf("plan -rates NaN,0.1: exit %d, stderr %q", code, stderr)
	}
}

// TestRunFalVoltSave runs the pipeline kind on a tiny config with
// -save: the state file holds the mitigated network (its thresholds are
// the trial's vth series, not the baseline's), and a rerun that resumes
// the trial from -o has nothing to save.
func TestRunFalVoltSave(t *testing.T) {
	dir := t.TempDir()
	ckpt, state := filepath.Join(dir, "falvolt.jsonl"), filepath.Join(dir, "net.gob")
	args := []string{"run", "-c", "falvolt", "-train", "48", "-test", "24", "-base-epochs", "1",
		"-epochs", "1", "-array", "16", "-o", ckpt, "-save", state}
	code, stdout, stderr := invoke(t, args...)
	if code != 0 || !strings.Contains(stdout, "per-layer threshold voltages:") {
		t.Fatalf("run exited %d, stdout %q, stderr %q", code, stdout, stderr)
	}
	st, err := snn.LoadStateFile(state)
	if err != nil {
		t.Fatal(err)
	}
	mspec, err := core.BaselinePlan{Dataset: "mnist", Quick: true}.ModelSpec()
	if err != nil {
		t.Fatal(err)
	}
	model, err := snn.Build(mspec, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	if err := model.Net.LoadState(st); err != nil {
		t.Fatal(err)
	}
	_, results, err := campaign.ReadCheckpoint(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 1 {
		t.Fatalf("checkpoint holds %d results, want 1", len(results))
	}
	if got, want := model.Net.Vths(), results[0].Series["vth"]; !slices.Equal(got, want) {
		t.Errorf("saved network's thresholds %v, trial's vth series %v", got, want)
	}

	code, _, stderr = invoke(t, args...)
	if code == 0 || !strings.Contains(stderr, "-save") {
		t.Errorf("rerun on the completed checkpoint with -save: exit %d, stderr %q; want a failure naming -save", code, stderr)
	}
}
