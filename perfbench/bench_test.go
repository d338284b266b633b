package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"

	"falvolt/internal/campaign"
)

func TestMedianAndQuartiles(t *testing.T) {
	for _, c := range []struct {
		xs     []float64
		med    float64
		q1, q3 float64
	}{
		// Quartiles as Python's statistics.quantiles(xs, n=4) gives them.
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 5.5, 2.75, 8.25},
		{[]float64{3.5, 1.25, 9, 2}, 2.75, 1.4375, 7.625},
		{[]float64{5, 7}, 6, 4.5, 7.5},
		{[]float64{4}, 4, 4, 4},
	} {
		if got := median(c.xs); got != c.med {
			t.Errorf("median(%v) = %v, want %v", c.xs, got, c.med)
		}
		if q1, q3 := quartiles(c.xs); !near(q1, c.q1) || !near(q3, c.q3) {
			t.Errorf("quartiles(%v) = %v, %v, want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
	xs := []float64{3, 1, 2}
	median(xs)
	quartiles(xs)
	if xs[0] != 3 || xs[1] != 1 {
		t.Errorf("helpers reordered their input: %v", xs)
	}
}

func near(a, b float64) bool { return a-b < 1e-12 && b-a < 1e-12 }

func TestCampaignOverhead(t *testing.T) {
	one := []campaign.Result{{Wall: 4}, {Wall: 5}}
	if got := campaignOverheadMS(1, 10, one); !near(got, 500) {
		t.Errorf("1 lane: overhead %v ms, want 500", got)
	}
	// Two lanes busy 18 of their 2×10 lane-seconds over 4 trials.
	two := []campaign.Result{{Wall: 4}, {Wall: 5}, {Wall: 4}, {Wall: 5}}
	if got := campaignOverheadMS(2, 10, two); !near(got, 500) {
		t.Errorf("2 lanes: overhead %v ms, want 500", got)
	}
}

func TestDigestVerification(t *testing.T) {
	r := campaign.Result{TrialID: 1, Key: "k", Metrics: map[string]float64{"acc": 0.5, "raw": 0.1}}
	d, err := digest(r)
	if err != nil {
		t.Fatal(err)
	}
	pinned := []string{"0000000000000000", d}
	if err := verifyDigest(r, pinned); err != nil {
		t.Fatalf("unperturbed result rejected: %v", err)
	}
	timed := r
	timed.Wall = 3.5
	if err := verifyDigest(timed, pinned); err != nil {
		t.Errorf("wall-clock changed the digest: %v", err)
	}
	perturbed := campaign.Result{TrialID: 1, Key: "k", Metrics: map[string]float64{"acc": 0.5 + 1e-12, "raw": 0.1}}
	if err := verifyDigest(perturbed, pinned); err == nil {
		t.Error("perturbed result accepted")
	}
	beyond := r
	beyond.TrialID = 2
	if err := verifyDigest(beyond, pinned); err == nil {
		t.Error("trial without a pinned digest accepted")
	}
	g := gate(workloads[0], pinned, 0.9, []campaign.Result{perturbed}, nil)
	if g.passed != 0 || g.passedFrac() != 0 || len(g.problems) == 0 {
		t.Errorf("gate passed a perturbed trial: %+v", g)
	}
}

func TestGateScoresFixedTrials(t *testing.T) {
	res := func(id int, acc float64) campaign.Result {
		return campaign.Result{TrialID: id, Metrics: map[string]float64{"raw": 0.1, "acc": acc, "mac": 100}}
	}
	// Timed trial 0, untimed scored trial 1, and a timed trial beyond the
	// scored set that must not move the means.
	g := gate(workloads[0], nil, 0.9, []campaign.Result{res(0, 0.5), res(scoredTrials, 0.9)}, []campaign.Result{res(1, 0.7)})
	if !near(g.acc, 0.6) || !near(g.raw, 0.1) || !near(g.mac, 100) {
		t.Errorf("means over the scored trials: acc %v raw %v mac %v, want 0.6 0.1 100", g.acc, g.raw, g.mac)
	}
	if g.attempted != 3 || g.passed != 3 || g.timedPassed != 2 || len(g.problems) != 0 {
		t.Errorf("gate %+v: want 3 attempted and passed, 2 of them timed, no problems", g)
	}
}

// TestSmokeEveryMetric runs every workload at a tiny size, untraced and
// traced, and checks that the printed report names every metric of
// BENCHMARK.json with its unit, and that both list the same workloads.
func TestSmokeEveryMetric(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type spec struct{ Name, Unit, Why string }
	var bench struct {
		Workloads []spec `json:"workloads"`
		EndToEnd  []spec `json:"end_to_end"`
		PerLayer  []spec `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bench); err != nil {
		t.Fatal(err)
	}
	if len(bench.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the program %d", len(bench.Workloads), len(workloads))
	}
	for _, bw := range bench.Workloads {
		if w, err := workloadByName(bw.Name); err != nil || w.Why != bw.Why {
			t.Errorf("workload %s: BENCHMARK.json why %q, program %q (%v)", bw.Name, bw.Why, w.Why, err)
		}
	}
	tiny := sizes{Train: 16, Test: 8, BaseEpochs: 1, Shrink: true}
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			cfg := runConfig{w: w, sz: tiny, seed: 5, seconds: 0.4, trace: trace, tmpRoot: t.TempDir()}
			rep, env, err := run(cfg)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.Name, trace, err)
			}
			var out bytes.Buffer
			printReport(&out, env, rep)
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var last report
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
				t.Fatalf("%s: last line is not the result JSON: %v", w.Name, err)
			}
			want := bench.EndToEnd
			if trace {
				want = bench.PerLayer
			}
			if len(last.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, BENCHMARK.json lists %d", w.Name, trace, len(last.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := last.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s trace=%v: metric %s = %+v, want unit %s", w.Name, trace, m.Name, got, m.Unit)
				}
				if !strings.Contains(out.String(), m.Name+" ") {
					t.Errorf("%s trace=%v: metric %s not printed by name", w.Name, trace, m.Name)
				}
			}
			if env.Trials+env.ExtraTrials < scoredTrials {
				t.Errorf("%s trace=%v: %d timed and %d extra trials, want at least the %d scored", w.Name, trace, env.Trials, env.ExtraTrials, scoredTrials)
			}
			if last.Attempted < 1 || !strings.HasPrefix(lines[0], "env {") {
				t.Errorf("%s trace=%v: attempted %d, first line %q", w.Name, trace, last.Attempted, lines[0])
			}
		}
	}
}
