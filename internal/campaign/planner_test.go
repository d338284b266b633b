package campaign

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"falvolt/internal/tensor"
)

// plannerTrials enumerates n trials whose keys repeat every 4 IDs, like
// the synthetic campaign.
func plannerTrials(n int) []Trial {
	trials := make([]Trial, n)
	for i := range trials {
		trials[i] = Trial{ID: i, Key: fmt.Sprintf("point%02d", i/4), Seed: int64(i)}
	}
	return trials
}

// syntheticTiming builds a deterministic, wildly skewed cost model:
// each key's mean grows superlinearly with its index, so balanced and
// uniform plans genuinely differ.
func syntheticTiming(trials []Trial, seed int64) []KeyTiming {
	rng := rand.New(rand.NewSource(seed))
	results := make([]Result, len(trials))
	for i, t := range trials {
		keyIdx := t.ID / 4
		results[i] = Result{
			TrialID: t.ID, Key: t.Key,
			Wall: float64(1+keyIdx*keyIdx) * (0.5 + rng.Float64()),
		}
	}
	return TimingByKey(results)
}

// assertPartition fails unless shards exactly partition trials: every
// trial in exactly one non-empty shard, membership sorted by ID, labels
// unique.
func assertPartition(t *testing.T, shards []PlannedShard, trials []Trial) {
	t.Helper()
	seen := make(map[int]string)
	labels := make(map[string]bool)
	for _, sh := range shards {
		if len(sh.Trials) == 0 {
			t.Fatalf("shard %s is empty", sh.Label)
		}
		if labels[sh.Label] {
			t.Fatalf("duplicate shard label %s", sh.Label)
		}
		labels[sh.Label] = true
		for i, tr := range sh.Trials {
			if i > 0 && sh.Trials[i-1].ID >= tr.ID {
				t.Fatalf("shard %s membership not sorted by ID", sh.Label)
			}
			if prev, dup := seen[tr.ID]; dup {
				t.Fatalf("trial %d in both shard %s and %s", tr.ID, prev, sh.Label)
			}
			seen[tr.ID] = sh.Label
		}
	}
	if len(seen) != len(trials) {
		t.Fatalf("shards cover %d trials, want %d", len(seen), len(trials))
	}
	for _, tr := range trials {
		if _, ok := seen[tr.ID]; !ok {
			t.Fatalf("trial %d missing from every shard", tr.ID)
		}
	}
}

// TestUniformPlannerMatchesShardOf: the default planner reproduces the
// historical Shard.Of split exactly — labels and membership.
func TestUniformPlannerMatchesShardOf(t *testing.T) {
	trials := plannerTrials(23)
	shards, err := (UniformPlanner{}).Plan(trials, 5)
	if err != nil {
		t.Fatal(err)
	}
	assertPartition(t, shards, trials)
	if len(shards) != 5 {
		t.Fatalf("got %d shards, want 5", len(shards))
	}
	for i, sh := range shards {
		want := Shard{Index: i, Count: 5}
		if sh.Label != want.String() {
			t.Fatalf("shard %d label %s, want %s", i, sh.Label, want)
		}
		if !reflect.DeepEqual(sh.Trials, want.Of(trials)) {
			t.Fatalf("shard %s membership differs from Shard.Of", sh.Label)
		}
	}
}

// TestBalancedPlannerProperties: for a spread of trial counts and shard
// counts, balanced shards (a) exactly partition the trial set, (b) are
// deterministic for a fixed timing input, and (c) equalize predicted
// load to within one trial's cost (the LPT bound).
func TestBalancedPlannerProperties(t *testing.T) {
	for _, n := range []int{1, 4, 23, 64, 97} {
		for _, shards := range []int{1, 2, 5, 8, 200} {
			trials := plannerTrials(n)
			timing := syntheticTiming(trials, 42)
			p := BalancedPlanner{Timing: timing}
			plan, err := p.Plan(trials, shards)
			if err != nil {
				t.Fatal(err)
			}
			assertPartition(t, plan, trials)
			again, err := p.Plan(trials, shards)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(plan, again) {
				t.Fatalf("n=%d shards=%d: plan is not deterministic", n, shards)
			}
			if len(plan) < 2 {
				continue
			}
			var minLoad, maxLoad, maxCost float64
			minLoad = plan[0].PredictedSeconds
			for _, sh := range plan {
				if sh.PredictedSeconds < minLoad {
					minLoad = sh.PredictedSeconds
				}
				if sh.PredictedSeconds > maxLoad {
					maxLoad = sh.PredictedSeconds
				}
			}
			for _, kt := range timing {
				if kt.Mean() > maxCost {
					maxCost = kt.Mean()
				}
			}
			if maxLoad-minLoad > maxCost+1e-9 {
				t.Fatalf("n=%d shards=%d: load spread %.3f exceeds the heaviest trial %.3f",
					n, shards, maxLoad-minLoad, maxCost)
			}
		}
	}
}

// TestBalancedPlannerNoTiming: with an empty cost model every trial
// costs the same, so the plan degenerates to count-balancing but still
// partitions exactly.
func TestBalancedPlannerNoTiming(t *testing.T) {
	trials := plannerTrials(17)
	plan, err := BalancedPlanner{}.Plan(trials, 4)
	if err != nil {
		t.Fatal(err)
	}
	assertPartition(t, plan, trials)
	for _, sh := range plan {
		if len(sh.Trials) < 4 || len(sh.Trials) > 5 {
			t.Fatalf("count-degenerate plan gave shard %s %d trials", sh.Label, len(sh.Trials))
		}
	}
}

// runPlannedShards executes every shard of a plan independently (as
// distributed workers would) and merges the partials.
func runPlannedShards(t *testing.T, c Campaign, plan []PlannedShard) []Result {
	t.Helper()
	var sets [][]Result
	for _, sh := range plan {
		var rs []Result
		err := PoolRunner{Engine: tensor.Serial()}.Run(nil, c, sh.Trials, func(r Result) error {
			rs = append(rs, r)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		sets = append(sets, rs)
	}
	merged, err := Merge(sets...)
	if err != nil {
		t.Fatal(err)
	}
	return merged
}

// TestBalancedMergesByteIdenticalToUniform is the planner acceptance
// gate: the same campaign run as balanced shards and as uniform shards
// merges to byte-identical canonical result JSON.
func TestBalancedMergesByteIdenticalToUniform(t *testing.T) {
	c := Synthetic(37, 5)
	trials, err := c.Trials()
	if err != nil {
		t.Fatal(err)
	}
	timing := syntheticTiming(trials, 7)
	uniform, err := UniformPlanner{}.Plan(trials, 6)
	if err != nil {
		t.Fatal(err)
	}
	balanced, err := BalancedPlanner{Timing: timing}.Plan(trials, 6)
	if err != nil {
		t.Fatal(err)
	}
	// The plans must actually differ for the equivalence to mean much.
	if reflect.DeepEqual(uniform, balanced) {
		t.Fatal("balanced plan degenerated to the uniform plan despite skewed timing")
	}
	a, err := MarshalResults(runPlannedShards(t, c, uniform))
	if err != nil {
		t.Fatal(err)
	}
	b, err := MarshalResults(runPlannedShards(t, c, balanced))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatal("balanced and uniform plans merged to different bytes")
	}
}

// TestPlannerByName covers the name forms: uniform defaults, a balance
// source loaded from a timing-bearing checkpoint, and the rejections
// (bad name, source without recorded durations).
func TestPlannerByName(t *testing.T) {
	for _, name := range []string{"", "uniform"} {
		p, err := PlannerByName(name)
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := p.(UniformPlanner); !ok {
			t.Fatalf("PlannerByName(%q) = %T, want UniformPlanner", name, p)
		}
	}
	if _, err := PlannerByName("fastest"); err == nil || !strings.Contains(err.Error(), "unknown planner") {
		t.Fatalf("bad planner name accepted: %v", err)
	}
	if err := ValidatePlannerName("balance:"); err == nil {
		t.Fatal("balance with empty source validated")
	}

	// A checkpoint with recorded walls is a valid balance source (the
	// 1ms delay guarantees every trial records a nonzero wall-clock)...
	dir := t.TempDir()
	withTiming := filepath.Join(dir, "timed.jsonl")
	rr, err := Run(SyntheticWithDelay(8, 1, 1), Options{Checkpoint: withTiming, Runner: PoolRunner{Engine: tensor.Serial()}})
	if err != nil || !rr.Complete {
		t.Fatalf("run: %v (complete=%v)", err, rr != nil && rr.Complete)
	}
	p, err := PlannerByName("balance:" + withTiming)
	if err != nil {
		t.Fatal(err)
	}
	bp, ok := p.(BalancedPlanner)
	if !ok || len(bp.Timing) == 0 {
		t.Fatalf("balance source produced %T with %d timings", p, len(bp.Timing))
	}

	// ...a checkpoint without walls is refused.
	bare := filepath.Join(dir, "bare.jsonl")
	ck, err := CreateCheckpoint(bare, Header{Version: 1, Campaign: "x", Trials: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := ck.Append(Result{TrialID: 0, Key: "k"}); err != nil {
		t.Fatal(err)
	}
	ck.Close()
	if _, err := PlannerByName("balance:" + bare); err == nil || !strings.Contains(err.Error(), "no recorded durations") {
		t.Fatalf("timing-free source accepted: %v", err)
	}
}

// TestTimingFromStateDir: a service state directory is a balance source
// — the timing of every run journaled under runs/ is pooled — and a
// directory with no run journals is refused.
func TestTimingFromStateDir(t *testing.T) {
	state := t.TempDir()
	for _, run := range []string{"r1-deadbeef", "r2-deadbeef"} {
		dir := filepath.Join(state, "runs", run)
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		writeFixtureWAL(t, WALPath(dir))
	}
	timing, err := TimingFromFile(state)
	if err != nil {
		t.Fatal(err)
	}
	if len(timing) != 1 || timing[0].Key != "k" || timing[0].Count != 8 {
		t.Fatalf("pooled timing = %+v, want key k over both runs' 4 results each", timing)
	}
	if _, err := TimingFromFile(t.TempDir()); err == nil || !strings.Contains(err.Error(), "no run journals") {
		t.Fatalf("empty state dir accepted as a timing source: %v", err)
	}
}
