package campaign

import (
	"fmt"
	"reflect"
	"testing"
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

// TestUniformPlannerMatchesShardOf: the shard plan reproduces the
// Shard.Of split exactly — labels and membership — and drops the shards
// a pending subset leaves empty.
func TestUniformPlannerMatchesShardOf(t *testing.T) {
	trials := plannerTrials(23)
	shards := PlanShards(trials, 5)
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

	// A pending subset of even IDs leaves shard 1/2 empty; it is
	// dropped, and n beyond the trial count clamps to it.
	var even []Trial
	for _, tr := range trials {
		if tr.ID%2 == 0 {
			even = append(even, tr)
		}
	}
	if got := PlanShards(even, 2); len(got) != 1 || got[0].Label != "0/2" || len(got[0].Trials) != len(even) {
		t.Fatalf("even-ID subset over 2 shards = %+v, want only 0/2 with every trial", got)
	}
	if got := PlanShards(trials[:3], 8); len(got) != 3 || got[2].Label != "2/3" {
		t.Fatalf("8 shards over 3 trials = %d shards, want 3 labelled i/3", len(got))
	}
}
