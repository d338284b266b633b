package service

import (
	"fmt"
	"testing"
	"time"

	"falvolt/internal/campaign"
	"falvolt/internal/cluster"
)

// newTestScheduler builds a Service with just enough state to exercise
// pickLocked directly (no HTTP, no disk).
func newTestScheduler() *Service {
	s := New(Config{Token: "t", StateDir: "unused", LeaseTTL: time.Minute})
	s.leases = cluster.NewLeaseTable[runShard](time.Minute, time.Now)
	return s
}

// addRun installs a synthetic running run whose shards hold the given
// pending-trial counts.
func addRun(s *Service, id string, shardTrials ...int) *run {
	r := &run{id: id, state: RunRunning, recorded: map[int][]byte{}}
	next := 0
	for _, n := range shardTrials {
		st := &shardState{
			label:     fmt.Sprintf("%s/%d", id, len(r.shards)),
			remaining: map[int]campaign.Trial{},
		}
		for i := 0; i < n; i++ {
			st.trials = append(st.trials, campaign.Trial{ID: next})
			st.remaining[next] = campaign.Trial{ID: next}
			next++
		}
		r.shards = append(r.shards, st)
		r.remaining += n
	}
	s.runs[id] = r
	s.order = append(s.order, id)
	return r
}

// grantNext picks and leases one shard, returning the chosen run's ID
// ("" when nothing is schedulable).
func grantNext(s *Service) string {
	r, idx := s.pickLocked()
	if r == nil {
		return ""
	}
	s.leases.Grant("w", runShard{r.id, idx})
	return r.id
}

// TestPickDeficitFairShare: deficit round robin balances granted WORK (pending-trial cost), not grant count — a
// run with big shards cedes several turns to a run with small ones.
func TestPickDeficitFairShare(t *testing.T) {
	s := newTestScheduler()
	addRun(s, "big", 10, 10, 10, 10)
	addRun(s, "small", 2, 2, 2, 2)

	// First grant ties on deficit and goes to the earlier submission
	// ("big", cost 10); "small" then wins repeatedly until its credit is
	// spent, after which only "big" remains schedulable.
	want := []string{"big", "small", "small", "small", "small", "big", "big", "big", ""}
	for i, w := range want {
		if got := grantNext(s); got != w {
			t.Fatalf("grant %d went to %q, want %q", i, got, w)
		}
	}
}

// TestPickSkipsLeasedAndTerminal: held shards and non-running runs are
// never schedulable.
func TestPickSkipsLeasedAndTerminal(t *testing.T) {
	s := newTestScheduler()
	r := addRun(s, "only", 3, 3)
	dead := addRun(s, "dead", 3)
	dead.state = RunFailed

	if got := grantNext(s); got != "only" {
		t.Fatalf("first grant went to %q, want the running run", got)
	}
	if got := grantNext(s); got != "only" {
		t.Fatalf("second grant went to %q, want the running run's other shard", got)
	}
	if got := grantNext(s); got != "" {
		t.Fatalf("third grant went to %q, want none (all shards leased)", got)
	}
	// Releasing a lease reopens the shard.
	l := s.leases.Holder(runShard{r.id, 0})
	if l == nil {
		t.Fatal("shard 0 should be held")
	}
	s.leases.Release(l.ID)
	if got := grantNext(s); got != "only" {
		t.Fatalf("post-release grant went to %q, want the reopened shard", got)
	}
}
