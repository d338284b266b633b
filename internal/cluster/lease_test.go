package cluster

import (
	"testing"
	"time"
)

// TestLeaseTable exercises grant/renew/expiry/sweep on a fake clock.
func TestLeaseTable(t *testing.T) {
	now := time.Unix(0, 0)
	tab := NewLeaseTable[int](10*time.Second, func() time.Time { return now })

	l := tab.Grant("w1", 0)
	if tab.Holder(0) != l {
		t.Fatal("holder should return the granted lease")
	}
	if tab.byID[l.ID] != l {
		t.Fatal("the lease should be indexed by its ID")
	}
	now = now.Add(9 * time.Second)
	if !tab.Renew(l.ID) {
		t.Fatal("renew before the deadline should succeed")
	}
	now = now.Add(9 * time.Second) // 18s total, but renewed at 9s -> deadline 19s
	if !tab.Renew(l.ID) {
		t.Fatal("renew after an earlier renewal should succeed")
	}
	now = now.Add(11 * time.Second)
	if tab.Renew(l.ID) {
		t.Fatal("renew past the deadline must fail")
	}
	freed := tab.Sweep()
	if len(freed) != 1 || freed[0].Key != 0 || freed[0].ID != l.ID {
		t.Fatalf("sweep freed %v, want lease %s on shard 0", freed, l.ID)
	}
	if tab.Holder(0) != nil {
		t.Fatal("swept shard should have no holder")
	}
	l2 := tab.Grant("w2", 0)
	if l2.ID == l.ID {
		t.Fatal("regrant must mint a fresh lease ID")
	}
	if tab.Renew(l.ID) {
		t.Fatal("the old lease ID must stay dead after regrant")
	}

	tab.Release(l2.ID)
	if tab.Holder(0) != nil || tab.Renew(l2.ID) {
		t.Fatal("released lease should be gone")
	}
}

// TestLeaseTableTwoRunsInFlight exercises the multi-run keyspace a
// campaign service schedules over: two runs' shards leased from ONE
// table, one worker dying while holding leases in both runs. Expiry
// must free exactly the dead worker's keys — in both runs — while the
// surviving worker's leases (including one on the same shard index of
// the other run) stay live, and the freed shards regrant cleanly.
func TestLeaseTableTwoRunsInFlight(t *testing.T) {
	type runShard struct {
		Run   string
		Shard int
	}
	now := time.Unix(0, 0)
	tab := NewLeaseTable[runShard](10*time.Second, func() time.Time { return now })

	// Worker w1 holds shard 0 of both runs; w2 holds shard 1 of run A.
	a0 := tab.Grant("w1", runShard{"rA", 0})
	b0 := tab.Grant("w1", runShard{"rB", 0})
	a1 := tab.Grant("w2", runShard{"rA", 1})
	if got := tab.Held("w1"); got != 2 {
		t.Fatalf("Held(w1) = %d, want 2", got)
	}
	if a0.ID == b0.ID {
		t.Fatal("the same shard index of two runs must mint distinct lease IDs")
	}

	// Only w2 heartbeats; w1 dies. Both of w1's leases — across both
	// runs — expire on one sweep; w2's lease survives.
	now = now.Add(8 * time.Second)
	if !tab.Renew(a1.ID) {
		t.Fatal("w2's renew should succeed")
	}
	now = now.Add(4 * time.Second) // w1's deadlines (10s) passed; w2's (18s) not
	freed := tab.Sweep()
	if len(freed) != 2 {
		t.Fatalf("sweep freed %d leases, want w1's 2 (one per run)", len(freed))
	}
	freedRuns := map[string]bool{}
	for _, l := range freed {
		if l.Worker != "w1" {
			t.Fatalf("sweep freed %s held by %s, want only w1's leases", l.ID, l.Worker)
		}
		freedRuns[l.Key.Run] = true
	}
	if !freedRuns["rA"] || !freedRuns["rB"] {
		t.Fatalf("expiry must free the dead worker's shards in BOTH runs, got %v", freedRuns)
	}
	if tab.Holder(runShard{"rA", 1}) != a1 {
		t.Fatal("the surviving worker's lease must not be swept")
	}

	// Both freed shards are independently regrantable to the survivor.
	ra := tab.Grant("w2", runShard{"rA", 0})
	rb := tab.Grant("w2", runShard{"rB", 0})
	if ra.ID == a0.ID || rb.ID == b0.ID {
		t.Fatal("regrants must mint fresh lease IDs")
	}
	if tab.Renew(a0.ID) || tab.Renew(b0.ID) {
		t.Fatal("the dead worker's lease IDs must stay dead in both runs")
	}
	if got := tab.Held("w2"); got != 3 {
		t.Fatalf("Held(w2) = %d, want 3", got)
	}
}
