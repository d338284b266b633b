package service

import (
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// waitTerminalCount polls the catalog until exactly want runs remain,
// all terminal.
func waitTerminalCount(t *testing.T, cl *Client, want int) []RunSummary {
	t.Helper()
	deadline := time.Now().Add(20 * time.Second)
	for {
		lst, err := cl.List()
		if err == nil && len(lst.Runs) == want {
			allTerm := true
			for _, r := range lst.Runs {
				if r.State == RunRunning {
					allTerm = false
					break
				}
			}
			if allTerm {
				return lst.Runs
			}
		}
		if time.Now().After(deadline) {
			if err != nil {
				t.Fatal(err)
			}
			t.Fatalf("catalog settled at %d runs, want %d: %+v", len(lst.Runs), want, lst.Runs)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

func runDirCount(t *testing.T, state string) int {
	t.Helper()
	entries, err := os.ReadDir(filepath.Join(state, runsDirName))
	if err != nil {
		if os.IsNotExist(err) {
			return 0
		}
		t.Fatal(err)
	}
	n := 0
	for _, e := range entries {
		if e.IsDir() {
			n++
		}
	}
	return n
}

// TestRetentionPrunesTerminalRuns: with -retain 1, completing three runs
// leaves exactly the newest in the catalog and on disk, and its results
// stay fetchable.
func TestRetentionPrunesTerminalRuns(t *testing.T) {
	state := t.TempDir()
	svc, stop := startService(t, Config{
		StateDir: state, Shards: 2, LeaseTTL: 10 * time.Second, Retain: 1,
	})
	defer stop()
	cl := NewClient(svc.URL(), testToken)

	var subs []string
	for _, name := range []string{"keep-a", "keep-b", "keep-c"} {
		sub, err := cl.Submit(selftestSpec(6, 1, name))
		if err != nil {
			t.Fatal(err)
		}
		subs = append(subs, sub.RunID)
	}
	var executed atomic.Int64
	startWorker(t, svc.URL(), "prune-w", t.TempDir(), &executed)
	for _, id := range subs {
		if _, err := cl.Watch(id); err != nil {
			// The run may have been pruned between finishing and our watch;
			// a not-found error is acceptable here.
			if !strings.Contains(err.Error(), "404") && !strings.Contains(err.Error(), "unknown run") {
				t.Fatal(err)
			}
		}
	}

	runs := waitTerminalCount(t, cl, 1)
	// The survivor is the newest submission still terminal: seq order is
	// submission order, so keep-c outlives keep-a/keep-b.
	if runs[0].Name != "keep-c" {
		t.Fatalf("survivor is %q, want keep-c (newest submission)", runs[0].Name)
	}
	if runs[0].State != RunDone {
		t.Fatalf("survivor state = %s", runs[0].State)
	}
	if n := runDirCount(t, state); n != 1 {
		t.Fatalf("%d run dirs on disk, want 1", n)
	}
	// Results of the survivor remain fetchable; pruned runs 404.
	if _, err := cl.Results(runs[0].ID); err != nil {
		t.Fatalf("survivor results: %v", err)
	}
	if _, err := cl.Results(subs[0]); err == nil {
		t.Fatal("pruned run's results should be gone")
	}
}

// TestRetentionEnforcedOnRestart: a service restarted with a tighter
// retention cap prunes the recovered catalog down to the cap before
// serving.
func TestRetentionEnforcedOnRestart(t *testing.T) {
	state := t.TempDir()
	svc1, stop1 := startService(t, Config{
		StateDir: state, Shards: 2, LeaseTTL: 10 * time.Second,
	})
	cl1 := NewClient(svc1.URL(), testToken)
	for _, name := range []string{"old-a", "old-b", "old-c"} {
		sub, err := cl1.Submit(selftestSpec(4, 1, name))
		if err != nil {
			t.Fatal(err)
		}
		var executed atomic.Int64
		startWorker(t, svc1.URL(), "rr-"+name, t.TempDir(), &executed)
		if _, err := cl1.Watch(sub.RunID); err != nil {
			t.Fatal(err)
		}
	}
	if got := runDirCount(t, state); got != 3 {
		t.Fatalf("%d run dirs before restart, want 3 (no cap)", got)
	}
	stop1()

	svc2, stop2 := startService(t, Config{
		StateDir: state, Shards: 2, LeaseTTL: 10 * time.Second, Retain: 2,
	})
	defer stop2()
	cl2 := NewClient(svc2.URL(), testToken)
	runs := waitTerminalCount(t, cl2, 2)
	names := []string{runs[0].Name, runs[1].Name}
	for _, n := range names {
		if n == "old-a" {
			t.Fatalf("oldest run survived restart prune: %v", names)
		}
	}
	if got := runDirCount(t, state); got != 2 {
		t.Fatalf("%d run dirs after restart, want 2", got)
	}
}
