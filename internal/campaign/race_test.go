package campaign

import (
	"fmt"
	"path/filepath"
	"sync/atomic"
	"testing"

	"falvolt/internal/tensor"
)

// TestPoolRunnerConcurrencyStress exercises the PoolRunner's shared
// state under contention — lazy per-lane worker creation, serialized
// sink delivery, checkpoint appends — and is the campaign entry in the
// -race CI job. Each lane mutates private state without locks (the
// lane-sequential contract); the detector flags any violation.
func TestPoolRunnerConcurrencyStress(t *testing.T) {
	const n = 256
	trials := make([]Trial, n)
	for i := range trials {
		trials[i] = Trial{ID: i, Key: fmt.Sprintf("k%d", i%7), Seed: int64(i)}
	}
	var created atomic.Int32
	c := New("stress", trials, func(lane int) (Worker, error) {
		created.Add(1)
		private := 0 // per-lane state touched without locks
		return WorkerFunc(func(tr Trial) (Result, error) {
			private++
			return Result{
				TrialID: tr.ID,
				Key:     tr.Key,
				Metrics: map[string]float64{"v": float64(tr.Seed), "lanehits": float64(private)},
			}, nil
		}), nil
	})
	path := filepath.Join(t.TempDir(), "stress.jsonl")
	rr, err := Run(c, Options{
		Runner:     PoolRunner{Engine: tensor.NewParallel(8)},
		Checkpoint: path,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !rr.Complete || len(rr.Results) != n {
		t.Fatalf("completed %d/%d", len(rr.Results), n)
	}
	if got := created.Load(); got < 1 || got > 8 {
		t.Errorf("created %d workers for an 8-lane engine", got)
	}
	// The checkpoint must hold exactly the same n results.
	_, rs, err := ReadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	if !Complete(rs, n) {
		t.Fatalf("checkpoint incomplete: missing %v", Missing(rs, n))
	}
	for _, r := range rs {
		if r.Metrics["v"] != float64(r.TrialID) {
			t.Fatalf("trial %d carries wrong payload %v", r.TrialID, r.Metrics["v"])
		}
	}
}

// TestConcurrentIndependentRuns runs several campaigns at once in one
// process, each on its own parallel engine; every run must complete.
func TestConcurrentIndependentRuns(t *testing.T) {
	done := make(chan error, 4)
	for g := 0; g < 4; g++ {
		go func() {
			rr, err := Run(testCampaign(40, nil), Options{Runner: PoolRunner{Engine: tensor.NewParallel(4)}})
			if err == nil && !rr.Complete {
				err = fmt.Errorf("incomplete")
			}
			done <- err
		}()
	}
	for g := 0; g < 4; g++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}
