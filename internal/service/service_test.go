package service

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"falvolt/internal/campaign"
	"falvolt/internal/cluster"
	"falvolt/internal/spec"
)

const testToken = "test-token-1"

// startService runs a service in the background and waits for it to
// listen. The returned stop function cancels it and waits for exit.
func startService(t *testing.T, cfg Config) (*Service, func()) {
	t.Helper()
	if cfg.Addr == "" {
		cfg.Addr = "127.0.0.1:0"
	}
	if cfg.Token == "" {
		cfg.Token = testToken
	}
	s := New(cfg)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- s.Run(ctx) }()
	select {
	case <-s.Ready():
	case err := <-done:
		cancel()
		t.Fatalf("service died before listening: %v", err)
	case <-time.After(10 * time.Second):
		cancel()
		t.Fatal("service never listened")
	}
	return s, func() {
		cancel()
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			t.Fatal("service did not shut down")
		}
	}
}

// countingRunner counts completed trial executions (sink deliveries
// attempted), so tests can assert no completed trial ever re-ran.
type countingRunner struct {
	n     *atomic.Int64
	inner campaign.Runner
}

func (c countingRunner) Run(ctx context.Context, camp campaign.Campaign, trials []campaign.Trial, sink func(campaign.Result) error) error {
	return c.inner.Run(ctx, camp, trials, func(r campaign.Result) error {
		c.n.Add(1)
		return sink(r)
	})
}

// startWorker runs a service-mode worker in the background, returning a
// channel carrying its exit error.
func startWorker(t *testing.T, url, name, ckptDir string, n *atomic.Int64) chan error {
	t.Helper()
	w := cluster.NewWorker(cluster.WorkerConfig{
		Coordinator:   url,
		Token:         testToken,
		Name:          name,
		Runner:        countingRunner{n: n, inner: campaign.PoolRunner{}},
		CheckpointDir: ckptDir,
		Poll:          10 * time.Millisecond,
		Retries:       300,
	})
	done := make(chan error, 1)
	go func() { done <- w.Run(context.Background()) }()
	return done
}

func selftestSpec(trials, delayMS int, name string) []byte {
	return []byte(fmt.Sprintf(
		`{"version": 1, "kind": "selftest", "seed": 7, "name": %q, "selftest": {"trials": %d, "delayMillis": %d}}`,
		name, trials, delayMS))
}

// singleProcessResults runs a spec in-process — the byte-identity
// reference for service runs.
func singleProcessResults(t *testing.T, specJSON []byte) (campaign.Header, []campaign.Result) {
	t.Helper()
	sp, err := spec.Decode(specJSON)
	if err != nil {
		t.Fatal(err)
	}
	built, err := spec.Build(sp, spec.BuildOpts{})
	if err != nil {
		t.Fatal(err)
	}
	rr, err := campaign.Run(built.Campaign, campaign.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return rr.Header, rr.Results
}

// fetchResults pulls a completed run's checkpoint and parses it.
func fetchResults(t *testing.T, cl *Client, id string) (campaign.Header, []campaign.Result) {
	t.Helper()
	data, err := cl.Results(id)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "fetched.jsonl")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	hdr, results, err := campaign.ReadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	return hdr, results
}

// assertIdentical asserts a service run's fetched results match the
// single-process reference byte-for-byte (canonical result JSON; wall
// clock is execution-local and excluded).
func assertIdentical(t *testing.T, specJSON []byte, cl *Client, runID string) {
	t.Helper()
	refHdr, refResults := singleProcessResults(t, specJSON)
	gotHdr, gotResults := fetchResults(t, cl, runID)
	if !gotHdr.Compatible(refHdr) {
		t.Fatalf("fetched header %+v is not merge-compatible with single-process header %+v", gotHdr, refHdr)
	}
	ref, err := campaign.MarshalResults(refResults)
	if err != nil {
		t.Fatal(err)
	}
	got, err := campaign.MarshalResults(gotResults)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ref, got) {
		t.Fatalf("run %s results differ from single-process execution (%d vs %d results)",
			runID, len(gotResults), len(refResults))
	}
}

// TestTwoRunsSharedFleet is the tentpole's core promise: two specs
// submitted concurrently complete over one shared 2-worker fleet, each
// byte-identical to a single-process run, with every trial executed
// exactly once.
func TestTwoRunsSharedFleet(t *testing.T) {
	svc, stop := startService(t, Config{StateDir: t.TempDir(), Shards: 4, LeaseTTL: 10 * time.Second})
	defer stop()
	cl := NewClient(svc.URL(), testToken)

	specA := selftestSpec(24, 1, "run-a")
	specB := selftestSpec(16, 1, "run-b")
	subA, err := cl.Submit(specA)
	if err != nil {
		t.Fatal(err)
	}
	subB, err := cl.Submit(specB)
	if err != nil {
		t.Fatal(err)
	}
	if subA.RunID == subB.RunID {
		t.Fatal("distinct submissions must get distinct run IDs")
	}

	var executed atomic.Int64
	w1 := startWorker(t, svc.URL(), "tw1", t.TempDir(), &executed)
	w2 := startWorker(t, svc.URL(), "tw2", t.TempDir(), &executed)

	sumA, err := cl.Watch(subA.RunID)
	if err != nil {
		t.Fatal(err)
	}
	sumB, err := cl.Watch(subB.RunID)
	if err != nil {
		t.Fatal(err)
	}
	if sumA.State != RunDone || sumB.State != RunDone {
		t.Fatalf("runs finished as %s / %s, want done / done", sumA.State, sumB.State)
	}
	if sumA.Name != "run-a" || sumB.Name != "run-b" {
		t.Fatalf("catalog names %q / %q, want run-a / run-b", sumA.Name, sumB.Name)
	}

	assertIdentical(t, specA, cl, subA.RunID)
	assertIdentical(t, specB, cl, subB.RunID)

	if got := executed.Load(); got != 24+16 {
		t.Fatalf("fleet executed %d trials, want exactly %d (no reruns)", got, 24+16)
	}

	// Drain both workers: each must exit cleanly instead of polling
	// forever against a long-lived service.
	for _, name := range []string{"tw1", "tw2"} {
		if _, err := cl.Drain(name); err != nil {
			t.Fatalf("drain %s: %v", name, err)
		}
	}
	for i, done := range []chan error{w1, w2} {
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("worker %d exited with %v, want nil after drain", i+1, err)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("worker %d did not exit after drain", i+1)
		}
	}
}

// TestRestartRecovery kills the service mid-flight (two runs in
// progress) and restarts it on the same state dir: both runs must
// finish with no completed trial ever re-executed — the service replays
// its per-run WALs and the worker's local checkpoints cover the window
// between execution and a successful push. One worker keeps the
// no-rerun assertion exact: with several workers, a shard reassigned
// across the restart may land on a worker that lacks the original
// holder's local checkpoint, legitimately re-running the handful of
// trials that completed during the outage but were never recorded.
func TestRestartRecovery(t *testing.T) {
	state := t.TempDir()
	svc1, stop1 := startService(t, Config{StateDir: state, Shards: 4, LeaseTTL: 10 * time.Second})
	cl1 := NewClient(svc1.URL(), testToken)

	specA := selftestSpec(20, 20, "ra")
	specB := selftestSpec(12, 20, "rb")
	subA, err := cl1.Submit(specA)
	if err != nil {
		t.Fatal(err)
	}
	subB, err := cl1.Submit(specB)
	if err != nil {
		t.Fatal(err)
	}

	var executed atomic.Int64
	w1 := startWorker(t, svc1.URL(), "rw1", t.TempDir(), &executed)

	// Let some trials land, then kill the service (ctx cancel releases
	// the flock exactly as process death would).
	deadline := time.Now().Add(10 * time.Second)
	for {
		st, err := cl1.Status()
		if err == nil {
			done := 0
			for _, r := range st.Runs {
				done += r.Done
			}
			if done >= 4 {
				break
			}
		}
		if time.Now().After(deadline) {
			t.Fatal("no progress before the kill")
		}
		time.Sleep(10 * time.Millisecond)
	}
	stop1()

	// Restart on the same state dir AND the same address: the surviving
	// workers keep retrying the original URL and must re-register
	// against the new incarnation (their stale IDs 403, they rejoin).
	addr := strings.TrimPrefix(svc1.URL(), "http://")
	svc2, stop2 := startService(t, Config{Addr: addr, StateDir: state, Shards: 4, LeaseTTL: 10 * time.Second})
	defer stop2()
	cl2 := NewClient(svc2.URL(), testToken)

	sumA, err := cl2.Watch(subA.RunID)
	if err != nil {
		t.Fatal(err)
	}
	sumB, err := cl2.Watch(subB.RunID)
	if err != nil {
		t.Fatal(err)
	}
	if sumA.State != RunDone || sumB.State != RunDone {
		t.Fatalf("after restart runs are %s / %s, want done / done", sumA.State, sumB.State)
	}
	if sumA.Recovered == 0 && sumB.Recovered == 0 {
		t.Fatal("restart recovered no journaled results; the WAL replay did nothing")
	}

	assertIdentical(t, specA, cl2, subA.RunID)
	assertIdentical(t, specB, cl2, subB.RunID)

	if got := executed.Load(); got != 20+12 {
		t.Fatalf("fleet executed %d trials across the restart, want exactly %d (no reruns)", got, 20+12)
	}

	if _, err := cl2.Drain("rw1"); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-w1:
		if err != nil {
			t.Fatalf("worker exited with %v, want nil after drain", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("worker did not exit after drain")
	}
}

// TestRestartKeepsTerminalDone: a run cancelled after some results
// landed keeps its result count across a restart. Terminal runs are
// listed from status.json without replaying anything, so the count must
// come from the Done that status.json recorded at the transition.
func TestRestartKeepsTerminalDone(t *testing.T) {
	state := t.TempDir()
	svc1, stop1 := startService(t, Config{StateDir: state, Shards: 4, LeaseTTL: time.Second})
	cl1 := NewClient(svc1.URL(), testToken)
	sub, err := cl1.Submit(selftestSpec(40, 20, "halted"))
	if err != nil {
		t.Fatal(err)
	}
	var executed atomic.Int64
	w := startWorker(t, svc1.URL(), "tw1", t.TempDir(), &executed)
	deadline := time.Now().Add(10 * time.Second)
	for {
		sum, err := cl1.Get(sub.RunID)
		if err == nil && sum.Done >= 3 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("no results landed before the cancel")
		}
		time.Sleep(10 * time.Millisecond)
	}
	before, err := cl1.Cancel(sub.RunID)
	if err != nil {
		t.Fatal(err)
	}
	if before.State != RunCancelled || before.Done == 0 || before.Done == before.Trials {
		t.Fatalf("cancelled run %+v, want cancelled part-way", before)
	}
	if _, err := cl1.Drain("tw1"); err != nil {
		t.Fatal(err)
	}
	select {
	case <-w:
	case <-time.After(10 * time.Second):
		t.Fatal("worker did not drain")
	}
	stop1()

	svc2, stop2 := startService(t, Config{StateDir: state, Shards: 4, LeaseTTL: time.Second})
	defer stop2()
	after, err := NewClient(svc2.URL(), testToken).Get(sub.RunID)
	if err != nil {
		t.Fatal(err)
	}
	if after.State != RunCancelled || after.Done != before.Done {
		t.Fatalf("after restart the run is %s with %d done, want %s with %d", after.State, after.Done, RunCancelled, before.Done)
	}
}

// TestAuth rejects every endpoint without the bearer token, and rejects
// workers carrying the wrong one at registration.
func TestAuth(t *testing.T) {
	svc, stop := startService(t, Config{StateDir: t.TempDir()})
	defer stop()

	// No token / wrong token on a catalog endpoint.
	for _, tok := range []string{"", "wrong"} {
		req, _ := http.NewRequest("GET", svc.URL()+"/v1/runs", nil)
		if tok != "" {
			req.Header.Set("Authorization", "Bearer "+tok)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusUnauthorized {
			t.Fatalf("token %q: HTTP %d, want 401", tok, resp.StatusCode)
		}
	}

	// A worker with the wrong token must fail fast, not retry forever.
	w := cluster.NewWorker(cluster.WorkerConfig{
		Coordinator: svc.URL(), Token: "wrong", Poll: 10 * time.Millisecond, Retries: 3,
	})
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := w.Run(ctx); err == nil || !strings.Contains(err.Error(), "bearer token") {
		t.Fatalf("worker with wrong token: err = %v, want bearer-token rejection", err)
	}

	// A service without a token must refuse to start.
	s := New(Config{Addr: "127.0.0.1:0", StateDir: t.TempDir()})
	if err := s.Run(context.Background()); err == nil || !strings.Contains(err.Error(), "token") {
		t.Fatalf("tokenless service: err = %v, want a token requirement", err)
	}
}

// TestCancel cancels an in-flight run; the fleet must survive and serve
// the next submission.
func TestCancel(t *testing.T) {
	svc, stop := startService(t, Config{StateDir: t.TempDir(), Shards: 2, LeaseTTL: time.Second})
	defer stop()
	cl := NewClient(svc.URL(), testToken)

	// Slow run: 200ms per trial gives cancel a wide window.
	sub, err := cl.Submit(selftestSpec(50, 200, "doomed"))
	if err != nil {
		t.Fatal(err)
	}
	var executed atomic.Int64
	w := startWorker(t, svc.URL(), "cw1", t.TempDir(), &executed)

	if _, err := cl.Cancel(sub.RunID); err != nil {
		t.Fatal(err)
	}
	sum, err := cl.Watch(sub.RunID)
	if err != nil {
		t.Fatal(err)
	}
	if sum.State != RunCancelled {
		t.Fatalf("cancelled run is %s, want %s", sum.State, RunCancelled)
	}
	if _, err := cl.Results(sub.RunID); err == nil {
		t.Fatal("fetching results of a cancelled run must fail")
	}

	// The worker lives on: a fresh run completes on the same fleet.
	sub2, err := cl.Submit(selftestSpec(6, 1, "after"))
	if err != nil {
		t.Fatal(err)
	}
	if sum, err := cl.Watch(sub2.RunID); err != nil || sum.State != RunDone {
		t.Fatalf("post-cancel run: %+v, %v; want done", sum, err)
	}
	if _, err := cl.Drain("cw1"); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-w:
		if err != nil {
			t.Fatalf("worker exited with %v after drain", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("worker did not drain")
	}
}

// TestBrokenSpecFailsOnlyItsRun: a spec that builds at admission but
// whose trials fail deterministically must fail ITS run; the worker and
// the rest of the catalog keep going.
func TestBrokenSpecFailsOnlyItsRun(t *testing.T) {
	build := func(sp *spec.Spec) (*spec.Built, error) {
		built, err := spec.Build(sp, spec.BuildOpts{})
		if err != nil {
			return nil, err
		}
		return built, nil
	}
	svc, stop := startService(t, Config{StateDir: t.TempDir(), Shards: 2, LeaseTTL: 10 * time.Second, Build: build})
	defer stop()
	cl := NewClient(svc.URL(), testToken)

	sub, err := cl.Submit(selftestSpec(8, 1, "ok"))
	if err != nil {
		t.Fatal(err)
	}

	// The worker's build rejects this fingerprint, simulating a spec
	// that builds on the service but not on the fleet (missing dataset,
	// bad cache): the worker must fail THAT run and keep serving.
	badSpec := selftestSpec(4, 1, "broken")
	badFP := fingerprintOf(t, badSpec)
	var executed atomic.Int64
	w := cluster.NewWorker(cluster.WorkerConfig{
		Coordinator: svc.URL(), Token: testToken, Name: "bw1",
		Runner: countingRunner{n: &executed, inner: campaign.PoolRunner{}},
		Build: func(sp *spec.Spec) (*spec.Built, error) {
			fp, _ := sp.Fingerprint()
			if fp == badFP {
				return nil, fmt.Errorf("synthetic build failure")
			}
			return spec.Build(sp, spec.BuildOpts{})
		},
		Poll: 10 * time.Millisecond, Retries: 300,
	})
	wdone := make(chan error, 1)
	go func() { wdone <- w.Run(context.Background()) }()

	subBad, err := cl.Submit(badSpec)
	if err != nil {
		t.Fatal(err)
	}
	if sum, err := cl.Watch(subBad.RunID); err != nil || sum.State != RunFailed {
		t.Fatalf("broken run: %+v, %v; want failed", sum, err)
	}
	if sum, err := cl.Watch(sub.RunID); err != nil || sum.State != RunDone {
		t.Fatalf("healthy run: %+v, %v; want done", sum, err)
	}
	if _, err := cl.Drain("bw1"); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-wdone:
		if err != nil {
			t.Fatalf("worker exited with %v; a broken run must not kill the fleet", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("worker did not drain")
	}
}

func fingerprintOf(t *testing.T, specJSON []byte) string {
	t.Helper()
	sp, err := spec.Decode(specJSON)
	if err != nil {
		t.Fatal(err)
	}
	fp, err := sp.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	return fp
}
