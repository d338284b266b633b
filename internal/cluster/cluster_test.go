// The distributed tests drive cluster.Worker against the one-run
// campaign service (service.OneRun) that `campaign serve` runs. They
// live in the external test package so they can import
// internal/service, which itself imports this package.
package cluster_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"falvolt/internal/campaign"
	"falvolt/internal/cluster"
	"falvolt/internal/service"
	"falvolt/internal/spec"
	"falvolt/internal/tensor"
)

// testToken is the bearer token every test service requires and every
// test worker presents.
const testToken = "cluster-test-token"

// selftestSpec declares the synthetic smoke campaign the way a cmd tool
// would compile it from flags.
func selftestSpec(n int, seed int64) *spec.Spec {
	return &spec.Spec{
		Version: spec.Version, Kind: "selftest", Seed: seed,
		Selftest: &spec.SelftestSpec{Trials: n},
	}
}

// buildFromSpec constructs the campaign a spec describes — the same
// path services, workers and cmd tools share.
func buildFromSpec(t *testing.T, sp *spec.Spec) campaign.Campaign {
	t.Helper()
	built, err := spec.Build(sp, spec.BuildOpts{})
	if err != nil {
		t.Fatal(err)
	}
	return built.Campaign
}

// countingRunner wraps a Runner and counts delivered results, so tests
// can assert how many trials actually executed on workers (resumed
// checkpoint records are streamed without passing through the runner,
// so they are not counted — exactly the "no re-runs" property under
// test).
type countingRunner struct {
	inner campaign.Runner
	runs  *atomic.Int64
}

func (r countingRunner) Run(ctx context.Context, c campaign.Campaign, trials []campaign.Trial,
	sink func(campaign.Result) error) error {
	return r.inner.Run(ctx, c, trials, func(res campaign.Result) error {
		r.runs.Add(1)
		return sink(res)
	})
}

// cancelAfter wraps a runner and cancels a context once `after` results
// have been delivered — a deterministic simulated worker death
// mid-shard (the worker stops executing and heartbeating at once).
type cancelAfter struct {
	inner  campaign.Runner
	after  int64
	count  atomic.Int64
	cancel context.CancelFunc
}

func (r *cancelAfter) Run(ctx context.Context, c campaign.Campaign, trials []campaign.Trial,
	sink func(campaign.Result) error) error {
	wrapped := func(res campaign.Result) error {
		if err := sink(res); err != nil {
			return err
		}
		if r.count.Add(1) >= r.after {
			r.cancel()
		}
		return nil
	}
	return r.inner.Run(ctx, c, trials, wrapped)
}

// startCoordinator runs campaign.Run with a one-run service as its
// runner in the background and returns the service, its URL, and a
// channel with the run outcome. sp is the spec workers build from.
func startCoordinator(t *testing.T, c campaign.Campaign, sp *spec.Spec, cfg service.Config,
	opt campaign.Options) (*service.OneRun, string, <-chan runOutcome) {
	t.Helper()
	if cfg.Addr == "" {
		cfg.Addr = "127.0.0.1:0"
	}
	cfg.Token = testToken
	one := service.NewOneRun(cfg, sp)
	opt.Runner = one
	if opt.Context == nil {
		ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
		t.Cleanup(cancel)
		opt.Context = ctx
	}
	out := make(chan runOutcome, 1)
	go func() {
		rr, err := campaign.Run(c, opt)
		out <- runOutcome{rr: rr, err: err}
	}()
	select {
	case <-one.Ready():
	case res := <-out:
		t.Fatalf("one-run service exited before listening: %v", res.err)
	case <-time.After(10 * time.Second):
		t.Fatal("one-run service never started listening")
	}
	return one, one.URL(), out
}

type runOutcome struct {
	rr  *campaign.RunResult
	err error
}

// startWorker launches a worker daemon. Unless the test injects a
// Build hook, the worker is spec-free: everything it knows about the
// campaign arrives from the service inside its lease grants.
func startWorker(t *testing.T, cfg cluster.WorkerConfig, ctx context.Context) <-chan error {
	t.Helper()
	cfg.Token = testToken
	if cfg.Poll == 0 {
		cfg.Poll = 20 * time.Millisecond
	}
	if cfg.Runner == nil {
		cfg.Runner = campaign.PoolRunner{Engine: tensor.NewParallel(2)}
	}
	done := make(chan error, 1)
	go func() { done <- cluster.NewWorker(cfg).Run(ctx) }()
	return done
}

func singleProcessWant(t *testing.T, c campaign.Campaign) []byte {
	t.Helper()
	rr, err := campaign.Run(c, campaign.Options{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := campaign.MarshalResults(rr.Results)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestDistributedEquivalence is the acceptance gate: a campaign
// distributed across loopback workers launched spec-free (every lease
// grant ships the canonical spec) produces byte-identical merged
// result JSON to the single-process PoolRunner run, with every trial
// executed exactly once — for 1, 2 and 8 workers.
func TestDistributedEquivalence(t *testing.T) {
	const n = 37
	sp := selftestSpec(n, 7)
	want := singleProcessWant(t, buildFromSpec(t, sp))
	for _, workers := range []int{1, 2, 8} {
		t.Run(fmt.Sprintf("%dworkers", workers), func(t *testing.T) {
			testDistributedEquivalence(t, sp, n, workers, want)
		})
	}
}

func testDistributedEquivalence(t *testing.T, sp *spec.Spec, n, workers int, want []byte) {
	ckpt := filepath.Join(t.TempDir(), "serve.jsonl")
	co, url, out := startCoordinator(t, buildFromSpec(t, sp), sp,
		service.Config{Shards: 4, LeaseTTL: 2 * time.Second},
		campaign.Options{Checkpoint: ckpt})

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	var runs atomic.Int64
	counting := func() campaign.Runner {
		return countingRunner{inner: campaign.PoolRunner{Engine: tensor.NewParallel(2)}, runs: &runs}
	}
	// Workers record the spec kind that arrived, to pin down that the
	// campaign really came over the wire. With more workers than
	// shards, some never get a lease and exit on the run's outcome.
	var gotKind atomic.Value
	var ws []<-chan error
	for i := 0; i < workers; i++ {
		ws = append(ws, startWorker(t, cluster.WorkerConfig{
			Coordinator: url, Name: fmt.Sprintf("w%d", i), CheckpointDir: t.TempDir(), Runner: counting(),
			Build: func(s *spec.Spec) (*spec.Built, error) {
				gotKind.Store(s.Kind)
				return spec.Build(s, spec.BuildOpts{})
			},
		}, ctx))
	}

	res := <-out
	if res.err != nil {
		t.Fatal(res.err)
	}
	if !res.rr.Complete || res.rr.Executed != n {
		t.Fatalf("distributed run executed %d/%d, complete=%v", res.rr.Executed, n, res.rr.Complete)
	}
	got, err := campaign.MarshalResults(res.rr.Results)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("distributed result JSON differs from single-process run")
	}
	if runs.Load() != int64(n) {
		t.Fatalf("workers executed %d trials, want exactly %d", runs.Load(), n)
	}
	for i, w := range ws {
		if err := <-w; err != nil {
			t.Fatalf("worker %d exited with error: %v", i, err)
		}
	}
	if k, _ := gotKind.Load().(string); k != "selftest" {
		t.Fatalf("workers received spec kind %q, want %q", k, "selftest")
	}

	// The caller's checkpoint holds each trial exactly once, keeps
	// the wire-carried wall-clock, and merges to the same bytes.
	h, rs, err := campaign.ReadCheckpoint(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	if h.Campaign != "selftest" || len(rs) != n || !campaign.Complete(rs, n) {
		t.Fatalf("serve checkpoint: campaign %q, %d results (complete=%v)",
			h.Campaign, len(rs), campaign.Complete(rs, n))
	}
	if sjson, err := spec.FromMeta(h.Meta); err != nil || sjson.Kind != "selftest" {
		t.Fatalf("checkpoint header spec metadata: %v (kind %v)", err, sjson)
	}
	// At least some trials must carry a wire-delivered wall-clock; not
	// all, because a sub-clock-tick synthetic trial can legitimately
	// measure zero on coarse monotonic clocks.
	timed := 0
	for _, r := range rs {
		if r.Wall > 0 {
			timed++
		}
	}
	if timed == 0 {
		t.Fatal("no trial reached the serve checkpoint with a wall-clock")
	}
	if b, _ := campaign.MarshalResults(rs); !bytes.Equal(b, want) {
		t.Fatal("serve checkpoint differs from single-process run")
	}
	if st := co.Summary(); st.Reassigned != 0 || st.State != service.RunDone {
		t.Fatalf("stats: %+v", st)
	}
}

// TestWorkerDeathReassignment kills a worker mid-shard: its lease must
// expire, the shard's remaining trials must be reassigned to the
// surviving worker, no trial may execute twice, and the merged output
// stays byte-identical.
func TestWorkerDeathReassignment(t *testing.T) {
	const n, dieAfter = 24, 3
	sp := selftestSpec(n, 7)
	want := singleProcessWant(t, buildFromSpec(t, sp))

	ckpt := filepath.Join(t.TempDir(), "serve.jsonl")
	co, url, out := startCoordinator(t, buildFromSpec(t, sp), sp,
		service.Config{Shards: 2, LeaseTTL: 150 * time.Millisecond},
		campaign.Options{Checkpoint: ckpt})

	// Worker A dies (stops running AND heartbeating) after 3 results.
	var runs atomic.Int64
	ctxA, cancelA := context.WithCancel(context.Background())
	defer cancelA()
	ra := &cancelAfter{
		inner:  countingRunner{inner: campaign.PoolRunner{Engine: tensor.Serial()}, runs: &runs},
		after:  dieAfter,
		cancel: cancelA,
	}
	wa := startWorker(t, cluster.WorkerConfig{Coordinator: url, Name: "doomed", Runner: ra, CheckpointDir: t.TempDir()}, ctxA)

	// Let A claim a shard and push its 3 results before B exists, so
	// the reassignment path is actually exercised.
	deadline := time.Now().Add(30 * time.Second)
	for co.Summary().Done < dieAfter {
		if time.Now().After(deadline) {
			t.Fatal("worker A never delivered its first results")
		}
		time.Sleep(10 * time.Millisecond)
	}
	<-wa // A is dead (context cancelled)

	ctxB, cancelB := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancelB()
	wb := startWorker(t, cluster.WorkerConfig{
		Coordinator: url, Name: "survivor", CheckpointDir: t.TempDir(),
		Runner: countingRunner{inner: campaign.PoolRunner{Engine: tensor.Serial()}, runs: &runs},
	}, ctxB)

	res := <-out
	if res.err != nil {
		t.Fatal(res.err)
	}
	if err := <-wb; err != nil {
		t.Fatalf("surviving worker exited with error: %v", err)
	}
	got, err := campaign.MarshalResults(res.rr.Results)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("merged output after reassignment differs from single-process run")
	}
	if runs.Load() != n {
		t.Fatalf("workers executed %d trials across the death+reassignment, want exactly %d", runs.Load(), n)
	}
	if st := co.Summary(); st.Reassigned < 1 {
		t.Fatalf("expected at least one lease reassignment, stats: %+v", st)
	}
	// Surviving checkpoint: every trial exactly once.
	_, rs, err := campaign.ReadCheckpoint(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != n || !campaign.Complete(rs, n) {
		t.Fatalf("surviving checkpoint has %d records for %d trials", len(rs), n)
	}
}

// TestRestartedWorkerResumesLocalCheckpoint: a worker that dies and
// comes back with the same checkpoint directory is re-granted the shard
// and resumes from disk — streamed records are deduplicated and no
// trial re-runs.
func TestRestartedWorkerResumesLocalCheckpoint(t *testing.T) {
	const n, dieAfter = 16, 5
	sp := selftestSpec(n, 3)
	want := singleProcessWant(t, buildFromSpec(t, sp))

	var runs atomic.Int64
	co, url, out := startCoordinator(t, buildFromSpec(t, sp), sp,
		service.Config{Shards: 1, LeaseTTL: 150 * time.Millisecond},
		campaign.Options{})

	dir := t.TempDir() // shared across the worker's two lives
	ctxA, cancelA := context.WithCancel(context.Background())
	defer cancelA()
	ra := &cancelAfter{
		inner:  countingRunner{inner: campaign.PoolRunner{Engine: tensor.Serial()}, runs: &runs},
		after:  dieAfter,
		cancel: cancelA,
	}
	wa := startWorker(t, cluster.WorkerConfig{Coordinator: url, Name: "flaky", Runner: ra, CheckpointDir: dir}, ctxA)
	<-wa

	ctxB, cancelB := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancelB()
	wb := startWorker(t, cluster.WorkerConfig{
		Coordinator: url, Name: "flaky", CheckpointDir: dir,
		Runner: countingRunner{inner: campaign.PoolRunner{Engine: tensor.Serial()}, runs: &runs},
	}, ctxB)

	res := <-out
	if res.err != nil {
		t.Fatal(res.err)
	}
	if err := <-wb; err != nil {
		t.Fatalf("restarted worker exited with error: %v", err)
	}
	if got, _ := campaign.MarshalResults(res.rr.Results); !bytes.Equal(got, want) {
		t.Fatal("post-restart merged output differs from single-process run")
	}
	if runs.Load() != n {
		t.Fatalf("executed %d trials across restart, want exactly %d (local checkpoint must prevent re-runs)", runs.Load(), n)
	}
	// The local shard checkpoint (named by run, campaign and shard) is
	// complete and re-readable.
	_, rs, err := campaign.ReadCheckpoint(filepath.Join(dir, co.Summary().ID+"-selftest-shard0of1.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	if !campaign.Complete(rs, n) {
		t.Fatalf("local shard checkpoint incomplete: missing %v", campaign.Missing(rs, n))
	}
}

// TestProtocolMismatchRejected: a worker speaking an older wire
// protocol is refused at registration with a deliberate (non-retried)
// rejection.
func TestProtocolMismatchRejected(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	sp := selftestSpec(20, 1)
	_, url, out := startCoordinator(t, buildFromSpec(t, sp), sp,
		service.Config{LeaseTTL: time.Second},
		campaign.Options{Context: ctx})

	body, err := json.Marshal(cluster.RegisterRequest{Worker: "stale-build", Proto: cluster.ProtocolVersion - 1})
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPost, url+"/v1/register", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Authorization", "Bearer "+testToken)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	msg, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict || !strings.Contains(string(msg), "protocol version mismatch") {
		t.Fatalf("stale worker registered anyway: HTTP %d %s", resp.StatusCode, msg)
	}
	cancel() // nothing will finish the campaign
	if res := <-out; res.err == nil {
		t.Fatal("one-run service should report cancellation")
	}
}

// TestUnknownSpecKindFailsWorker: a worker handed a spec whose kind its
// build has no registered builder for fails cleanly at build time
// instead of looping or corrupting anything.
func TestUnknownSpecKindFailsWorker(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	sp := &spec.Spec{Version: spec.Version, Kind: "martian"}
	_, url, out := startCoordinator(t, campaign.Synthetic(8, 1), sp,
		service.Config{LeaseTTL: time.Second},
		campaign.Options{Context: ctx})

	err := cluster.NewWorker(cluster.WorkerConfig{
		Coordinator: url, Token: testToken, Name: "confused", Poll: 10 * time.Millisecond,
	}).Run(ctx)
	if err == nil || !strings.Contains(err.Error(), "unknown kind") {
		t.Fatalf("worker with unbuildable spec should fail with unknown kind, got: %v", err)
	}
	cancel()
	if res := <-out; res.err == nil {
		t.Fatal("one-run service should report the failed run")
	}
}

// TestHeartbeatKeepsSlowShardAlive: a trial taking several lease TTLs
// must not be reassigned while its worker heartbeats.
func TestHeartbeatKeepsSlowShardAlive(t *testing.T) {
	const n = 3
	trials := make([]campaign.Trial, n)
	for i := range trials {
		trials[i] = campaign.Trial{ID: i, Key: fmt.Sprintf("slow%d", i)}
	}
	slow := campaign.New("slow", trials, func(lane int) (campaign.Worker, error) {
		return campaign.WorkerFunc(func(tr campaign.Trial) (campaign.Result, error) {
			time.Sleep(350 * time.Millisecond) // > 2x lease TTL
			return campaign.Result{TrialID: tr.ID, Key: tr.Key,
				Metrics: map[string]float64{"v": float64(tr.ID)}}, nil
		}), nil
	})

	var runs atomic.Int64
	co, url, out := startCoordinator(t, slow, selftestSpec(n, 1),
		service.Config{Shards: 1, LeaseTTL: 150 * time.Millisecond},
		campaign.Options{})
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	w := startWorker(t, cluster.WorkerConfig{
		Coordinator: url, Name: "slowpoke",
		Runner: countingRunner{inner: campaign.PoolRunner{Engine: tensor.Serial()}, runs: &runs},
		// The test campaign is not spec-buildable; inject it directly.
		Build: func(*spec.Spec) (*spec.Built, error) { return &spec.Built{Campaign: slow}, nil },
	}, ctx)

	res := <-out
	if res.err != nil {
		t.Fatal(res.err)
	}
	if err := <-w; err != nil {
		t.Fatalf("worker exited with error: %v", err)
	}
	if runs.Load() != n {
		t.Fatalf("executed %d trials, want %d (reassignment would re-run)", runs.Load(), n)
	}
	if st := co.Summary(); st.Reassigned != 0 {
		t.Fatalf("slow shard was reassigned despite heartbeats: %+v", st)
	}
}

// TestTrialErrorAbortsCampaign: a deterministic trial failure on a
// worker fails the whole run instead of spinning on reassignment.
func TestTrialErrorAbortsCampaign(t *testing.T) {
	trials := make([]campaign.Trial, 8)
	for i := range trials {
		trials[i] = campaign.Trial{ID: i, Key: "k"}
	}
	failing := campaign.New("failing", trials, func(lane int) (campaign.Worker, error) {
		return campaign.WorkerFunc(func(tr campaign.Trial) (campaign.Result, error) {
			if tr.ID == 5 {
				return campaign.Result{}, fmt.Errorf("injected fault")
			}
			return campaign.Result{TrialID: tr.ID, Key: tr.Key}, nil
		}), nil
	})

	_, url, out := startCoordinator(t, failing, selftestSpec(8, 1),
		service.Config{Shards: 2, LeaseTTL: time.Second},
		campaign.Options{})
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	w := startWorker(t, cluster.WorkerConfig{
		Coordinator: url, Name: "unlucky",
		Runner: campaign.PoolRunner{Engine: tensor.Serial()},
		Build:  func(*spec.Spec) (*spec.Built, error) { return &spec.Built{Campaign: failing}, nil },
	}, ctx)

	res := <-out
	if res.err == nil || !strings.Contains(res.err.Error(), "injected fault") {
		t.Fatalf("one-run service error = %v, want the injected trial fault", res.err)
	}
	if err := <-w; err == nil {
		t.Fatal("worker should surface the trial failure")
	}
}
