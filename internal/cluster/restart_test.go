package cluster_test

import (
	"bytes"
	"context"
	"os"
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

// Durability tests of the one-run service behind `campaign serve
// -state`: the in-process counterpart of the CI kill-and-restart
// gauntlet. "Kill" here is context cancellation of the service's Run —
// from the fleet's perspective the same event as a SIGKILL (the socket
// dies, worker IDs are forgotten), while the state dir on disk is what
// the next incarnation has to work with.

// delayedSelftestSpec declares a selftest slow enough (per-trial delay)
// to interrupt mid-campaign deterministically.
func delayedSelftestSpec(n int, seed int64, delayMS int) *spec.Spec {
	return &spec.Spec{
		Version: spec.Version, Kind: "selftest", Seed: seed,
		Selftest: &spec.SelftestSpec{Trials: n, DelayMillis: delayMS},
	}
}

// hostPort strips the scheme from a service URL so a restarted service
// can bind the same address its predecessor used — which is what lets
// the surviving workers find it again.
func hostPort(url string) string { return strings.TrimPrefix(url, "http://") }

// waitForDone polls a one-run service's run until at least want results
// were accepted.
func waitForDone(t *testing.T, co *service.OneRun, want int) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for co.Summary().Done < want {
		if time.Now().After(deadline) {
			t.Fatalf("service never reached %d accepted results", want)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// runWAL is the journal of a one-run service's run inside its state
// dir.
func runWAL(state string, co *service.OneRun) string {
	return campaign.WALPath(filepath.Join(state, "runs", co.Summary().ID))
}

// TestCoordinatorRestartResumesFromWAL is the durability acceptance
// gate, checkpoint variant (what `campaign serve -state -o` does): kill
// the coordinator mid-campaign, restart it on the same state dir,
// checkpoint and address, and the fleet finishes with byte-identical
// merged output and no trial executed twice — the surviving worker
// re-registers on its own.
func TestCoordinatorRestartResumesFromWAL(t *testing.T) {
	const n, killAfter = 24, 5
	sp := delayedSelftestSpec(n, 7, 20)
	want := singleProcessWant(t, buildFromSpec(t, sp))

	state := t.TempDir()
	ckpt := filepath.Join(t.TempDir(), "serve.jsonl")

	// Life 1: durable coordinator, killed once killAfter results landed.
	ctx1, kill := context.WithCancel(context.Background())
	defer kill()
	co1, url, out1 := startCoordinator(t, buildFromSpec(t, sp), sp,
		service.Config{Shards: 4, LeaseTTL: 300 * time.Millisecond, StateDir: state}, "",
		campaign.Options{Checkpoint: ckpt, Context: ctx1})

	var runs atomic.Int64
	wctx, wcancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer wcancel()
	w := startWorker(t, cluster.WorkerConfig{
		Coordinator: url, Name: "survivor", CheckpointDir: t.TempDir(), Retries: 1000,
		Runner: countingRunner{inner: campaign.PoolRunner{Engine: tensor.Serial()}, runs: &runs},
	}, wctx)

	waitForDone(t, co1, killAfter)
	kill()
	if res := <-out1; res.err == nil {
		t.Fatal("killed service should report cancellation")
	}
	done1 := co1.Summary().Done
	if done1 >= n {
		t.Fatalf("campaign completed (%d/%d) before the kill; raise the delay", done1, n)
	}

	// Life 2: same state dir, same checkpoint, same address. The worker
	// was never told anything happened.
	co2, _, out2 := startCoordinator(t, buildFromSpec(t, sp), sp,
		service.Config{Addr: hostPort(url), Shards: 4, LeaseTTL: 300 * time.Millisecond, StateDir: state}, "",
		campaign.Options{Checkpoint: ckpt})

	res := <-out2
	if res.err != nil {
		t.Fatal(res.err)
	}
	if err := <-w; err != nil {
		t.Fatalf("surviving worker exited with error: %v", err)
	}
	if !res.rr.Complete {
		t.Fatalf("restarted run incomplete: %d/%d", len(res.rr.Results), n)
	}
	got, err := campaign.MarshalResults(res.rr.Results)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("merged output after coordinator restart differs from single-process run")
	}
	if runs.Load() != n {
		t.Fatalf("workers executed %d trials across the restart, want exactly %d", runs.Load(), n)
	}
	// The checkpoint already carried the pre-kill results, so nothing
	// needed recovering from the WAL itself.
	if st := co2.Summary(); st.Recovered != 0 || st.State != service.RunDone {
		t.Fatalf("restarted stats: %+v", st)
	}
	// And the WAL round-trips as a complete record of the run.
	hdr, walResults, _, err := campaign.ReadWAL(runWAL(state, co2))
	if err != nil {
		t.Fatal(err)
	}
	if hdr.Trials != n || !campaign.Complete(walResults, n) {
		t.Fatalf("final WAL covers %d/%d trials", len(walResults), n)
	}
}

// TestCoordinatorRestartRecoversWALResults is the checkpoint-less
// variant: with no -o file to resume from, every result the previous
// incarnation accepted must be recovered from the WAL alone.
func TestCoordinatorRestartRecoversWALResults(t *testing.T) {
	const n, killAfter = 16, 4
	sp := delayedSelftestSpec(n, 3, 20)
	want := singleProcessWant(t, buildFromSpec(t, sp))

	state := t.TempDir()
	ctx1, kill := context.WithCancel(context.Background())
	defer kill()
	co1, url, out1 := startCoordinator(t, buildFromSpec(t, sp), sp,
		service.Config{Shards: 2, LeaseTTL: 300 * time.Millisecond, StateDir: state}, "",
		campaign.Options{Context: ctx1})

	var runs atomic.Int64
	wctx, wcancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer wcancel()
	w := startWorker(t, cluster.WorkerConfig{
		Coordinator: url, Name: "survivor", CheckpointDir: t.TempDir(), Retries: 1000,
		Runner: countingRunner{inner: campaign.PoolRunner{Engine: tensor.Serial()}, runs: &runs},
	}, wctx)

	waitForDone(t, co1, killAfter)
	kill()
	if res := <-out1; res.err == nil {
		t.Fatal("killed service should report cancellation")
	}
	done1 := co1.Summary().Done
	if done1 >= n {
		t.Fatalf("campaign completed (%d/%d) before the kill; raise the delay", done1, n)
	}

	co2, _, out2 := startCoordinator(t, buildFromSpec(t, sp), sp,
		service.Config{Addr: hostPort(url), Shards: 2, LeaseTTL: 300 * time.Millisecond, StateDir: state}, "",
		campaign.Options{})

	res := <-out2
	if res.err != nil {
		t.Fatal(res.err)
	}
	if err := <-w; err != nil {
		t.Fatalf("surviving worker exited with error: %v", err)
	}
	got, err := campaign.MarshalResults(res.rr.Results)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("WAL-recovered merged output differs from single-process run")
	}
	if st := co2.Summary(); st.Recovered != done1 {
		t.Fatalf("recovered %d results from the WAL, want every accepted pre-kill result (%d)", st.Recovered, done1)
	}
	if runs.Load() != n {
		t.Fatalf("workers executed %d trials across the restart, want exactly %d", runs.Load(), n)
	}
}

// TestRestartSurvivesMissingBalanceSource: the WAL's shard table is
// authoritative on replay, so a serve started with -balance
// <timing-file> must restart fine after that file is gone.
func TestRestartSurvivesMissingBalanceSource(t *testing.T) {
	const n = 12
	// 1ms delay guarantees the timing checkpoint records nonzero walls
	// even on coarse clocks, so the balance planner accepts it.
	sp := delayedSelftestSpec(n, 7, 1)
	want := singleProcessWant(t, buildFromSpec(t, sp))

	// A timing source: one completed run of the same campaign.
	timingDir := t.TempDir()
	timing := filepath.Join(timingDir, "timing.jsonl")
	if _, err := campaign.Run(buildFromSpec(t, sp), campaign.Options{Checkpoint: timing}); err != nil {
		t.Fatal(err)
	}

	state := t.TempDir()
	ctx1, kill := context.WithCancel(context.Background())
	co1, url, out1 := startCoordinator(t, buildFromSpec(t, sp), sp,
		service.Config{StateDir: state, LeaseTTL: time.Second}, "balance:"+timing,
		campaign.Options{Context: ctx1})
	if st := co1.Summary(); st.Planner != "balance:"+timing {
		t.Fatalf("fresh run planned by %q, want the balance planner", st.Planner)
	}
	kill() // WAL header (with the balanced shard table) is already on disk
	if res := <-out1; res.err == nil {
		t.Fatal("killed service should report cancellation")
	}

	// The timing source vanishes (rotated away, different machine...).
	if err := os.RemoveAll(timingDir); err != nil {
		t.Fatal(err)
	}

	// Restart with the same flags must restore from the WAL, not
	// re-resolve the planner.
	co2, url2, out2 := startCoordinator(t, buildFromSpec(t, sp), sp,
		service.Config{Addr: hostPort(url), StateDir: state, LeaseTTL: time.Second}, "balance:"+timing,
		campaign.Options{})
	wctx, wcancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer wcancel()
	w := startWorker(t, cluster.WorkerConfig{Coordinator: url2, Name: "w", CheckpointDir: t.TempDir()}, wctx)
	res := <-out2
	if res.err != nil {
		t.Fatalf("restart with missing balance source failed: %v", res.err)
	}
	if err := <-w; err != nil {
		t.Fatalf("worker exited with error: %v", err)
	}
	if got, _ := campaign.MarshalResults(res.rr.Results); !bytes.Equal(got, want) {
		t.Fatal("balanced restart merged output differs from single-process run")
	}
	if st := co2.Summary(); st.State != service.RunDone {
		t.Fatalf("restarted stats: %+v", st)
	}
}

// TestTornHeaderWALPlansFresh: a serve SIGKILLed before its journal
// header durably landed leaves a 0-byte or newline-less wal.jsonl;
// restarting with the same flags must plan fresh instead of failing
// until the operator deletes the state dir.
func TestTornHeaderWALPlansFresh(t *testing.T) {
	const n = 8
	sp := delayedSelftestSpec(n, 7, 0)
	want := singleProcessWant(t, buildFromSpec(t, sp))
	for name, torn := range map[string]string{"empty": "", "torn header": `{"header":{"version":1,"campaig`} {
		state := t.TempDir()
		// Life 1 admits the run (status.json + WAL header), then dies;
		// the header is then torn as if the kill had beaten its flush.
		ctx1, kill := context.WithCancel(context.Background())
		co1, _, out1 := startCoordinator(t, buildFromSpec(t, sp), sp,
			service.Config{StateDir: state, LeaseTTL: time.Second}, "",
			campaign.Options{Context: ctx1})
		kill()
		<-out1
		if err := os.WriteFile(runWAL(state, co1), []byte(torn), 0o644); err != nil {
			t.Fatal(err)
		}

		co, url, out := startCoordinator(t, buildFromSpec(t, sp), sp,
			service.Config{StateDir: state, LeaseTTL: time.Second}, "",
			campaign.Options{})
		ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
		w := startWorker(t, cluster.WorkerConfig{Coordinator: url, Name: "w"}, ctx)
		res := <-out
		if res.err != nil {
			t.Fatalf("%s WAL: restart did not plan fresh: %v", name, res.err)
		}
		if err := <-w; err != nil {
			t.Fatalf("%s WAL: worker exited with error: %v", name, err)
		}
		if got, _ := campaign.MarshalResults(res.rr.Results); !bytes.Equal(got, want) {
			t.Fatalf("%s WAL: merged output differs from single-process run", name)
		}
		if st := co.Summary(); st.State != service.RunDone || st.ID == co1.Summary().ID {
			t.Fatalf("%s WAL: stats %+v (torn run %s)", name, st, co1.Summary().ID)
		}
		// The torn run is gone and the fresh journal is a complete,
		// readable record.
		if _, err := os.Stat(runWAL(state, co1)); !os.IsNotExist(err) {
			t.Fatalf("%s WAL: torn run was not discarded: %v", name, err)
		}
		if _, rs, _, err := campaign.ReadWAL(runWAL(state, co)); err != nil || !campaign.Complete(rs, n) {
			t.Fatalf("%s WAL: fresh journal unreadable or incomplete: %v", name, err)
		}
		cancel()
	}
}

// TestStateDirDoubleServeRefused: a second serve on a live state dir
// must be refused up front — two journal writers would interleave
// records and double-serve the campaign.
func TestStateDirDoubleServeRefused(t *testing.T) {
	state := t.TempDir()
	sp := delayedSelftestSpec(12, 7, 0)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	_, _, out := startCoordinator(t, buildFromSpec(t, sp), sp,
		service.Config{StateDir: state, LeaseTTL: time.Second}, "",
		campaign.Options{Context: ctx})

	cfg := service.Config{Addr: "127.0.0.1:0", StateDir: state, Token: testToken}
	_, err := campaign.Run(buildFromSpec(t, sp), campaign.Options{Runner: service.NewOneRun(cfg, sp, "")})
	if err == nil || !strings.Contains(err.Error(), "already served") {
		t.Fatalf("second serve on a live state dir accepted: %v", err)
	}
	cancel()
	if res := <-out; res.err == nil {
		t.Fatal("first serve should report cancellation")
	}

	// With the first serve gone, the lock is free again.
	ctx3, cancel3 := context.WithCancel(context.Background())
	cancel3()
	if _, err := campaign.Run(buildFromSpec(t, sp), campaign.Options{Runner: service.NewOneRun(cfg, sp, ""), Context: ctx3}); err == nil ||
		strings.Contains(err.Error(), "already served") {
		t.Fatalf("lock not released after the first serve exited: %v", err)
	}
}

// TestStateDirSpecMismatchRefused: a restarted serve must refuse a
// state dir journaled by a different experiment instead of quietly
// mixing runs.
func TestStateDirSpecMismatchRefused(t *testing.T) {
	state := t.TempDir()
	ctx, cancel := context.WithCancel(context.Background())
	sp := delayedSelftestSpec(12, 7, 0)
	_, _, out := startCoordinator(t, buildFromSpec(t, sp), sp,
		service.Config{StateDir: state, LeaseTTL: time.Second}, "",
		campaign.Options{Context: ctx})
	cancel() // no workers; the WAL header is written at admission
	if res := <-out; res.err == nil {
		t.Fatal("cancelled serve should report cancellation")
	}

	other := delayedSelftestSpec(30, 7, 0)
	cfg := service.Config{Addr: "127.0.0.1:0", StateDir: state, Token: testToken}
	_, err := campaign.Run(buildFromSpec(t, other), campaign.Options{Runner: service.NewOneRun(cfg, other, "")})
	if err == nil || !strings.Contains(err.Error(), "journals spec") {
		t.Fatalf("mismatched state dir accepted: %v", err)
	}
}
