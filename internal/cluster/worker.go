package cluster

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"time"

	"falvolt/internal/campaign"
	"falvolt/internal/spec"
)

// DefaultPoll is the idle poll / retry interval when WorkerConfig.Poll
// is 0.
const DefaultPoll = 500 * time.Millisecond

// defaultRetries bounds consecutive transport failures (service not
// yet listening at startup, restarting mid-campaign) before the worker
// gives up.
const defaultRetries = 60

// heartbeatMisses is how many consecutive failed heartbeats a worker
// tolerates before treating its lease as lost.
const heartbeatMisses = 3

// errLeaseLost marks a shard abandoned because the service revoked or
// expired the lease; the worker returns to the lease loop.
var errLeaseLost = errors.New("cluster: lease lost")

// errPush tags a failed result upload. Unlike a trial failure it is not
// deterministic — the service may be restarting or the network flaky —
// so the worker abandons the shard (keeping its local checkpoint) and
// rejoins the lease loop, whose retry budget decides whether the
// service is truly gone. It must never abort the whole run via
// TrialErr.
var errPush = errors.New("cluster: pushing results failed")

// errLocal tags a local checkpoint write failure (disk full,
// permissions): fatal to THIS worker, but not a reason to abort the
// run — the lease expires and another worker takes the shard.
var errLocal = errors.New("cluster: local checkpoint write failed")

// WorkerConfig configures a worker daemon.
type WorkerConfig struct {
	// Coordinator is the campaign service's base URL
	// ("http://host:9090") — a `campaign service`, or the one-run
	// service behind `campaign serve` and the -coordinator flags.
	Coordinator string
	// Token is the bearer credential sent on every request; the service
	// rejects requests without it.
	Token string
	// Name is the worker's display name (default "host-pid").
	Name string
	// Runner executes leased trials locally (nil selects
	// campaign.PoolRunner on the process-default engine).
	Runner campaign.Runner
	// CheckpointDir, when non-empty, keeps one local JSONL checkpoint
	// per leased shard: a restarted worker that is re-granted a shard
	// resumes from disk and streams the completed records instead of
	// re-running them.
	CheckpointDir string
	// CacheDir persists trained baselines between runs; it is passed to
	// the spec builder (execution-local, never affects results).
	CacheDir string
	// TLSCA, when non-empty, is a PEM CA bundle HTTPS connections verify
	// against instead of the system roots — for an https:// service
	// served with a privately-issued certificate.
	TLSCA string
	// Build constructs a campaign from the spec a lease grant ships.
	// Nil selects spec.Build with this worker's CacheDir and Log — the
	// production path. Tests inject wrappers (trial counters, simulated
	// deaths) here.
	Build func(s *spec.Spec) (*spec.Built, error)
	// Poll is the idle poll and retry interval (0 = DefaultPoll).
	Poll time.Duration
	// Retries bounds consecutive transport failures before giving up
	// (0 = a built-in default generous enough for a service that
	// starts after its workers).
	Retries int
	// Log receives progress lines (nil silences).
	Log io.Writer
}

// Worker executes shards leased from a campaign service. It needs no
// campaign configuration of its own: every lease grant carries its
// run's canonical experiment spec, and the worker builds the campaign
// from those bytes (expensive resources like trained baselines still
// load lazily on first trial). A worker therefore cannot be
// misconfigured relative to the run it serves.
type Worker struct {
	cfg WorkerConfig
	cl  *client
}

// NewWorker builds a worker daemon for one service.
func NewWorker(cfg WorkerConfig) *Worker {
	if cfg.Name == "" {
		host, err := os.Hostname()
		if err != nil {
			host = "worker"
		}
		cfg.Name = fmt.Sprintf("%s-%d", host, os.Getpid())
	}
	if cfg.Runner == nil {
		cfg.Runner = campaign.PoolRunner{}
	}
	if cfg.Poll <= 0 {
		cfg.Poll = DefaultPoll
	}
	if cfg.Retries <= 0 {
		cfg.Retries = defaultRetries
	}
	return &Worker{cfg: cfg, cl: newClient(cfg.Coordinator, cfg.Token, cfg.TLSCA)}
}

// buildFunc resolves the campaign builder (cfg.Build, or spec.Build
// with this worker's cache/log — the production path).
func (w *Worker) buildFunc() func(s *spec.Spec) (*spec.Built, error) {
	if w.cfg.Build != nil {
		return w.cfg.Build
	}
	return func(s *spec.Spec) (*spec.Built, error) {
		return spec.Build(s, spec.BuildOpts{CacheDir: w.cfg.CacheDir, Log: w.cfg.Log})
	}
}

// decodeShipped decodes and fingerprint-verifies the spec payload of a
// lease grant.
func decodeShipped(raw []byte, wantFP string) (*spec.Spec, error) {
	sp, err := spec.Decode(raw)
	if err != nil {
		return nil, fmt.Errorf("cluster: service shipped an unreadable spec: %w", err)
	}
	fp, err := sp.Fingerprint()
	if err != nil {
		return nil, fmt.Errorf("cluster: fingerprint received spec: %w", err)
	}
	if fp != wantFP {
		return nil, fmt.Errorf("cluster: received spec fingerprint %s does not match the service's %s", fp, wantFP)
	}
	return sp, nil
}

// Run registers with the service and leases shards of whatever run it
// schedules, building (and caching) one campaign per distinct spec
// fingerprint, until the work is over or ctx is cancelled. Individual
// runs of a catalog service finishing, failing or being cancelled never
// stop the worker; a drain directive, a one-run service reporting its
// run done (nil) or failed (error), an unrecoverable local fault, or
// ctx cancellation do. A service restart (the worker's ID is rejected
// as unknown) triggers re-registration; leased shards resume from the
// local checkpoints.
func (w *Worker) Run(ctx context.Context) error {
	if ctx == nil {
		ctx = context.Background()
	}
	resp, err := w.register(ctx)
	if err != nil {
		return err
	}
	workerID := resp.WorkerID
	hbEvery := heartbeatEvery(resp, w.cfg.Poll)
	w.logf("worker %s: registered with campaign service, heartbeat every %v\n", workerID, hbEvery)
	build := w.buildFunc()
	type cached struct {
		c    campaign.Campaign
		info CampaignInfo
	}
	builds := make(map[string]*cached) // spec fingerprint -> built campaign
	var drain atomic.Bool              // set by a heartbeat drain directive mid-shard
	fails, reregs := 0, 0
	for {
		if drain.Load() {
			w.logf("worker %s: drained; exiting\n", workerID)
			return nil
		}
		if err := sleepCtx(ctx, 0); err != nil {
			return err
		}
		lr, err := w.cl.lease(LeaseRequest{WorkerID: workerID})
		if err != nil {
			var se *statusError
			if errors.As(err, &se) && se.code == http.StatusForbidden {
				// The service restarted and lost its worker table (or this
				// worker's registration aged out): re-register. Built
				// campaigns are keyed by spec fingerprint, not worker ID,
				// so the cache survives.
				reregs++
				if reregs > w.cfg.Retries {
					return fmt.Errorf("cluster: service rejected this worker %d times in a row; giving up", reregs)
				}
				if err := sleepCtx(ctx, w.cfg.Poll); err != nil {
					return err
				}
				resp, rerr := w.register(ctx)
				if rerr != nil {
					return fmt.Errorf("cluster: re-register after service restart: %w", rerr)
				}
				workerID = resp.WorkerID
				hbEvery = heartbeatEvery(resp, w.cfg.Poll)
				w.logf("worker %s: re-registered after service restart\n", workerID)
				continue
			}
			if errors.As(err, &se) && se.code != http.StatusServiceUnavailable {
				return err // deliberate rejection, not a transient fault
			}
			// Transport failures AND 503 "shutting down" are transient: a
			// restarting service answers 503 during its shutdown grace,
			// and treating that as fatal would turn every restart into a
			// timing lottery for its workers.
			fails++
			if fails > w.cfg.Retries {
				return fmt.Errorf("cluster: service unreachable after %d attempts: %w", fails, err)
			}
			if err := sleepCtx(ctx, w.cfg.Poll); err != nil {
				return err
			}
			continue
		}
		fails, reregs = 0, 0
		if lr.Drain {
			// Idle-side drain: no shard in flight, exit immediately.
			w.logf("worker %s: drain directive received; exiting\n", workerID)
			return nil
		}
		switch lr.Status {
		case StatusWait:
			if err := sleepCtx(ctx, w.cfg.Poll); err != nil {
				return err
			}
		case StatusDone:
			w.logf("worker %s: the service's run is complete; exiting\n", workerID)
			return nil
		case StatusFailed:
			return fmt.Errorf("cluster: run failed at the service: %s", lr.Error)
		case StatusLease:
			br, ok := builds[lr.Fingerprint]
			if !ok {
				sp, err := decodeShipped(lr.Spec, lr.Fingerprint)
				var built *spec.Built
				if err == nil {
					built, err = build(sp)
				}
				var info CampaignInfo
				if err == nil {
					info, err = InfoOf(built.Campaign)
				}
				if err != nil {
					// A spec that will not build is deterministically broken
					// for every worker: fail THAT RUN (routed by RunID) and
					// keep serving the rest of the catalog.
					w.logf("worker %s: run %s: %v\n", workerID, lr.RunID, err)
					w.cl.results(ResultsRequest{WorkerID: workerID, LeaseID: lr.LeaseID, RunID: lr.RunID, TrialErr: err.Error()})
					continue
				}
				br = &cached{c: built.Campaign, info: info}
				builds[lr.Fingerprint] = br
				w.logf("worker %s: built campaign %s (spec %s) for run %s\n",
					workerID, info.Campaign, lr.Fingerprint, lr.RunID)
			}
			err := w.runShard(ctx, br.c, br.info, &drain, workerID, hbEvery, lr)
			switch {
			case errors.Is(err, errLeaseLost):
				// Also how a shard ends whose run finished or failed
				// elsewhere: the service revokes its leases.
				w.logf("worker %s: lease %s lost; rejoining the queue\n", workerID, lr.LeaseID)
			case errors.Is(err, errLocal):
				return err // this worker can no longer checkpoint durably
			case ctx.Err() != nil:
				return err
			case err != nil:
				// Deterministic trial failure: already reported to the
				// service with this run's ID (it fails the run, not the
				// fleet); keep serving other runs.
				w.logf("worker %s: run %s failed: %v\n", workerID, lr.RunID, err)
			}
		default:
			return fmt.Errorf("cluster: service sent unknown lease status %q", lr.Status)
		}
	}
}

// register enrolls the worker — retrying transport failures so workers
// may start before their service listens.
func (w *Worker) register(ctx context.Context) (RegisterResponse, error) {
	req := RegisterRequest{Worker: w.cfg.Name, Proto: ProtocolVersion}
	for attempt := 1; ; attempt++ {
		resp, err := w.cl.register(req)
		if err == nil {
			return resp, nil
		}
		var se *statusError
		if errors.As(err, &se) {
			return RegisterResponse{}, err // protocol mismatch, bad token, malformed request
		}
		if attempt > w.cfg.Retries {
			return RegisterResponse{}, fmt.Errorf("cluster: register failed after %d attempts: %w", attempt, err)
		}
		if err := sleepCtx(ctx, w.cfg.Poll); err != nil {
			return RegisterResponse{}, err
		}
	}
}

// heartbeatEvery derives the heartbeat interval from a registration: a
// third of the lease TTL (the poll interval if the service sent none).
func heartbeatEvery(resp RegisterResponse, poll time.Duration) time.Duration {
	if d := time.Duration(resp.LeaseTTLMillis) * time.Millisecond / 3; d > 0 {
		return d
	}
	return poll
}

// runShard executes one leased shard: resume from the local checkpoint,
// run the pending trials on the local runner, stream each result back,
// heartbeat until done.
func (w *Worker) runShard(ctx context.Context, c campaign.Campaign, info CampaignInfo, drain *atomic.Bool,
	workerID string, hbEvery time.Duration, lr LeaseResponse) error {
	shardCtx, cancel := context.WithCancel(ctx)
	defer cancel()

	// Local shard checkpoint: resume completed trials from disk and
	// stream them to the service (it deduplicates).
	done := make(map[int]bool)
	var ckpt *campaign.Checkpoint
	if w.cfg.CheckpointDir != "" {
		var err error
		ckpt, done, err = w.openShardCheckpoint(c, info, workerID, lr)
		if err != nil {
			if errors.Is(err, errPush) {
				// Streaming the resumed records failed transiently;
				// abandon the lease and retry from the loop like any
				// other push failure.
				w.logf("worker %s: shard %s: %v\n", workerID, lr.Shard, err)
				return errLeaseLost
			}
			return err
		}
		defer ckpt.Close()
	}
	var pending []campaign.Trial
	for _, t := range lr.Trials {
		if !done[t.ID] {
			pending = append(pending, t)
		}
	}
	w.logf("worker %s: leased shard %s: %d trials, %d resumed locally\n",
		workerID, lr.Shard, len(lr.Trials), len(lr.Trials)-len(pending))

	// Heartbeat until the shard run finishes (the deferred cancel stops
	// the goroutine). A revoked lease — expired, or its run finished,
	// failed or was cancelled — cancels the shard context, which aborts
	// the runner promptly; drain directives ride the heartbeat
	// responses.
	go func() {
		ticker := time.NewTicker(hbEvery)
		defer ticker.Stop()
		misses := 0
		for {
			select {
			case <-shardCtx.Done():
				return
			case <-ticker.C:
			}
			resp, err := w.cl.heartbeat(HeartbeatRequest{WorkerID: workerID, LeaseID: lr.LeaseID})
			if err != nil {
				if misses++; misses >= heartbeatMisses {
					cancel()
					return
				}
				continue
			}
			misses = 0
			if resp.Drain && !drain.Load() {
				drain.Store(true)
				w.logf("worker %s: drain directive received; will exit after this shard\n", workerID)
			}
			if !resp.OK {
				cancel()
				return
			}
		}
	}()

	// One POST per trial keeps progress reporting and durability simple;
	// real campaign trials cost seconds to minutes of SNN compute, so
	// the round-trip is noise (micro-batching is the lever if trials
	// ever get RTT-bound).
	sink := func(r campaign.Result) error {
		if ckpt != nil {
			if err := ckpt.Append(r); err != nil {
				return fmt.Errorf("%w: %v", errLocal, err)
			}
		}
		if _, err := w.cl.results(ResultsRequest{
			WorkerID: workerID, LeaseID: lr.LeaseID, RunID: lr.RunID,
			Results: []campaign.Result{r}, Wall: []float64{r.Wall},
		}); err != nil {
			return fmt.Errorf("%w: %v", errPush, err)
		}
		w.logf("worker %s: shard %s: trial %d (%s) done\n", workerID, lr.Shard, r.TrialID, r.Key)
		return nil
	}
	err := w.cfg.Runner.Run(shardCtx, c, pending, sink)
	switch {
	case err == nil:
		w.logf("worker %s: shard %s complete\n", workerID, lr.Shard)
		return nil
	case shardCtx.Err() != nil && ctx.Err() == nil:
		return errLeaseLost
	case ctx.Err() != nil:
		return err
	case errors.Is(err, errPush):
		// Transient upload failure, not a bad trial: the completed
		// results survive in the local checkpoint; rejoin the lease
		// loop, whose retry budget decides if the service is gone.
		w.logf("worker %s: shard %s: %v\n", workerID, lr.Shard, err)
		return errLeaseLost
	case errors.Is(err, errLocal):
		// This worker can no longer checkpoint durably; let it die
		// without aborting the run — the lease will expire and the
		// shard will be reassigned.
		return err
	default:
		// A deterministic trial (or worker-construction) failure:
		// another worker would fail the same way, so tell the service
		// to abort this run (routed by RunID) — best effort.
		w.cl.results(ResultsRequest{WorkerID: workerID, LeaseID: lr.LeaseID, RunID: lr.RunID, TrialErr: err.Error()})
		return err
	}
}

// openShardCheckpoint opens (or creates) the local checkpoint for a
// leased shard, returning the writer, the completed trial IDs, and —
// when resuming — streaming the completed records to the service.
func (w *Worker) openShardCheckpoint(c campaign.Campaign, info CampaignInfo,
	workerID string, lr LeaseResponse) (*campaign.Checkpoint, map[int]bool, error) {
	shard, err := campaign.ParseShard(lr.Shard)
	if err != nil {
		return nil, nil, fmt.Errorf("cluster: service sent bad shard label %q: %w", lr.Shard, err)
	}
	header := campaign.NewHeader(c, info.Trials, shard)
	// The run ID prefixes the checkpoint name: two runs of equal shard
	// labels (even of the same experiment) must never share a local file.
	path := filepath.Join(w.cfg.CheckpointDir, shardFileName(lr.RunID+"-"+info.Campaign, lr.Shard))
	done := make(map[int]bool)
	if _, err := os.Stat(path); err == nil {
		prev, results, err := campaign.ReadCheckpoint(path)
		if err != nil {
			return nil, nil, err
		}
		if !prev.Compatible(header) || prev.Shard != header.Shard {
			return nil, nil, fmt.Errorf("cluster: local checkpoint %s is from a different campaign, configuration or shard", path)
		}
		if len(results) > 0 {
			walls := make([]float64, len(results))
			for i, r := range results {
				walls[i] = r.Wall
			}
			if _, err := w.cl.results(ResultsRequest{
				WorkerID: workerID, LeaseID: lr.LeaseID, RunID: lr.RunID,
				Results: results, Wall: walls,
			}); err != nil {
				return nil, nil, fmt.Errorf("%w: %v", errPush, err)
			}
			w.logf("worker %s: shard %s: streamed %d checkpointed results\n", workerID, lr.Shard, len(results))
		}
		for _, r := range results {
			done[r.TrialID] = true
		}
		ckpt, err := campaign.OpenCheckpointAppend(path)
		return ckpt, done, err
	}
	if err := os.MkdirAll(w.cfg.CheckpointDir, 0o755); err != nil {
		return nil, nil, fmt.Errorf("cluster: checkpoint dir: %w", err)
	}
	ckpt, err := campaign.CreateCheckpoint(path, header)
	return ckpt, done, err
}

// shardFileName renders the local checkpoint filename for a shard
// ("r1-ab12cd34-yield-shard3of8.jsonl").
func shardFileName(name, shard string) string {
	return fmt.Sprintf("%s-shard%s.jsonl", name, strings.ReplaceAll(shard, "/", "of"))
}

// sleepCtx waits d (or just checks cancellation when d is 0).
func sleepCtx(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

func (w *Worker) logf(format string, args ...any) {
	if w.cfg.Log != nil {
		fmt.Fprintf(w.cfg.Log, format, args...)
	}
}
