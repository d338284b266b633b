package service

import (
	"bufio"
	"context"
	"crypto/tls"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"syscall"
	"time"

	"falvolt/internal/campaign"
	"falvolt/internal/cluster"
	"falvolt/internal/spec"
)

// accumulatedPlanner names the policy of plans derived from the
// service's accumulating cross-run timing (vs a file-backed
// "balance:<path>" source).
const accumulatedPlanner = "balance:accumulated"

// HTTP server timeouts. ReadHeaderTimeout bounds how long a connection
// may dribble in its request headers (a client that connects and sends
// nothing is dropped); IdleTimeout bounds keep-alive connections
// between requests. There is deliberately no WriteTimeout: a
// `?watch=` long-poll holds its response open for up to 25s.
const (
	readHeaderTimeout = 5 * time.Second
	idleTimeout       = 2 * time.Minute
)

// Config configures a campaign service.
type Config struct {
	// Addr is the listen address (":9191", "127.0.0.1:0" for tests).
	Addr string
	// StateDir roots the service's durable state: a lock file plus one
	// directory per run under <StateDir>/runs/. Required by Service.Run;
	// a OneRun without one uses a temporary directory it deletes on
	// exit.
	StateDir string
	// Token is the bearer credential every endpoint requires. Required:
	// a multi-tenant catalog must not be world-writable.
	Token string
	// Shards is the per-run shard count (0 = cluster.DefaultShards,
	// clamped to each run's trial count).
	Shards int
	// LeaseTTL is how long a shard lease survives without a heartbeat
	// (0 = cluster.DefaultLeaseTTL).
	LeaseTTL time.Duration
	// CacheDir persists trained baselines between runs; passed to the
	// spec builder.
	CacheDir string
	// Retain caps how many terminal (done/failed/cancelled) runs the
	// catalog keeps: beyond it, the oldest terminal run directories are
	// deleted from disk and dropped from the catalog, at every terminal
	// transition and at recovery. In-flight runs are never touched.
	// 0 keeps everything.
	Retain int
	// TLSCert/TLSKey, when set (both required together), serve the
	// service over HTTPS with this PEM certificate and private key.
	// Clients with a private CA pass its bundle to NewClientTLS (or the
	// -tls-ca flag).
	TLSCert string
	TLSKey  string
	// Build constructs a campaign from an admitted spec (nil selects
	// spec.Build with CacheDir and Log; tests inject counters here). A
	// OneRun ignores it: its campaign arrives already built.
	Build func(s *spec.Spec) (*spec.Built, error)
	// Log receives progress lines (nil silences).
	Log io.Writer

	// now overrides the clock in tests.
	now func() time.Time
	// linger overrides oneRunLinger in tests.
	linger time.Duration
}

// workerState is one registered worker's fleet entry.
type workerState struct {
	name     string
	lastSeen time.Time
	drain    bool
}

// Service is the long-lived multi-tenant coordinator. Construct with
// New, then Run blocks until the context is cancelled; submissions,
// worker traffic and catalog queries all arrive over HTTP.
type Service struct {
	cfg Config

	ready chan struct{}
	url   string

	mu      sync.Mutex
	runs    map[string]*run
	order   []string // run IDs in submission order
	leases  *cluster.LeaseTable[runShard]
	workers map[string]*workerState
	wseq    int
	rseq    int
	watchCh chan struct{} // closed and replaced on every catalog change
	closed  bool
	// one is non-nil in a one-run service (see OneRun).
	one *oneRun
}

// New builds a campaign service.
func New(cfg Config) *Service {
	if cfg.LeaseTTL <= 0 {
		cfg.LeaseTTL = cluster.DefaultLeaseTTL
	}
	if cfg.now == nil {
		cfg.now = time.Now
	}
	if cfg.linger <= 0 {
		cfg.linger = oneRunLinger
	}
	return &Service{
		cfg:     cfg,
		ready:   make(chan struct{}),
		runs:    make(map[string]*run),
		workers: make(map[string]*workerState),
		watchCh: make(chan struct{}),
	}
}

// Ready is closed once the service is listening; URL is valid from then
// on.
func (s *Service) Ready() <-chan struct{} { return s.ready }

// URL returns the service's base URL ("http://host:port"). Valid only
// after Ready.
func (s *Service) URL() string { return s.url }

func (s *Service) now() time.Time { return s.cfg.now() }

func (s *Service) buildFunc() func(*spec.Spec) (*spec.Built, error) {
	if s.cfg.Build != nil {
		return s.cfg.Build
	}
	return func(sp *spec.Spec) (*spec.Built, error) {
		return spec.Build(sp, spec.BuildOpts{CacheDir: s.cfg.CacheDir, Log: s.cfg.Log})
	}
}

// Run recovers the catalog from StateDir, serves until ctx is
// cancelled, then shuts down cleanly (in-flight runs stay journaled and
// resume on the next start). A one-run service also returns once its
// run is terminal, after lingering so idle workers observe the outcome.
func (s *Service) Run(ctx context.Context) error {
	if ctx == nil {
		ctx = context.Background()
	}
	if s.cfg.Token == "" {
		return fmt.Errorf("service: a bearer token is required (Config.Token)")
	}
	if s.cfg.StateDir == "" {
		return fmt.Errorf("service: a state directory is required (Config.StateDir)")
	}
	if err := os.MkdirAll(filepath.Join(s.cfg.StateDir, runsDirName), 0o755); err != nil {
		return fmt.Errorf("service: state dir: %w", err)
	}
	// One service per state dir: two journal writers would interleave
	// records and double-serve runs. An flock (not a pid file), so a
	// SIGKILLed service releases it by dying.
	lock, err := os.OpenFile(filepath.Join(s.cfg.StateDir, "lock"), os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return fmt.Errorf("service: state dir lock: %w", err)
	}
	if err := syscall.Flock(int(lock.Fd()), syscall.LOCK_EX|syscall.LOCK_NB); err != nil {
		lock.Close()
		return fmt.Errorf("service: state dir %s is already served (%w); stop the other service first", s.cfg.StateDir, err)
	}
	defer func() {
		s.mu.Lock()
		s.closed = true
		for _, r := range s.runs {
			if r.wal != nil {
				r.wal.Close()
				r.wal = nil
			}
		}
		s.mu.Unlock()
		lock.Close()
	}()

	s.mu.Lock()
	err = s.recoverLocked()
	recovered := len(s.runs)
	if err == nil && s.one != nil {
		err = s.admitOneLocked()
	}
	s.mu.Unlock()
	if err != nil {
		return err
	}

	ln, err := net.Listen("tcp", s.cfg.Addr)
	if err != nil {
		return fmt.Errorf("service: listen %s: %w", s.cfg.Addr, err)
	}
	scheme := "http"
	if s.cfg.TLSCert != "" || s.cfg.TLSKey != "" {
		tc, err := cluster.TLSServerConfig(s.cfg.TLSCert, s.cfg.TLSKey)
		if err != nil {
			ln.Close()
			return err
		}
		ln = tls.NewListener(ln, tc)
		scheme = "https"
	}
	s.url = scheme + "://" + ln.Addr().String()
	close(s.ready)
	srv := &http.Server{Handler: s.mux(), ReadHeaderTimeout: readHeaderTimeout, IdleTimeout: idleTimeout}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()
	s.logf("service: listening on %s (state %s, lease TTL %v, %d runs recovered)\n",
		s.url, s.cfg.StateDir, s.cfg.LeaseTTL, recovered)

	runErr := s.await(ctx, serveErr)
	// Bar handlers from run state before shutting down: Shutdown's grace
	// can expire with a results POST still in flight, and once Run
	// returns a one-run caller owns its result set and checkpoint again.
	// Taking the mutex also waits out any handler inside recordRunLocked.
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	srv.Shutdown(shutdownCtx)
	return runErr
}

// await blocks until ctx is cancelled, the server dies, or — in a
// one-run service — the run is terminal; then it returns the outcome.
// A one-run service keeps answering lease calls with that outcome for
// the linger period first, so idle workers observe it from their next
// poll instead of burning their retry budget against a dead socket.
func (s *Service) await(ctx context.Context, serveErr <-chan error) error {
	for {
		s.mu.Lock()
		ch := s.watchCh
		var over bool
		var outcome error
		if s.one != nil {
			over, outcome = s.one.outcome()
		}
		s.mu.Unlock()
		if over {
			select {
			case <-time.After(s.cfg.linger):
			case <-ctx.Done():
			}
			return outcome
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case err := <-serveErr:
			return fmt.Errorf("service: server: %w", err)
		case <-ch:
		}
	}
}

// recoverLocked rebuilds the catalog from <StateDir>/runs/*: terminal
// runs are listed from their status.json (results.jsonl loaded for the
// timing model), in-flight runs replay their WAL — shard table from the
// journal, recorded results replayed, open leases invalidated. A
// one-run service refuses a state dir journaling any other spec, and
// resumes its run whatever state the previous life left it in.
func (s *Service) recoverLocked() error {
	s.leases = cluster.NewLeaseTable[runShard](s.cfg.LeaseTTL, s.cfg.now)
	runsDir := filepath.Join(s.cfg.StateDir, runsDirName)
	entries, err := os.ReadDir(runsDir)
	if err != nil {
		return fmt.Errorf("service: read runs dir: %w", err)
	}
	type rec struct {
		st  runStatus
		dir string
	}
	var recs []rec
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		dir := filepath.Join(runsDir, e.Name())
		st, err := readRunStatus(dir)
		if err != nil {
			return fmt.Errorf("service: run dir %s: %w", e.Name(), err)
		}
		if st.ID != e.Name() {
			return fmt.Errorf("service: run dir %s holds status for %s", e.Name(), st.ID)
		}
		if s.one != nil && st.Fingerprint != s.one.fp {
			return fmt.Errorf("service: state dir %s journals spec %s, but this campaign is %s — wrong -state dir or wrong configuration",
				s.cfg.StateDir, st.Fingerprint, s.one.fp)
		}
		recs = append(recs, rec{st, dir})
	}
	sort.Slice(recs, func(i, j int) bool { return recs[i].st.Seq < recs[j].st.Seq })
	grants := 0
	for _, rc := range recs {
		if rc.st.Seq > s.rseq {
			s.rseq = rc.st.Seq
		}
		r := &run{
			id: rc.st.ID, seq: rc.st.Seq, name: rc.st.Name, labels: rc.st.Labels,
			kind: rc.st.Kind, fp: rc.st.Fingerprint, priority: rc.st.Priority,
			dir: rc.dir, state: rc.st.State, failure: rc.st.Failure,
			info: cluster.CampaignInfo{Campaign: rc.st.Kind, Trials: rc.st.Trials},
		}
		if r.terminal() && s.one == nil {
			// Listing needs only status.json; results.jsonl (if the run
			// completed) feeds the timing model and the fetch endpoint.
			if rc.st.State == RunDone {
				if _, results, err := campaign.ReadCheckpoint(filepath.Join(rc.dir, resultsFileName)); err == nil {
					r.results = results
				}
			}
			s.runs[r.id] = r
			s.order = append(s.order, r.id)
			continue
		}
		landed, err := walHeaderLanded(rc.dir)
		if err != nil {
			return fmt.Errorf("service: run %s: %w", r.id, err)
		}
		if !landed {
			// Killed during admission, before the journal header was
			// flushed: the run was never acknowledged and journaled
			// nothing, so drop it rather than fail every restart.
			s.logf("service: run %s never journaled its header (killed during admission); discarding it\n", r.id)
			if err := os.RemoveAll(rc.dir); err != nil {
				return fmt.Errorf("service: discard run %s: %w", r.id, err)
			}
			continue
		}
		// A no-op for in-flight catalog runs; a one-run service resumes
		// its run even if the last life left it failed or cancelled.
		r.state, r.failure = RunRunning, ""
		g, err := s.recoverRunLocked(r)
		if err != nil {
			return fmt.Errorf("service: recover run %s: %w", r.id, err)
		}
		grants += g
		s.runs[r.id] = r
		s.order = append(s.order, r.id)
	}
	// Fresh lease IDs must never collide with journaled ones, across
	// every run's journal.
	s.leases.SetSeq(grants)
	// Retention applies at recovery too: a service restarted over a
	// catalog that outgrew Retain while it was down prunes on startup,
	// so the cap holds across restarts, not just across transitions.
	s.pruneLocked()
	return nil
}

// pruneLocked enforces Config.Retain: when more than Retain terminal
// runs exist, the oldest (by admission sequence) are deleted — run
// directory removed from disk, entry dropped from the catalog. Running
// runs never count against the cap and are never touched. A directory
// that fails to delete stays listed, so the operator sees it rather
// than a silently leaking orphan.
func (s *Service) pruneLocked() {
	if s.cfg.Retain <= 0 {
		return
	}
	var term []*run
	for _, id := range s.order {
		if s.runs[id].terminal() {
			term = append(term, s.runs[id])
		}
	}
	if len(term) <= s.cfg.Retain {
		return
	}
	sort.Slice(term, func(i, j int) bool { return term[i].seq < term[j].seq })
	pruned := make(map[string]bool)
	for _, r := range term[:len(term)-s.cfg.Retain] {
		if err := os.RemoveAll(r.dir); err != nil {
			s.logf("service: prune run %s: %v\n", r.id, err)
			continue
		}
		delete(s.runs, r.id)
		pruned[r.id] = true
		s.logf("service: pruned run %s (%s, %s) under -retain %d\n", r.id, r.kind, r.state, s.cfg.Retain)
	}
	if len(pruned) == 0 {
		return
	}
	keep := s.order[:0]
	for _, id := range s.order {
		if !pruned[id] {
			keep = append(keep, id)
		}
	}
	s.order = keep
}

// walHeaderLanded reports whether a run's WAL holds at least one
// complete line, i.e. whether its header was ever durably journaled.
func walHeaderLanded(dir string) (bool, error) {
	f, err := os.Open(campaign.WALPath(dir))
	if errors.Is(err, fs.ErrNotExist) {
		return false, nil
	}
	if err != nil {
		return false, err
	}
	defer f.Close()
	if _, err := bufio.NewReader(f).ReadBytes('\n'); err == io.EOF {
		return false, nil
	} else if err != nil {
		return false, err
	}
	return true, nil
}

// recoverRunLocked replays one in-flight run's WAL and returns its
// journaled grant count (for the service-wide lease sequence). A
// one-run service scopes the run to the trials its caller still needs:
// journaled trials outside that set were resumed from the caller's
// checkpoint since, and their results are not delivered again.
func (s *Service) recoverRunLocked(r *run) (int, error) {
	hdr, results, leaseEvents, err := campaign.ReadWAL(campaign.WALPath(r.dir))
	if err != nil {
		return 0, err
	}
	if hdr.Fingerprint != r.fp {
		return 0, fmt.Errorf("WAL journals spec %s, status.json says %s", hdr.Fingerprint, r.fp)
	}
	sp, err := spec.Decode([]byte(hdr.Spec))
	if err != nil {
		return 0, fmt.Errorf("decode journaled spec: %w", err)
	}
	built, err := s.buildFunc()(sp)
	if err != nil {
		return 0, fmt.Errorf("rebuild campaign: %w", err)
	}
	info, err := cluster.InfoOf(built.Campaign)
	if err != nil {
		return 0, err
	}
	trials, err := built.Campaign.Trials()
	if err != nil {
		return 0, err
	}
	if s.one != nil {
		trials = s.one.trials
	}
	r.built, r.info, r.trials = built, info, trials
	r.specJSON = []byte(hdr.Spec)
	r.recorded = make(map[int][]byte)
	r.remaining = len(trials)
	byID := make(map[int]campaign.Trial, len(trials))
	for _, t := range trials {
		byID[t.ID] = t
	}
	planned := make([]campaign.PlannedShard, len(hdr.Shards))
	assigned := make(map[int]string)
	for i, ws := range hdr.Shards {
		ps := campaign.PlannedShard{Label: ws.Label}
		for _, id := range ws.Trials {
			if prev, dup := assigned[id]; dup {
				return 0, fmt.Errorf("WAL assigns trial %d to both shard %s and %s", id, prev, ws.Label)
			}
			assigned[id] = ws.Label
			t, ok := byID[id]
			if !ok {
				if s.one != nil {
					continue // out of scope: already in the caller's checkpoint
				}
				return 0, fmt.Errorf("WAL shard %s names unknown trial %d", ws.Label, id)
			}
			ps.Trials = append(ps.Trials, t)
		}
		planned[i] = ps
	}
	plannerName := hdr.Planner
	if plannerName == "" {
		plannerName = "uniform"
	}
	r.installPlan(planned, plannerName)
	if len(r.trialShard) != len(trials) {
		return 0, fmt.Errorf("WAL shard table covers %d of %d pending trials (a one-run journal began after a checkpoint that no longer supplies the rest: restore that checkpoint or start a fresh state dir)",
			len(r.trialShard), len(trials))
	}
	// Replay journaled results. r.wal is still nil, so recordRunLocked
	// does not re-journal them; a replay that completes the run writes
	// results.jsonl and flips status.json right here.
	for _, res := range results {
		accepted, err := s.recordRunLocked(r, res)
		if err != nil {
			return 0, fmt.Errorf("replay result for trial %d: %w", res.TrialID, err)
		}
		if accepted {
			r.recovered++
		}
	}
	grants := campaign.GrantCount(leaseEvents)
	if r.terminal() {
		return grants, nil
	}
	wal, err := campaign.OpenWALAppend(campaign.WALPath(r.dir))
	if err != nil {
		return 0, err
	}
	r.wal = wal
	open := campaign.OpenLeases(leaseEvents)
	for _, l := range open {
		if err := r.wal.AppendLease(campaign.WALLease{Event: campaign.LeaseInvalidated, ID: l.ID}); err != nil {
			return 0, fmt.Errorf("journal lease invalidation: %w", err)
		}
		for _, st := range r.shards {
			if st.label == l.Shard && !st.done && len(st.remaining) > 0 {
				r.reassigned++
				break
			}
		}
	}
	s.logf("service: recovered run %s: %d journaled results (%d re-delivered), %d stale leases invalidated, %d/%d trials pending\n",
		r.id, len(results), r.recovered, len(open), r.remaining, len(trials))
	return grants, nil
}

// admit plans and journals a newly submitted run, then revisits the
// plans of idle runs with the refreshed timing model. The campaign is
// built by the caller (outside the lock: builds can be slow and must
// not stall worker heartbeats).
func (s *Service) admit(req *SubmitRequest, sp *spec.Spec, built *spec.Built) (SubmitResponse, error) {
	trials, err := built.Campaign.Trials()
	if err != nil {
		return SubmitResponse{}, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return SubmitResponse{}, fmt.Errorf("service: shutting down")
	}
	// Admission is a planning boundary: the accumulated cross-run
	// timing (if any) flows through the Planner seam for the new run...
	var planner campaign.Planner = campaign.UniformPlanner{}
	plannerName := "uniform"
	if timing := s.timingLocked(); len(timing) > 0 {
		planner = campaign.BalancedPlanner{Timing: timing}
		plannerName = accumulatedPlanner
	}
	r, err := s.admitLocked(sp, built, trials, req.Priority, planner, plannerName)
	if err != nil {
		return SubmitResponse{}, err
	}
	// ...and back into any running run that has no leases outstanding.
	s.replanIdleLocked(r.id)
	s.bumpLocked()
	return SubmitResponse{RunID: r.id, Fingerprint: r.fp, Trials: len(trials), Shards: len(r.shards)}, nil
}

// admitLocked creates a run over trials: its state directory, a shard
// table from planner, status.json and the WAL header.
func (s *Service) admitLocked(sp *spec.Spec, built *spec.Built, trials []campaign.Trial,
	priority int, planner campaign.Planner, plannerName string) (*run, error) {
	canonical, err := sp.Canonical()
	if err != nil {
		return nil, err
	}
	fp, err := sp.Fingerprint()
	if err != nil {
		return nil, err
	}
	info, err := cluster.InfoOf(built.Campaign)
	if err != nil {
		return nil, err
	}
	if len(trials) == 0 {
		return nil, fmt.Errorf("service: spec %s enumerates no trials", fp)
	}
	s.rseq++
	r := &run{
		id:  fmt.Sprintf("r%d-%s", s.rseq, fp[:8]),
		seq: s.rseq, name: sp.Name, labels: sp.Labels, kind: sp.Kind,
		priority: priority, fp: fp, specJSON: canonical,
		state: RunRunning, built: built, info: info, trials: trials,
		recorded: make(map[int][]byte), remaining: len(trials),
	}
	r.dir = filepath.Join(s.cfg.StateDir, runsDirName, r.id)
	if err := os.MkdirAll(r.dir, 0o755); err != nil {
		return nil, fmt.Errorf("service: run dir: %w", err)
	}
	planned, err := planner.Plan(trials, campaign.ResolveShards(s.cfg.Shards, cluster.DefaultShards, len(trials)))
	if err != nil {
		return nil, err
	}
	r.installPlan(planned, plannerName)
	if err := r.writeStatus(); err != nil {
		return nil, err
	}
	wal, err := campaign.CreateWAL(campaign.WALPath(r.dir), campaign.WALHeader{
		Campaign: info.Campaign, Trials: info.Trials, Fingerprint: fp,
		Spec: string(canonical), Planner: plannerName, Shards: r.walShards(),
	})
	if err != nil {
		return nil, err
	}
	r.wal = wal
	s.runs[r.id] = r
	s.order = append(s.order, r.id)
	s.logf("service: admitted run %s (%s, %d trials, %d shards, priority %d, planner %s)\n",
		r.id, displayName(r), len(trials), len(r.shards), r.priority, plannerName)
	return r, nil
}

// replanIdleLocked re-plans every running, currently-unleased run
// against the latest accumulated timing, journaling each new table as a
// WAL plan record so replay restores the plan actually in force. Only
// runs with zero active leases move: a worker mid-shard holds trial
// membership the service must not shuffle under it.
func (s *Service) replanIdleLocked(excludeID string) {
	timing := s.timingLocked()
	if len(timing) == 0 {
		return
	}
	planner := campaign.BalancedPlanner{Timing: timing}
	for _, id := range s.order {
		r := s.runs[id]
		if id == excludeID || r.state != RunRunning || r.remaining == 0 {
			continue
		}
		if s.activeLeasesLocked(r) > 0 {
			continue
		}
		planned, err := planner.Plan(r.trials, len(r.shards))
		if err != nil {
			continue // keep the current plan; planning is advisory
		}
		r.installPlan(planned, accumulatedPlanner)
		if r.wal != nil {
			if err := r.wal.AppendPlan(campaign.WALPlan{Planner: accumulatedPlanner, Shards: r.walShards()}); err != nil {
				s.failRunLocked(r, fmt.Sprintf("journal re-plan: %v", err))
				continue
			}
		}
		s.logf("service: re-planned run %s across %d shards from accumulated timing (%d keys)\n",
			r.id, len(r.shards), len(timing))
	}
}

// recordRunLocked folds one streamed (or WAL-replayed) result into a
// run: exactly-once recording — and, in a one-run service, exactly-once
// delivery to the caller's sink — duplicate verification, journaling,
// shard bookkeeping, completion. It reports whether the result was
// newly accepted (false for out-of-scope records and identical
// duplicates).
func (s *Service) recordRunLocked(r *run, res campaign.Result) (bool, error) {
	shard, planned := r.trialShard[res.TrialID]
	if !planned {
		return false, nil // outside the run's trial set (stale worker checkpoint)
	}
	enc, err := json.Marshal(res)
	if err != nil {
		return false, fmt.Errorf("service: marshal result for trial %d: %w", res.TrialID, err)
	}
	if prev, ok := r.recorded[res.TrialID]; ok {
		if string(prev) != string(enc) {
			return false, fmt.Errorf("service: conflicting results for trial %d of run %s — workers disagree about the campaign", res.TrialID, r.id)
		}
		return false, nil
	}
	if s.one != nil {
		// Under the service lock: campaign.Runner requires serialized
		// sink calls, and campaign.Run's sink only appends to the
		// caller's result set and checkpoint.
		if err := s.one.sink(res); err != nil {
			return false, err
		}
	}
	// Journal after the sink accepted: "in the WAL" means "delivered",
	// so replay can re-deliver journaled results a one-run caller lost.
	if r.wal != nil {
		if err := r.wal.AppendResult(res); err != nil {
			return false, fmt.Errorf("service: journal result for trial %d: %w", res.TrialID, err)
		}
	}
	r.recorded[res.TrialID] = enc
	r.results = append(r.results, res)
	st := r.shards[shard]
	delete(st.remaining, res.TrialID)
	r.remaining--
	if len(st.remaining) == 0 && !st.done {
		st.done = true
		if l := s.leases.Holder(runShard{r.id, shard}); l != nil {
			s.leases.Release(l.ID)
			r.wal.AppendLease(campaign.WALLease{Event: campaign.LeaseReleased, ID: l.ID})
		}
		s.logf("service: run %s shard %s complete (%d/%d trials)\n", r.id, st.label, len(r.recorded), r.info.Trials)
	}
	if r.remaining == 0 {
		if err := s.finishRunLocked(r); err != nil {
			return true, err
		}
	}
	return true, nil
}

// finishRunLocked completes a run: write the full results checkpoint
// atomically, flip status.json to done, close the journal.
func (s *Service) finishRunLocked(r *run) error {
	header := campaign.NewHeader(r.built.Campaign, r.info.Trials, campaign.Shard{})
	if err := campaign.WriteCheckpointAtomic(filepath.Join(r.dir, resultsFileName), header, campaign.SortedResults(r.results)); err != nil {
		s.failRunLocked(r, fmt.Sprintf("write results checkpoint: %v", err))
		return err
	}
	r.state = RunDone
	s.releaseRunLeasesLocked(r, campaign.LeaseReleased)
	if r.wal != nil {
		r.wal.Close()
		r.wal = nil
	}
	if err := r.writeStatus(); err != nil {
		s.logf("service: run %s: %v\n", r.id, err)
	}
	s.logf("service: run %s complete (%d trials) -> %s\n", r.id, len(r.results), filepath.Join(r.dir, resultsFileName))
	s.pruneLocked()
	s.bumpLocked()
	return nil
}

// failRunLocked aborts one run (the rest of the catalog keeps going).
func (s *Service) failRunLocked(r *run, msg string) {
	if r.terminal() {
		return
	}
	r.state = RunFailed
	r.failure = msg
	s.releaseRunLeasesLocked(r, campaign.LeaseInvalidated)
	if r.wal != nil {
		r.wal.Close()
		r.wal = nil
	}
	if err := r.writeStatus(); err != nil {
		s.logf("service: run %s: %v\n", r.id, err)
	}
	s.logf("service: run %s failed: %s\n", r.id, msg)
	s.pruneLocked()
	s.bumpLocked()
}

// cancelRunLocked cancels one run: leases are revoked (workers observe
// OK=false on their next heartbeat and abandon the shard).
func (s *Service) cancelRunLocked(r *run) {
	if r.terminal() {
		return
	}
	r.state = RunCancelled
	s.releaseRunLeasesLocked(r, campaign.LeaseInvalidated)
	if r.wal != nil {
		r.wal.Close()
		r.wal = nil
	}
	if err := r.writeStatus(); err != nil {
		s.logf("service: run %s: %v\n", r.id, err)
	}
	s.logf("service: run %s cancelled\n", r.id)
	s.pruneLocked()
	s.bumpLocked()
}

// releaseRunLeasesLocked drops every active lease on the run's shards,
// journaling each drop while the WAL is still open.
func (s *Service) releaseRunLeasesLocked(r *run, event string) {
	for i := range r.shards {
		if l := s.leases.Holder(runShard{r.id, i}); l != nil {
			s.leases.Release(l.ID)
			if r.wal != nil {
				r.wal.AppendLease(campaign.WALLease{Event: event, ID: l.ID})
			}
		}
	}
}

// sweepLocked expires dead leases across every run, journaling each
// expiry into the owning run's WAL.
func (s *Service) sweepLocked() {
	for _, l := range s.leases.Sweep() {
		r := s.runs[l.Key.run]
		if r == nil {
			continue
		}
		if r.wal != nil {
			r.wal.AppendLease(campaign.WALLease{Event: campaign.LeaseExpired, ID: l.ID})
		}
		if l.Key.shard < len(r.shards) {
			st := r.shards[l.Key.shard]
			if !st.done && len(st.remaining) > 0 {
				r.reassigned++
				s.logf("service: lease on run %s shard %s expired with %d trials pending; reassigning\n",
					r.id, st.label, len(st.remaining))
			}
		}
	}
}

// bumpLocked wakes every watch long-poll: the channel is closed (all
// waiters resume and re-check) and replaced.
func (s *Service) bumpLocked() {
	close(s.watchCh)
	s.watchCh = make(chan struct{})
}

// displayName renders a run's human name for logs.
func displayName(r *run) string {
	if r.name != "" {
		return fmt.Sprintf("%s %q", r.kind, r.name)
	}
	return r.kind
}

func (s *Service) logf(format string, args ...any) {
	if s.cfg.Log != nil {
		fmt.Fprintf(s.cfg.Log, format, args...)
	}
}

// runSummariesLocked renders the catalog in submission order.
func (s *Service) runSummariesLocked() []RunSummary {
	out := make([]RunSummary, 0, len(s.order))
	for _, id := range s.order {
		out = append(out, s.runs[id].summary())
	}
	return out
}

// parseWatch parses the ?watch=<duration> long-poll parameter (empty =
// no watch; bare "1"/"true" = default 25s).
func parseWatch(q string) (time.Duration, bool, error) {
	switch q {
	case "":
		return 0, false, nil
	case "1", "true":
		return 25 * time.Second, true, nil
	}
	d, err := time.ParseDuration(q)
	if err != nil {
		return 0, false, fmt.Errorf("bad watch duration %q", q)
	}
	if d <= 0 || d > 5*time.Minute {
		return 0, false, fmt.Errorf("watch duration %v outside (0, 5m]", d)
	}
	return d, true, nil
}
