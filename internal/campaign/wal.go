package campaign

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
)

// Run write-ahead log. A campaign service (internal/service) journals,
// per run, everything it would lose on a crash — which experiment the
// run is, how its trial list was split into shards, which leases were
// granted, and every result accepted — as append-only JSONL, one
// record per line, flushed per append like checkpoints. A restarted
// service replays the file (tolerating a torn final line from the
// kill), re-derives the trial bodies from the embedded spec, restores
// the exact shard table, treats journaled-but-open leases as
// invalidated, and carries on; workers re-register and resume from
// their local checkpoints.

// walVersion is bumped on incompatible WAL schema changes; readers
// refuse newer files instead of misparsing them. Version-1 files remain
// readable. Version 2 allowed plan records from a since-retired
// load-aware planner; journals holding one are refused (see readWAL).
const walVersion = 2

// walPlanner is the only shard planner a journal may name: PlanShards's
// interleaved split. CreateWAL stamps it into every header.
const walPlanner = "uniform"

// WALFileName is the journal's filename inside a run's state
// directory.
const WALFileName = "wal.jsonl"

// WALPath returns the journal path for a state directory.
func WALPath(stateDir string) string { return filepath.Join(stateDir, WALFileName) }

// WALHeader is the journal's first record: the run's identity and its
// shard plan. Fingerprint pins the canonical experiment spec — a
// restarted one-run service refuses a state dir whose fingerprint does
// not match the campaign it was asked to serve.
type WALHeader struct {
	Version  int    `json:"version"`
	Campaign string `json:"campaign"`
	// Trials is the campaign's FULL trial count (not just the pending
	// subset a one-run service was handed).
	Trials int `json:"trials"`
	// Fingerprint and Spec identify the experiment (spec.Fingerprint /
	// canonical spec JSON), making the state dir self-describing.
	Fingerprint string `json:"fingerprint"`
	Spec        string `json:"spec,omitempty"`
	// Planner names the policy that produced Shards: always "uniform"
	// (stamped by CreateWAL). Replay refuses any other name.
	Planner string `json:"planner,omitempty"`
	// Shards is the shard table: labels plus trial-ID membership. Trial
	// bodies are re-derived from the spec on replay, so the journal
	// stays small however fat the trials' tags are.
	Shards []WALShard `json:"shards"`
}

// WALShard is one journaled shard: label and membership by trial ID.
type WALShard struct {
	Label  string `json:"label"`
	Trials []int  `json:"trials"`
}

// Lease lifecycle events a coordinator journals.
const (
	// LeaseGranted: a worker was handed the shard.
	LeaseGranted = "grant"
	// LeaseReleased: the shard completed and the lease was dropped.
	LeaseReleased = "release"
	// LeaseExpired: the holder missed its heartbeat deadline; the shard
	// went back on the queue.
	LeaseExpired = "expire"
	// LeaseInvalidated: a restarted coordinator voided a lease that was
	// open when its predecessor died.
	LeaseInvalidated = "invalidate"
)

// WALLease journals one lease lifecycle event.
type WALLease struct {
	Event  string `json:"event"`
	ID     string `json:"id"`
	Worker string `json:"worker,omitempty"`
	Shard  string `json:"shard,omitempty"`
}

// walRecord is one journal line: exactly one of Header/Lease/Result
// set. Wall carries Result.Wall out of band, as checkpoints do. Plan is
// decoded only to refuse the re-plan records older builds journaled.
type walRecord struct {
	Header *WALHeader `json:"header,omitempty"`
	Plan   *struct {
		Planner string `json:"planner"`
	} `json:"plan,omitempty"`
	Lease  *WALLease `json:"lease,omitempty"`
	Result *Result   `json:"result,omitempty"`
	Wall   float64   `json:"wall,omitempty"`
}

// WAL appends journal records with per-record flushing, so a SIGKILLed
// coordinator loses at most the line being written.
type WAL struct {
	af *appendFile
}

// CreateWAL creates (truncating) a journal and writes its header line,
// stamping the current schema version and the planner (callers never
// set them).
func CreateWAL(path string, h WALHeader) (*WAL, error) {
	h.Version, h.Planner = walVersion, walPlanner
	af, err := createAppendFile(path)
	if err != nil {
		return nil, fmt.Errorf("campaign: create WAL: %w", err)
	}
	w := &WAL{af: af}
	if err := w.append(walRecord{Header: &h}); err != nil {
		af.Close()
		return nil, err
	}
	return w, nil
}

// OpenWALAppend reopens an existing journal for appending, truncating a
// torn final line first (as OpenCheckpointAppend does) so later records
// never fuse with the tail a killed coordinator left.
func OpenWALAppend(path string) (*WAL, error) {
	af, err := openAppendFile(path)
	if err != nil {
		return nil, fmt.Errorf("campaign: open WAL: %w", err)
	}
	return &WAL{af: af}, nil
}

// AppendResult journals one accepted result (wall-clock out of band).
func (w *WAL) AppendResult(r Result) error {
	return w.append(walRecord{Result: &r, Wall: r.Wall})
}

// AppendLease journals one lease lifecycle event.
func (w *WAL) AppendLease(l WALLease) error {
	return w.append(walRecord{Lease: &l})
}

func (w *WAL) append(rec walRecord) error {
	if err := w.af.appendJSON(rec); err != nil {
		return fmt.Errorf("campaign: write WAL: %w", err)
	}
	return nil
}

// Close flushes and closes the journal.
func (w *WAL) Close() error { return w.af.Close() }

// ErrNotWAL marks a file that parses as JSONL but whose header is not
// a coordinator-WAL header — most likely a plain checkpoint passed by
// mistake; genuine WAL corruption is reported as itself.
var ErrNotWAL = errors.New("not a coordinator WAL")

// ReadWAL loads a journal: header, accepted results (sorted by trial
// ID, duplicates dropped), and every lease event in order. A truncated
// final line — the record being written when the coordinator was
// killed — is dropped; corruption anywhere else is an error, as is a
// file whose header is not a WAL header (ErrNotWAL). A journal another
// planner shaped — a header naming it, or a re-plan record — is refused:
// its shard table may not be the one in force when it was written.
func ReadWAL(path string) (WALHeader, []Result, []WALLease, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return WALHeader{}, nil, nil, fmt.Errorf("campaign: read WAL: %w", err)
	}
	return readWAL(data, path)
}

// readWAL is ReadWAL over an already-loaded journal; path only names
// the source in errors.
func readWAL(data []byte, path string) (WALHeader, []Result, []WALLease, error) {
	fail := func(err error) (WALHeader, []Result, []WALLease, error) {
		return WALHeader{}, nil, nil, err
	}
	recs, err := decodeJSONL[walRecord](data, "WAL", path)
	if err != nil {
		return fail(err)
	}
	var (
		header    WALHeader
		gotHeader bool
		results   []Result
		seen      = make(map[int]bool)
		leases    []WALLease
	)
	for _, rec := range recs {
		switch {
		case rec.Header != nil:
			if gotHeader {
				return fail(fmt.Errorf("campaign: WAL %s has multiple headers", path))
			}
			if rec.Header.Version > walVersion {
				return fail(fmt.Errorf("campaign: WAL %s version %d newer than supported %d",
					path, rec.Header.Version, walVersion))
			}
			if rec.Header.Fingerprint == "" || rec.Header.Shards == nil {
				return fail(fmt.Errorf("campaign: %s is %w (checkpoint file passed by mistake?)", path, ErrNotWAL))
			}
			if p := rec.Header.Planner; p != "" && p != walPlanner {
				return fail(retiredPlanner(path, p))
			}
			header = *rec.Header
			gotHeader = true
		case rec.Plan != nil:
			if !gotHeader {
				return fail(fmt.Errorf("campaign: WAL %s: plan record before header", path))
			}
			return fail(retiredPlanner(path, rec.Plan.Planner))
		case rec.Lease != nil:
			if !gotHeader {
				return fail(fmt.Errorf("campaign: WAL %s: lease event before header", path))
			}
			leases = append(leases, *rec.Lease)
		case rec.Result != nil:
			if !gotHeader {
				return fail(fmt.Errorf("campaign: WAL %s: result before header", path))
			}
			if seen[rec.Result.TrialID] {
				continue
			}
			seen[rec.Result.TrialID] = true
			rec.Result.Wall = rec.Wall
			results = append(results, *rec.Result)
		}
	}
	if !gotHeader {
		return fail(fmt.Errorf("campaign: WAL %s has no header", path))
	}
	sortResults(results)
	return header, results, leases, nil
}

// retiredPlanner is readWAL's refusal of a journal shaped by a shard
// planner other than the uniform one, which later builds cannot
// reproduce.
func retiredPlanner(path, planner string) error {
	return fmt.Errorf("campaign: WAL %s was planned by %q, which this build no longer supports: finish the run with the build that started it, or start a fresh state dir", path, planner)
}

// OpenLeases folds a journal's lease events and returns the leases
// still open at the end — granted but never released, expired or
// invalidated. A restarted coordinator invalidates exactly these. An
// ID granted, closed, and granted again (coordinators advance their
// lease sequence across restarts, but older journals may reuse IDs)
// yields one entry, the latest grant.
func OpenLeases(events []WALLease) []WALLease {
	open := make(map[string]WALLease)
	var order []string
	for _, ev := range events {
		switch ev.Event {
		case LeaseGranted:
			open[ev.ID] = ev
			order = append(order, ev.ID)
		case LeaseReleased, LeaseExpired, LeaseInvalidated:
			delete(open, ev.ID)
		}
	}
	var out []WALLease
	emitted := make(map[string]bool)
	for _, id := range order {
		if ev, ok := open[id]; ok && !emitted[id] {
			emitted[id] = true
			out = append(out, ev)
		}
	}
	return out
}

// GrantCount returns how many grant events a journal holds — the lease
// sequence a restarted coordinator resumes from so fresh lease IDs
// never collide with journaled ones.
func GrantCount(events []WALLease) int {
	n := 0
	for _, ev := range events {
		if ev.Event == LeaseGranted {
			n++
		}
	}
	return n
}
