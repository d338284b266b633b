package service

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"falvolt/internal/campaign"
	"falvolt/internal/cluster"
	"falvolt/internal/spec"
)

// runsDirName is the catalog subdirectory of the service state dir;
// each run owns <StateDir>/runs/<runID>/.
const runsDirName = "runs"

// Per-run state files. wal.jsonl is campaign.WALFileName.
const (
	// statusFileName holds the run's catalog metadata and lifecycle
	// state, rewritten atomically on every transition.
	statusFileName = "status.json"
	// resultsFileName is the completed run's checkpoint (header plus
	// results sorted by trial ID), written atomically at completion and
	// served by GET /v1/runs/{id}/results. It merges like any shard
	// file and byte-identically to a single-process run.
	resultsFileName = "results.jsonl"
)

// run is one catalog entry: an admitted spec, its scheduling state, and
// its durability hooks. All fields are guarded by the service mutex.
type run struct {
	id       string
	seq      int
	name     string
	labels   map[string]string
	kind     string
	fp       string
	specJSON []byte // canonical spec, shipped in lease grants
	dir      string

	state   string
	failure string

	// Execution state; nil/empty for terminal runs loaded at recovery.
	built      *spec.Built
	info       cluster.CampaignInfo
	trials     []campaign.Trial
	shards     []*shardState
	trialShard map[int]int // trial ID -> shard index
	recorded   map[int][]byte
	results    []campaign.Result
	remaining  int
	wal        *campaign.WAL
	// done is a terminal run's result count as its status.json
	// recorded it (runs recovered without replay have no recorded set).
	done int

	deficit    float64
	recovered  int
	reassigned int
}

// shardState is one shard's scheduling state within a run.
type shardState struct {
	label     string
	trials    []campaign.Trial
	remaining map[int]campaign.Trial
	done      bool
}

// terminal reports whether the run reached a final state.
func (r *run) terminal() bool { return r.state != RunRunning }

// doneCount is the number of recorded results.
func (r *run) doneCount() int {
	if r.recorded != nil {
		return len(r.recorded)
	}
	return r.done
}

// summary renders the run's catalog entry.
func (r *run) summary() RunSummary {
	return RunSummary{
		ID: r.id, Name: r.name, Labels: r.labels, Kind: r.kind,
		Fingerprint: r.fp, State: r.state,
		Failure: r.failure, Trials: r.info.Trials, Done: r.doneCount(),
		Shards: len(r.shards), Recovered: r.recovered,
		Reassigned: r.reassigned,
	}
}

// runStatus is the status.json schema: everything a restarted service
// needs to list the run without replaying its WAL. For in-flight runs
// the WAL stays authoritative for results and the shard table; Done
// here is only refreshed on state transitions.
type runStatus struct {
	ID          string            `json:"id"`
	Seq         int               `json:"seq"`
	Name        string            `json:"name,omitempty"`
	Labels      map[string]string `json:"labels,omitempty"`
	Kind        string            `json:"kind"`
	Fingerprint string            `json:"fingerprint"`
	Trials      int               `json:"trials"`
	State       string            `json:"state"`
	Failure     string            `json:"failure,omitempty"`
	Done        int               `json:"done"`
}

// writeStatus persists the run's catalog state atomically: a crash
// mid-transition leaves either the old record or the new one, never a
// torn file.
func (r *run) writeStatus() error {
	st := runStatus{
		ID: r.id, Seq: r.seq, Name: r.name, Labels: r.labels,
		Kind: r.kind, Fingerprint: r.fp, Trials: r.info.Trials, State: r.state, Failure: r.failure,
		Done: r.doneCount(),
	}
	b, err := json.MarshalIndent(st, "", "  ")
	if err != nil {
		return fmt.Errorf("service: marshal run status: %w", err)
	}
	if err := campaign.WriteFileAtomic(filepath.Join(r.dir, statusFileName), append(b, '\n')); err != nil {
		return fmt.Errorf("service: write run status: %w", err)
	}
	return nil
}

// readRunStatus loads one run directory's status.json.
func readRunStatus(dir string) (runStatus, error) {
	data, err := os.ReadFile(filepath.Join(dir, statusFileName))
	if err != nil {
		return runStatus{}, err
	}
	var st runStatus
	if err := json.Unmarshal(data, &st); err != nil {
		return runStatus{}, fmt.Errorf("service: parse %s: %w", filepath.Join(dir, statusFileName), err)
	}
	if st.ID == "" || st.State == "" {
		return runStatus{}, fmt.Errorf("service: %s is missing id or state", filepath.Join(dir, statusFileName))
	}
	return st, nil
}

// installPlan builds the run's shard table from a planned split,
// deriving each shard's pending set from what is already recorded.
func (r *run) installPlan(planned []campaign.PlannedShard) {
	r.shards = r.shards[:0]
	r.trialShard = make(map[int]int, len(r.trials))
	for _, ps := range planned {
		st := &shardState{label: ps.Label, trials: ps.Trials, remaining: make(map[int]campaign.Trial)}
		for _, t := range ps.Trials {
			r.trialShard[t.ID] = len(r.shards)
			if _, done := r.recorded[t.ID]; !done {
				st.remaining[t.ID] = t
			}
		}
		st.done = len(st.remaining) == 0
		r.shards = append(r.shards, st)
	}
}

// walShards renders the run's current shard table in journal form.
func (r *run) walShards() []campaign.WALShard {
	out := make([]campaign.WALShard, len(r.shards))
	for i, st := range r.shards {
		ids := make([]int, 0, len(st.trials))
		for _, t := range st.trials {
			ids = append(ids, t.ID)
		}
		sort.Ints(ids)
		out[i] = campaign.WALShard{Label: st.label, Trials: ids}
	}
	return out
}
