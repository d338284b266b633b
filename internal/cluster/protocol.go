package cluster

import (
	"encoding/json"
	"fmt"
	"time"

	"falvolt/internal/campaign"
)

// The wire protocol is deliberately small: four POST endpoints under
// /v1/ (register, lease, heartbeat, results) plus a GET /v1/status
// snapshot, all JSON, every request carrying the service's bearer
// token. Trials travel service -> worker inside lease grants, together
// with the canonical experiment spec (internal/spec) of the run they
// belong to: workers build their campaign from the received bytes, so a
// worker cannot be configured differently from the run it serves.
// Results stream back worker -> service one record per completed trial.

// ProtocolVersion is bumped on incompatible wire changes; registration
// rejects mismatched versions up front. Version 4 dropped the
// single-run coordinator: registration no longer ships a spec, every
// lease grant carries its run's spec, and heartbeats no longer carry a
// campaign status.
const ProtocolVersion = 4

// DefaultShards is the per-run shard count when none is configured: a
// few shards per expected worker, so a small fleet load-balances
// without making shards so fine that lease traffic dominates.
const DefaultShards = 8

// DefaultLeaseTTL is the lease deadline when none is configured.
// Workers heartbeat at a third of the TTL, so a worker death is
// detected within one TTL while three missed heartbeats are tolerated.
const DefaultLeaseTTL = 15 * time.Second

// Lease-response statuses.
const (
	// StatusLease: a shard lease was granted; Trials holds the work.
	StatusLease = "lease"
	// StatusWait: no shard is schedulable right now; poll again.
	StatusWait = "wait"
	// StatusDone: a one-run service's run has a result for every trial;
	// the worker can exit.
	StatusDone = "done"
	// StatusFailed: a one-run service's run aborted (trial error, sink
	// error, result conflict); Error carries the cause.
	StatusFailed = "failed"
)

// CampaignInfo identifies a campaign: its name and full trial count.
type CampaignInfo struct {
	Campaign string
	Trials   int
}

// InfoOf extracts a campaign's identity.
func InfoOf(c campaign.Campaign) (CampaignInfo, error) {
	trials, err := c.Trials()
	if err != nil {
		return CampaignInfo{}, fmt.Errorf("cluster: enumerate %s: %w", c.Name(), err)
	}
	return CampaignInfo{Campaign: c.Name(), Trials: len(trials)}, nil
}

// RegisterRequest enrolls a worker with a service. The worker brings
// nothing but a name and its protocol version — campaign
// configuration arrives later, inside each lease grant.
type RegisterRequest struct {
	// Worker is a self-chosen display name (host:pid by default).
	Worker string `json:"worker"`
	// Proto is the worker's wire-protocol version; the service rejects
	// mismatches at registration instead of failing obscurely
	// mid-campaign.
	Proto int `json:"proto"`
}

// RegisterResponse acknowledges registration.
type RegisterResponse struct {
	WorkerID string `json:"workerID"`
	// LeaseTTLMillis tells the worker how often to heartbeat (a third
	// of the TTL).
	LeaseTTLMillis int64 `json:"leaseTTLMillis"`
}

// LeaseRequest asks for a shard of work.
type LeaseRequest struct {
	WorkerID string `json:"workerID"`
}

// LeaseResponse grants a shard (StatusLease) or reports the service
// state (StatusWait / StatusDone / StatusFailed).
type LeaseResponse struct {
	Status  string `json:"status"`
	LeaseID string `json:"leaseID,omitempty"`
	// Shard labels the granted shard in campaign.Shard "i/n" form; the
	// worker's local checkpoint header records it, so a restarted
	// worker resumes iff it is re-granted the same shard.
	Shard string `json:"shard,omitempty"`
	// Trials are the shard's trials still missing results at the
	// service, sorted by ID — a reassigned shard only re-runs what its
	// dead worker never delivered.
	Trials []campaign.Trial `json:"trials,omitempty"`
	Error  string           `json:"error,omitempty"`

	// RunID names the catalog run this lease belongs to (echoed back in
	// ResultsRequest so results route to the right run).
	RunID string `json:"runID,omitempty"`
	// Spec is the run's canonical spec JSON. Workers cache built
	// campaigns by Fingerprint, so a fleet serving N concurrent runs
	// builds each distinct experiment once.
	Spec json.RawMessage `json:"spec,omitempty"`
	// Fingerprint digests Spec.
	Fingerprint string `json:"fingerprint,omitempty"`
	// Drain tells an idle worker to exit now instead of polling again
	// (graceful scale-down).
	Drain bool `json:"drain,omitempty"`
}

// HeartbeatRequest renews a lease.
type HeartbeatRequest struct {
	WorkerID string `json:"workerID"`
	LeaseID  string `json:"leaseID"`
}

// HeartbeatResponse reports whether the lease is still held. OK=false
// means the lease expired or was reassigned: the worker must abandon
// the shard (its results so far are kept).
type HeartbeatResponse struct {
	OK bool `json:"ok"`
	// Drain asks the worker to finish its current shard, then exit
	// instead of taking another lease (graceful scale-down). Unlike
	// OK=false it never aborts in-flight work.
	Drain bool `json:"drain,omitempty"`
}

// ResultsRequest streams completed trial results (or a fatal trial
// error) back to the service.
type ResultsRequest struct {
	WorkerID string `json:"workerID"`
	LeaseID  string `json:"leaseID,omitempty"`
	// RunID routes the batch to its catalog run (echoed from the lease
	// grant).
	RunID   string            `json:"runID,omitempty"`
	Results []campaign.Result `json:"results,omitempty"`
	// Wall carries Results[i].Wall (seconds), which canonical result
	// JSON excludes, so service-side checkpoints keep per-trial timing.
	Wall []float64 `json:"wall,omitempty"`
	// TrialErr aborts the whole run: trials are deterministic, so
	// another worker would fail the same way.
	TrialErr string `json:"trialErr,omitempty"`
}

// ResultsResponse acknowledges a results batch.
type ResultsResponse struct {
	OK bool `json:"ok"`
}
