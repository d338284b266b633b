package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"

	"falvolt/internal/spec"
)

// Run lifecycle states, as reported by the catalog endpoints and
// persisted in each run's status.json.
const (
	// RunRunning: the run is schedulable (it may still be waiting for
	// its first worker).
	RunRunning = "running"
	// RunDone: every trial has a result; results.jsonl is complete.
	RunDone = "done"
	// RunFailed: a deterministic trial error or result conflict aborted
	// the run; Failure carries the cause.
	RunFailed = "failed"
	// RunCancelled: the run was cancelled via the catalog; its leases
	// were revoked.
	RunCancelled = "cancelled"
)

// SubmitRequest is the POST /v1/runs body: the experiment spec to
// enqueue. The spec's execution-only Name and Labels fields annotate
// the catalog entry.
type SubmitRequest struct {
	// Spec is the experiment spec JSON (internal/spec), decoded
	// strictly: unknown fields and invalid values are rejected at the
	// door, not at build time.
	Spec json.RawMessage `json:"spec"`
}

// DecodeSubmit strictly decodes a submit-endpoint body into its spec:
// unknown envelope fields, trailing data, and a missing or invalid spec
// are all errors. This is the service's untrusted-input surface (see
// FuzzDecodeSubmit).
func DecodeSubmit(data []byte) (*spec.Spec, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var req SubmitRequest
	if err := dec.Decode(&req); err != nil {
		return nil, fmt.Errorf("service: decode submit request: %w", err)
	}
	var trailing json.RawMessage
	if err := dec.Decode(&trailing); err != io.EOF {
		return nil, fmt.Errorf("service: decode submit request: trailing data after request object")
	}
	if len(req.Spec) == 0 {
		return nil, fmt.Errorf("service: submit request has no spec")
	}
	return spec.Decode(req.Spec)
}

// SubmitResponse acknowledges an admitted run.
type SubmitResponse struct {
	RunID       string `json:"runID"`
	Fingerprint string `json:"fingerprint"`
	Trials      int    `json:"trials"`
	Shards      int    `json:"shards"`
}

// RunSummary is one catalog entry, as returned by list/get/watch.
type RunSummary struct {
	ID          string            `json:"id"`
	Name        string            `json:"name,omitempty"`
	Labels      map[string]string `json:"labels,omitempty"`
	Kind        string            `json:"kind"`
	Fingerprint string            `json:"fingerprint"`
	State       string            `json:"state"`
	Failure     string            `json:"failure,omitempty"`
	// Trials and Done count the run's full trial set and the results
	// recorded so far.
	Trials int `json:"trials"`
	Done   int `json:"done"`
	Shards int `json:"shards,omitempty"`
	// Recovered counts results this service epoch replayed from the
	// run's WAL after a restart.
	Recovered int `json:"recovered,omitempty"`
	// Reassigned counts lease expiries that put a shard with pending
	// work back on the queue.
	Reassigned int `json:"reassigned,omitempty"`
}

// ListResponse is the GET /v1/runs body: every catalog entry in
// submission order.
type ListResponse struct {
	Runs []RunSummary `json:"runs"`
}

// DrainRequest asks the service to gracefully drain workers: each
// finishes its current shard, then exits instead of leasing more work.
type DrainRequest struct {
	// Worker matches a worker ID ("w3-host-42") or display name; every
	// match drains.
	Worker string `json:"worker"`
}

// DrainResponse reports how many workers were marked for drain.
type DrainResponse struct {
	Drained int `json:"drained"`
}

// ServiceStatus is the GET /v1/status snapshot: catalog, fleet size
// and queue depth.
type ServiceStatus struct {
	Runs    []RunSummary `json:"runs"`
	Workers int          `json:"workers"`
	// OpenShards counts schedulable shards with no lease holder across
	// all running runs.
	OpenShards int `json:"openShards"`
}
