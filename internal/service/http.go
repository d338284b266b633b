package service

import (
	"crypto/subtle"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"falvolt/internal/campaign"
	"falvolt/internal/cluster"
)

// mux wires every endpoint — the cluster worker protocol and the run
// catalog — behind the bearer-token check.
func (s *Service) mux() *http.ServeMux {
	m := http.NewServeMux()
	// Worker protocol (cluster wire types, service-mode fields).
	m.HandleFunc("POST /v1/register", s.auth(s.handleRegister))
	m.HandleFunc("POST /v1/lease", s.auth(s.handleLease))
	m.HandleFunc("POST /v1/heartbeat", s.auth(s.handleHeartbeat))
	m.HandleFunc("POST /v1/results", s.auth(s.handleResults))
	m.HandleFunc("GET /v1/status", s.auth(s.handleStatus))
	// Run catalog.
	m.HandleFunc("POST /v1/runs", s.auth(s.handleSubmit))
	m.HandleFunc("GET /v1/runs", s.auth(s.handleList))
	m.HandleFunc("GET /v1/runs/{id}", s.auth(s.handleGet))
	m.HandleFunc("GET /v1/runs/{id}/results", s.auth(s.handleFetchResults))
	m.HandleFunc("POST /v1/runs/{id}/cancel", s.auth(s.handleCancel))
	// Mark workers for graceful drain.
	m.HandleFunc("POST /v1/drain", s.auth(s.handleDrain))
	return m
}

// auth enforces the bearer token on an endpoint, comparing in constant
// time so the token is not recoverable by timing.
func (s *Service) auth(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		tok, ok := strings.CutPrefix(r.Header.Get("Authorization"), "Bearer ")
		if !ok || subtle.ConstantTimeCompare([]byte(tok), []byte(s.cfg.Token)) != 1 {
			cluster.WriteJSONError(w, http.StatusUnauthorized, "missing or invalid bearer token")
			return
		}
		h(w, r)
	}
}

func (s *Service) handleRegister(w http.ResponseWriter, r *http.Request) {
	var req cluster.RegisterRequest
	if !cluster.ReadJSON(w, r, &req) {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if req.Proto != cluster.ProtocolVersion {
		cluster.WriteJSONError(w, http.StatusConflict, fmt.Sprintf(
			"protocol version mismatch: worker %q speaks v%d, service v%d — rebuild the worker",
			req.Worker, req.Proto, cluster.ProtocolVersion))
		return
	}
	s.wseq++
	id := fmt.Sprintf("w%d-%s", s.wseq, req.Worker)
	s.workers[id] = &workerState{name: req.Worker}
	s.logf("service: registered worker %s\n", id)
	cluster.WriteJSON(w, cluster.RegisterResponse{
		WorkerID:       id,
		LeaseTTLMillis: s.cfg.LeaseTTL.Milliseconds(),
	})
}

// workerSeen authenticates a worker ID against the fleet table (403
// sends the worker back through registration).
func (s *Service) workerSeen(w http.ResponseWriter, id string) *workerState {
	ws, ok := s.workers[id]
	if !ok {
		cluster.WriteJSONError(w, http.StatusForbidden, fmt.Sprintf("unknown worker %q: register first", id))
		return nil
	}
	return ws
}

func (s *Service) handleLease(w http.ResponseWriter, r *http.Request) {
	var req cluster.LeaseRequest
	if !cluster.ReadJSON(w, r, &req) {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		cluster.WriteJSONError(w, http.StatusServiceUnavailable, "service shutting down")
		return
	}
	ws := s.workerSeen(w, req.WorkerID)
	if ws == nil {
		return
	}
	if s.one != nil {
		if resp, over := s.one.leaseOutcome(); over {
			cluster.WriteJSON(w, resp)
			return
		}
	}
	s.sweepLocked()
	if ws.drain && s.leases.Held(req.WorkerID) == 0 {
		// Graceful scale-down completes here: the worker is idle, tell
		// it to exit and retire its fleet entry.
		delete(s.workers, req.WorkerID)
		s.logf("service: drained worker %s\n", req.WorkerID)
		cluster.WriteJSON(w, cluster.LeaseResponse{Status: cluster.StatusWait, Drain: true})
		return
	}
	run, shard := s.pickLocked()
	if run == nil {
		cluster.WriteJSON(w, cluster.LeaseResponse{Status: cluster.StatusWait})
		return
	}
	st := run.shards[shard]
	l := s.leases.Grant(req.WorkerID, runShard{run.id, shard})
	if run.wal != nil {
		if err := run.wal.AppendLease(campaign.WALLease{
			Event: campaign.LeaseGranted, ID: l.ID, Worker: req.WorkerID, Shard: st.label,
		}); err != nil {
			s.leases.Release(l.ID)
			s.failRunLocked(run, fmt.Sprintf("journal lease grant: %v", err))
			cluster.WriteJSON(w, cluster.LeaseResponse{Status: cluster.StatusWait})
			return
		}
	}
	pending := make([]campaign.Trial, 0, len(st.remaining))
	for _, t := range st.remaining {
		pending = append(pending, t)
	}
	sort.Slice(pending, func(a, b int) bool { return pending[a].ID < pending[b].ID })
	s.logf("service: leased run %s shard %s (%d trials pending) to %s as %s\n",
		run.id, st.label, len(pending), req.WorkerID, l.ID)
	cluster.WriteJSON(w, cluster.LeaseResponse{
		Status: cluster.StatusLease, LeaseID: l.ID, Shard: st.label, Trials: pending,
		RunID: run.id, Spec: json.RawMessage(run.specJSON), Fingerprint: run.fp,
	})
}

func (s *Service) handleHeartbeat(w http.ResponseWriter, r *http.Request) {
	var req cluster.HeartbeatRequest
	if !cluster.ReadJSON(w, r, &req) {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	ws := s.workerSeen(w, req.WorkerID)
	if ws == nil {
		return
	}
	cluster.WriteJSON(w, cluster.HeartbeatResponse{
		OK:    s.leases.Renew(req.LeaseID),
		Drain: ws.drain,
	})
}

func (s *Service) handleResults(w http.ResponseWriter, r *http.Request) {
	var req cluster.ResultsRequest
	if !cluster.ReadJSON(w, r, &req) {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		cluster.WriteJSONError(w, http.StatusServiceUnavailable, "service shutting down")
		return
	}
	if s.workerSeen(w, req.WorkerID) == nil {
		return
	}
	run := s.runs[req.RunID]
	if run == nil || run.terminal() {
		// A slow worker streaming into a run that is already over (or a
		// batch for an unknown run) is dropped, not an error: its trials
		// are deterministic duplicates of recorded ones.
		cluster.WriteJSON(w, cluster.ResultsResponse{OK: true})
		return
	}
	if req.TrialErr != "" {
		s.failRunLocked(run, fmt.Sprintf("worker %s: %s", req.WorkerID, req.TrialErr))
		cluster.WriteJSON(w, cluster.ResultsResponse{OK: true})
		return
	}
	for i, res := range req.Results {
		if i < len(req.Wall) {
			res.Wall = req.Wall[i]
		}
		if _, err := s.recordRunLocked(run, res); err != nil {
			s.failRunLocked(run, err.Error())
			break
		}
	}
	cluster.WriteJSON(w, cluster.ResultsResponse{OK: true})
}

func (s *Service) handleStatus(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	defer s.mu.Unlock()
	cluster.WriteJSON(w, ServiceStatus{
		Runs:       s.runSummariesLocked(),
		Workers:    len(s.workers),
		OpenShards: s.openShardsLocked(),
	})
}

func (s *Service) handleSubmit(w http.ResponseWriter, r *http.Request) {
	if s.one != nil {
		cluster.WriteJSONError(w, http.StatusConflict, "this is a one-run service (`campaign serve`); submit specs to a `campaign service`")
		return
	}
	data, err := cluster.ReadLimited(r.Body, r.URL.Path+" request", cluster.MaxBodyBytes)
	if err != nil {
		cluster.WriteJSONError(w, http.StatusBadRequest, fmt.Sprintf("bad request: %v", err))
		return
	}
	sp, err := DecodeSubmit(data)
	if err != nil {
		cluster.WriteJSONError(w, http.StatusBadRequest, err.Error())
		return
	}
	// Built outside the service lock: a slow build (baseline training)
	// must not stall the fleet's heartbeats.
	built, err := s.buildFunc()(sp)
	if err != nil {
		cluster.WriteJSONError(w, http.StatusUnprocessableEntity, fmt.Sprintf("spec does not build: %v", err))
		return
	}
	resp, err := s.admit(sp, built)
	if err != nil {
		cluster.WriteJSONError(w, http.StatusInternalServerError, err.Error())
		return
	}
	cluster.WriteJSON(w, resp)
}

func (s *Service) handleList(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	defer s.mu.Unlock()
	cluster.WriteJSON(w, ListResponse{Runs: s.runSummariesLocked()})
}

// handleGet returns one run's summary; ?watch=<duration> long-polls
// until the run reaches a terminal state or the window expires (the
// caller loops).
func (s *Service) handleGet(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	window, watching, err := parseWatch(r.URL.Query().Get("watch"))
	if err != nil {
		cluster.WriteJSONError(w, http.StatusBadRequest, err.Error())
		return
	}
	deadline := time.Now().Add(window)
	for {
		s.mu.Lock()
		run := s.runs[id]
		if run == nil {
			s.mu.Unlock()
			cluster.WriteJSONError(w, http.StatusNotFound, fmt.Sprintf("unknown run %q", id))
			return
		}
		sum := run.summary()
		done := run.terminal()
		ch := s.watchCh
		s.mu.Unlock()
		if !watching || done || !time.Now().Before(deadline) {
			cluster.WriteJSON(w, sum)
			return
		}
		select {
		case <-ch:
		case <-time.After(time.Until(deadline)):
		case <-r.Context().Done():
			return
		}
	}
}

func (s *Service) handleFetchResults(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	s.mu.Lock()
	run := s.runs[id]
	var state, path string
	if run != nil {
		state = run.state
		path = filepath.Join(run.dir, resultsFileName)
	}
	s.mu.Unlock()
	if run == nil {
		cluster.WriteJSONError(w, http.StatusNotFound, fmt.Sprintf("unknown run %q", id))
		return
	}
	if state != RunDone {
		cluster.WriteJSONError(w, http.StatusConflict, fmt.Sprintf("run %s is %s; results are only served for completed runs", id, state))
		return
	}
	data, err := os.ReadFile(path)
	if err != nil {
		cluster.WriteJSONError(w, http.StatusInternalServerError, fmt.Sprintf("read results: %v", err))
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Write(data)
}

func (s *Service) handleCancel(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	s.mu.Lock()
	defer s.mu.Unlock()
	run := s.runs[id]
	if run == nil {
		cluster.WriteJSONError(w, http.StatusNotFound, fmt.Sprintf("unknown run %q", id))
		return
	}
	s.cancelRunLocked(run) // idempotent: a terminal run is left as-is
	cluster.WriteJSON(w, run.summary())
}

func (s *Service) handleDrain(w http.ResponseWriter, r *http.Request) {
	var req DrainRequest
	if !cluster.ReadJSON(w, r, &req) {
		return
	}
	if req.Worker == "" {
		cluster.WriteJSONError(w, http.StatusBadRequest, "drain needs a worker ID or name")
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for id, ws := range s.workers {
		if id == req.Worker || ws.name == req.Worker {
			if !ws.drain {
				ws.drain = true
				s.logf("service: marked worker %s for drain\n", id)
			}
			n++
		}
	}
	if n == 0 {
		cluster.WriteJSONError(w, http.StatusNotFound, fmt.Sprintf("no worker matches %q", req.Worker))
		return
	}
	cluster.WriteJSON(w, DrainResponse{Drained: n})
}
