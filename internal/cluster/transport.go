package cluster

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"
)

// MaxBodyBytes bounds request/response bodies. Lease grants carry at
// most one shard's trial list and results stream in small batches, so
// 64 MiB is far above any legitimate message.
const MaxBodyBytes = 64 << 20

// client is the worker side of the wire protocol. A non-empty token is
// sent as a bearer credential on every request (services require one).
// A non-empty caFile makes HTTPS connections verify against that CA
// bundle instead of the system roots; a bundle that fails to load is
// surfaced on every call rather than at construction, so NewWorker
// stays infallible.
type client struct {
	base  string
	token string
	hc    *http.Client
	err   error
}

func newClient(base, token, caFile string) *client {
	cl := &client{base: strings.TrimRight(base, "/"), token: token}
	cl.hc, cl.err = HTTPClient(caFile, 30*time.Second)
	return cl
}

// statusError is a non-2xx protocol reply — a deliberate rejection
// (protocol mismatch, bad token, unknown worker), as opposed to a transport
// error worth retrying.
type statusError struct {
	code int
	msg  string
}

func (e *statusError) Error() string {
	if e.msg != "" {
		return fmt.Sprintf("%s (HTTP %d)", e.msg, e.code)
	}
	return fmt.Sprintf("HTTP %d", e.code)
}

// post sends one JSON request and decodes the JSON response. Non-2xx
// responses come back as *statusError carrying the server's message;
// other errors are transport failures.
func (cl *client) post(path string, in, out any) error {
	if cl.err != nil {
		return cl.err
	}
	body, err := json.Marshal(in)
	if err != nil {
		return fmt.Errorf("cluster: marshal %s request: %w", path, err)
	}
	req, err := http.NewRequest(http.MethodPost, cl.base+path, bytes.NewReader(body))
	if err != nil {
		return fmt.Errorf("cluster: %s: %w", path, err)
	}
	req.Header.Set("Content-Type", "application/json")
	if cl.token != "" {
		req.Header.Set("Authorization", "Bearer "+cl.token)
	}
	resp, err := cl.hc.Do(req)
	if err != nil {
		return fmt.Errorf("cluster: %s: %w", path, err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(io.LimitReader(resp.Body, MaxBodyBytes))
	if err != nil {
		return fmt.Errorf("cluster: read %s response: %w", path, err)
	}
	if resp.StatusCode != http.StatusOK {
		var e struct {
			Error string `json:"error"`
		}
		json.Unmarshal(data, &e)
		return fmt.Errorf("cluster: %s: %w", path, &statusError{code: resp.StatusCode, msg: e.Error})
	}
	if err := json.Unmarshal(data, out); err != nil {
		return fmt.Errorf("cluster: decode %s response: %w", path, err)
	}
	return nil
}

func (cl *client) register(req RegisterRequest) (RegisterResponse, error) {
	var resp RegisterResponse
	err := cl.post("/v1/register", req, &resp)
	return resp, err
}

func (cl *client) lease(req LeaseRequest) (LeaseResponse, error) {
	var resp LeaseResponse
	err := cl.post("/v1/lease", req, &resp)
	return resp, err
}

func (cl *client) heartbeat(req HeartbeatRequest) (HeartbeatResponse, error) {
	var resp HeartbeatResponse
	err := cl.post("/v1/heartbeat", req, &resp)
	return resp, err
}

func (cl *client) results(req ResultsRequest) (ResultsResponse, error) {
	var resp ResultsResponse
	err := cl.post("/v1/results", req, &resp)
	return resp, err
}

// ReadJSON decodes a request body, replying 400 on malformed input.
func ReadJSON(w http.ResponseWriter, r *http.Request, v any) bool {
	data, err := io.ReadAll(io.LimitReader(r.Body, MaxBodyBytes))
	if err == nil {
		err = json.Unmarshal(data, v)
	}
	if err != nil {
		WriteJSONError(w, http.StatusBadRequest, fmt.Sprintf("bad request: %v", err))
		return false
	}
	return true
}

// WriteJSON replies 200 with a JSON body.
func WriteJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(v)
}

// WriteJSONError replies with a JSON {"error": ...} body.
func WriteJSONError(w http.ResponseWriter, code int, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(struct {
		Error string `json:"error"`
	}{msg})
}
