package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strings"
	"time"

	"falvolt/internal/cluster"
)

// Client talks to a campaign service's catalog endpoints (the worker
// protocol side lives in cluster.Worker). Used by the `campaign
// submit` / `campaign runs` / `campaign drain` subcommands and tests.
type Client struct {
	base  string
	token string
	hc    *http.Client
}

// NewClient builds a catalog client for one service.
func NewClient(base, token string) *Client {
	return &Client{
		base:  strings.TrimRight(base, "/"),
		token: token,
		// Generous timeout: watch long-polls hold the connection open
		// for up to 25s per round.
		hc: &http.Client{Timeout: 60 * time.Second},
	}
}

// NewClientTLS builds a catalog client that verifies an https:// service
// against the PEM CA bundle at caFile (empty = NewClient's behavior:
// system roots).
func NewClientTLS(base, token, caFile string) (*Client, error) {
	cl := NewClient(base, token)
	hc, err := cluster.HTTPClient(caFile, 60*time.Second)
	if err != nil {
		return nil, err
	}
	cl.hc = hc
	return cl, nil
}

// maxResponseBytes bounds every response body the client reads, like
// the worker client's cluster.MaxBodyBytes.
var maxResponseBytes int64 = cluster.MaxBodyBytes

// do sends one request and decodes the JSON response into out (skipped
// when out is nil; a *[]byte receives the raw body). Non-2xx responses
// surface the server's message, and a body over maxResponseBytes is an
// error, never a truncated read.
func (c *Client) do(method, path string, in, out any) error {
	var body io.Reader
	if in != nil {
		b, err := json.Marshal(in)
		if err != nil {
			return fmt.Errorf("service: marshal %s request: %w", path, err)
		}
		body = bytes.NewReader(b)
	}
	req, err := http.NewRequest(method, c.base+path, body)
	if err != nil {
		return fmt.Errorf("service: %s: %w", path, err)
	}
	if in != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	req.Header.Set("Authorization", "Bearer "+c.token)
	resp, err := c.hc.Do(req)
	if err != nil {
		return fmt.Errorf("service: %s: %w", path, err)
	}
	defer resp.Body.Close()
	data, err := cluster.ReadLimited(resp.Body, path+" response", maxResponseBytes)
	if err != nil {
		return fmt.Errorf("service: %w", err)
	}
	if resp.StatusCode != http.StatusOK {
		var e struct {
			Error string `json:"error"`
		}
		json.Unmarshal(data, &e)
		if e.Error != "" {
			return fmt.Errorf("service: %s: %s (HTTP %d)", path, e.Error, resp.StatusCode)
		}
		return fmt.Errorf("service: %s: HTTP %d", path, resp.StatusCode)
	}
	switch out := out.(type) {
	case nil:
		return nil
	case *[]byte:
		*out = data
		return nil
	}
	if err := json.Unmarshal(data, out); err != nil {
		return fmt.Errorf("service: decode %s response: %w", path, err)
	}
	return nil
}

// Submit enqueues a spec and returns the admitted run.
func (c *Client) Submit(specJSON []byte) (SubmitResponse, error) {
	var resp SubmitResponse
	err := c.do("POST", "/v1/runs", SubmitRequest{Spec: specJSON}, &resp)
	return resp, err
}

// List returns every catalog entry in submission order.
func (c *Client) List() (ListResponse, error) {
	var resp ListResponse
	err := c.do("GET", "/v1/runs", nil, &resp)
	return resp, err
}

// Get returns one run's summary.
func (c *Client) Get(id string) (RunSummary, error) {
	var resp RunSummary
	err := c.do("GET", "/v1/runs/"+url.PathEscape(id), nil, &resp)
	return resp, err
}

// Watch long-polls until the run reaches a terminal state.
func (c *Client) Watch(id string) (RunSummary, error) {
	for {
		var resp RunSummary
		if err := c.do("GET", "/v1/runs/"+url.PathEscape(id)+"?watch=25s", nil, &resp); err != nil {
			return RunSummary{}, err
		}
		if resp.State != RunRunning {
			return resp, nil
		}
	}
}

// Results fetches a completed run's checkpoint JSONL (header plus
// results sorted by trial ID) — mergeable like any shard file.
func (c *Client) Results(id string) ([]byte, error) {
	var data []byte
	err := c.do("GET", "/v1/runs/"+url.PathEscape(id)+"/results", nil, &data)
	return data, err
}

// Cancel cancels a run (idempotent) and returns its summary.
func (c *Client) Cancel(id string) (RunSummary, error) {
	var resp RunSummary
	err := c.do("POST", "/v1/runs/"+url.PathEscape(id)+"/cancel", struct{}{}, &resp)
	return resp, err
}

// Drain marks workers (by ID or display name) for graceful drain.
func (c *Client) Drain(worker string) (DrainResponse, error) {
	var resp DrainResponse
	err := c.do("POST", "/v1/drain", DrainRequest{Worker: worker}, &resp)
	return resp, err
}

// Status returns the service snapshot (catalog, fleet, queue depth).
func (c *Client) Status() (ServiceStatus, error) {
	var resp ServiceStatus
	err := c.do("GET", "/v1/status", nil, &resp)
	return resp, err
}
