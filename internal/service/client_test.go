package service

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"falvolt/internal/cluster"
)

// TestClientBoundsResponseBodies checks that the catalog client reads
// at most maxResponseBytes of any response: a body at the cap arrives
// whole, and a larger one is an error rather than a truncated result
// that `campaign runs -o` would write out as a checkpoint.
func TestClientBoundsResponseBodies(t *testing.T) {
	old := maxResponseBytes
	maxResponseBytes = 32
	t.Cleanup(func() { maxResponseBytes = old })

	bodies := map[string]string{
		"/v1/runs/fits/results": strings.Repeat("x", 32),
		"/v1/runs/big/results":  strings.Repeat("x", 33),
		"/v1/runs/big":          `{"id":"big","name":"` + strings.Repeat("x", 32) + `"}`,
	}
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		body, ok := bodies[r.URL.Path]
		if !ok {
			cluster.WriteJSONError(w, http.StatusNotFound, "no such run")
			return
		}
		io.WriteString(w, body)
	}))
	defer srv.Close()
	cl := NewClient(srv.URL, "tok")

	if data, err := cl.Results("fits"); err != nil || string(data) != bodies["/v1/runs/fits/results"] {
		t.Errorf("Results at the cap = %q, %v; want the whole body", data, err)
	}
	if data, err := cl.Results("big"); err == nil || data != nil || !strings.Contains(err.Error(), "exceeds 32 bytes") {
		t.Errorf("Results over the cap = %q, %v; want no data and an error", data, err)
	}
	if _, err := cl.Get("big"); err == nil || !strings.Contains(err.Error(), "exceeds 32 bytes") {
		t.Errorf("Get over the cap: err = %v", err)
	}
	if _, err := cl.Results("gone"); err == nil || !strings.Contains(err.Error(), "no such run (HTTP 404)") {
		t.Errorf("Results of an unknown run: err = %v, want the server's message", err)
	}
}
