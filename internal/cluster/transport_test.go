package cluster

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// TestBodiesOverTheLimitAreRefused checks both ends of the wire
// protocol against a lowered body limit: a body at the limit arrives
// whole, and a longer one fails with an error naming its path and the
// limit instead of being truncated into a JSON decode error.
func TestBodiesOverTheLimitAreRefused(t *testing.T) {
	old := maxBody
	maxBody = 32
	t.Cleanup(func() { maxBody = old })

	fits := `{"k":"` + strings.Repeat("x", 24) + `"}` // 32 bytes
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case "/v1/echo":
			var v map[string]string
			if ReadJSON(w, r, &v) {
				io.WriteString(w, fits)
			}
		case "/v1/fits":
			io.WriteString(w, fits)
		case "/v1/big":
			io.WriteString(w, fits+" ")
		}
	}))
	defer srv.Close()
	cl := newClient(srv.URL, "", "")

	var out map[string]string
	if err := cl.post("/v1/fits", struct{}{}, &out); err != nil || len(out["k"]) != 24 {
		t.Errorf("response at the limit: %v, %v; want it decoded whole", out, err)
	}
	err := cl.post("/v1/big", struct{}{}, &out)
	if err == nil || !strings.Contains(err.Error(), "/v1/big response exceeds 32 bytes") {
		t.Errorf("response over the limit: err = %v", err)
	}
	if err := cl.post("/v1/echo", map[string]string{"k": strings.Repeat("x", 24)}, &out); err != nil {
		t.Errorf("request at the limit: %v", err)
	}
	// The 400 reply would itself exceed the lowered limit, so the
	// server end is checked directly.
	rec := httptest.NewRecorder()
	req := httptest.NewRequest(http.MethodPost, "/v1/echo", strings.NewReader(fits+" "))
	if ReadJSON(rec, req, &out) || rec.Code != http.StatusBadRequest ||
		!strings.Contains(rec.Body.String(), "/v1/echo request exceeds 32 bytes") {
		t.Errorf("request over the limit: HTTP %d %q, want a 400 naming the path and limit", rec.Code, rec.Body)
	}
}
