package service_test

import (
	"encoding/json"
	"strings"
	"testing"

	"falvolt/internal/service"

	_ "falvolt/internal/core"
	_ "falvolt/internal/experiments"
)

// FuzzDecodeSubmit: arbitrary bytes through the submit-endpoint
// decoder, the service's only write surface reachable from outside the
// worker protocol. Malformed envelopes and specs must be rejected with
// an error, never a panic, and whatever is accepted must satisfy the
// endpoint's invariants (a decoded spec, an envelope holding nothing
// but the spec). Submissions carry no scheduling priority: the seeds
// that still send one are refused as unknown fields.
func FuzzDecodeSubmit(f *testing.F) {
	seeds := []string{
		`{"spec": {"version": 1, "kind": "selftest", "selftest": {"trials": 4}}}`,
		`{"spec": {"version": 1, "kind": "selftest", "name": "smoke", "labels": {"team": "rel"}}, "priority": 10}`,
		`{"spec": {"version": 1, "kind": "selftest", "name": "a\u0000b"}}`,
		`{"spec": {"version": 1, "kind": "faultmodel", "faultModel": {"model": {"kind": "bitflip"}}}, "priority": 100}`,
		`{"spec": {"version": 1, "kind": "selftest"}, "priority": 101}`,
		`{"spec": {"version": 1, "kind": "selftest"}, "priority": -101}`,
		`{"spec": {"version": 1, "kind": "selftest"}, "priority": -1}`,
		`{"spec": {"version": 1, "kind": "selftest"}, "unknown": true}`,
		`{"spec": {"version": 1, "kind": "selftest"}} trailing`,
		`{"spec": null}`,
		`{"priority": 5}`,
		`{}`,
		`not json`,
		``,
	}
	for _, s := range seeds {
		f.Add([]byte(s))
		if !strings.Contains(s, `"priority"`) {
			continue
		}
		if _, err := service.DecodeSubmit([]byte(s)); err == nil || !strings.Contains(err.Error(), `unknown field "priority"`) {
			f.Fatalf("submit %s: err = %v, want the priority refused as an unknown field", s, err)
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		sp, err := service.DecodeSubmit(data)
		if err != nil {
			return // rejected is fine; panicking is the bug
		}
		if sp == nil {
			t.Fatal("accepted submit returned a nil spec")
		}
		var envelope map[string]json.RawMessage
		if err := json.Unmarshal(data, &envelope); err != nil {
			t.Fatalf("accepted submit is not a JSON object: %v", err)
		}
		for k := range envelope {
			if !strings.EqualFold(k, "spec") {
				t.Fatalf("accepted submit carries envelope field %q", k)
			}
		}
		if _, err := sp.Fingerprint(); err != nil {
			t.Fatalf("accepted spec does not fingerprint: %v", err)
		}
	})
}
