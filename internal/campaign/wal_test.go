package campaign

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// walFixtureHeader is a fixed coordinator-journal header used by the
// golden and round-trip tests.
func walFixtureHeader() WALHeader {
	return WALHeader{
		Version:     walVersion,
		Campaign:    "selftest",
		Trials:      8,
		Fingerprint: "deadbeefcafe0123",
		Spec:        `{"version":1,"kind":"selftest","seed":7,"selftest":{"trials":8}}`,
		Planner:     "uniform",
		Shards: []WALShard{
			{Label: "0/2", Trials: []int{0, 2, 4, 6}},
			{Label: "1/2", Trials: []int{1, 3, 5, 7}},
		},
	}
}

// writeFixtureWAL journals a deterministic grant/result/release/expire
// sequence and returns the file path.
func writeFixtureWAL(t *testing.T, path string) {
	t.Helper()
	w, err := CreateWAL(path, walFixtureHeader())
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	appendLease := func(l WALLease) {
		if err := w.AppendLease(l); err != nil {
			t.Fatal(err)
		}
	}
	appendLease(WALLease{Event: LeaseGranted, ID: "l1-s0", Worker: "w1-a", Shard: "0/2"})
	appendLease(WALLease{Event: LeaseGranted, ID: "l2-s1", Worker: "w2-b", Shard: "1/2"})
	for id := 0; id < 4; id++ {
		if err := w.AppendResult(Result{
			TrialID: id, Key: "k",
			Metrics: map[string]float64{"acc": float64(id) / 8},
			Wall:    0.25,
		}); err != nil {
			t.Fatal(err)
		}
	}
	appendLease(WALLease{Event: LeaseExpired, ID: "l2-s1"})
	appendLease(WALLease{Event: LeaseGranted, ID: "l3-s1", Worker: "w1-a", Shard: "1/2"})
	appendLease(WALLease{Event: LeaseReleased, ID: "l1-s0"})
}

// TestWALGolden pins the journal's byte format: coordinator restart
// reads files written by earlier builds, so schema drift must break CI,
// not recovery. Regenerate with
//
//	go test ./internal/campaign/ -run WALGolden -update
func TestWALGolden(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.jsonl")
	writeFixtureWAL(t, path)
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "wal.golden.jsonl")
	if *update {
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("missing golden file (run with -update): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("WAL JSONL drifted from golden schema:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

// TestWALReplayRoundTrip: what was journaled is what replays — header,
// results (with out-of-band wall), lease events, and the open-lease
// fold a restarted coordinator invalidates.
func TestWALReplayRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.jsonl")
	writeFixtureWAL(t, path)
	hdr, results, leases, err := ReadWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(hdr, walFixtureHeader()) {
		t.Fatalf("replayed header %+v differs from written %+v", hdr, walFixtureHeader())
	}
	if len(results) != 4 {
		t.Fatalf("replayed %d results, want 4", len(results))
	}
	for i, r := range results {
		if r.TrialID != i || r.Wall != 0.25 {
			t.Fatalf("result %d: id=%d wall=%v", i, r.TrialID, r.Wall)
		}
	}
	if len(leases) != 5 {
		t.Fatalf("replayed %d lease events, want 5", len(leases))
	}
	open := OpenLeases(leases)
	if len(open) != 1 || open[0].ID != "l3-s1" || open[0].Shard != "1/2" {
		t.Fatalf("open leases = %+v, want exactly l3-s1 on shard 1/2", open)
	}
}

// TestOpenLeasesIDReuse: an ID granted, closed, and granted again (as
// journals written before coordinators advanced their lease sequence
// across restarts can contain) folds to exactly one open lease — the
// latest grant — never a duplicate.
func TestOpenLeasesIDReuse(t *testing.T) {
	events := []WALLease{
		{Event: LeaseGranted, ID: "l1-s0", Worker: "epoch1", Shard: "0/2"},
		{Event: LeaseInvalidated, ID: "l1-s0"},
		{Event: LeaseGranted, ID: "l1-s0", Worker: "epoch2", Shard: "0/2"},
	}
	open := OpenLeases(events)
	if len(open) != 1 || open[0].Worker != "epoch2" {
		t.Fatalf("open leases after ID reuse = %+v, want exactly the epoch2 grant", open)
	}
	if got := GrantCount(events); got != 2 {
		t.Fatalf("GrantCount = %d, want 2", got)
	}
}

// TestWALTornFinalRecord: a record half-written by a SIGKILL is dropped
// by ReadWAL, and OpenWALAppend truncates it so subsequent appends keep
// the file parseable.
func TestWALTornFinalRecord(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.jsonl")
	writeFixtureWAL(t, path)
	whole, _, _, err := ReadWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"result":{"trial":7,"key":"k","metrics":{"ac`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	hdr, results, _, err := ReadWAL(path)
	if err != nil {
		t.Fatalf("torn final record should be tolerated: %v", err)
	}
	if !reflect.DeepEqual(hdr, whole) || len(results) != 4 {
		t.Fatalf("torn-tail replay drifted: %d results", len(results))
	}

	// Reopen-for-append truncates the tail; a fresh record then parses.
	w, err := OpenWALAppend(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.AppendResult(Result{TrialID: 7, Key: "k"}); err != nil {
		t.Fatal(err)
	}
	w.Close()
	_, results, _, err = ReadWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 5 || results[4].TrialID != 7 {
		t.Fatalf("post-truncate append lost: %d results", len(results))
	}
}

// TestWALRejections: corruption mid-file, a checkpoint masquerading as
// a WAL, future versions, missing headers, and a header naming the
// retired load-aware planner all fail loudly, naming the file.
func TestWALRejections(t *testing.T) {
	dir := t.TempDir()
	write := func(name, content string) string {
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	hdr := `{"header":{"version":1,"campaign":"c","trials":2,"fingerprint":"ab","shards":[{"label":"0/1","trials":[0,1]}]}}`
	cases := []struct {
		name, content, want string
	}{
		{"mid-file corruption", hdr + "\n{garbage}\n{\"result\":{\"trial\":0,\"key\":\"k\"}}\n", "line 2"},
		{"checkpoint not wal", `{"header":{"version":1,"campaign":"c","trials":2}}` + "\n", "not a coordinator WAL"},
		{"future version", strings.Replace(hdr, `"version":1`, `"version":99`, 1) + "\n", "newer than supported"},
		{"no header", `{"result":{"trial":0,"key":"k"}}` + "\n", "before header"},
		{"empty", "", "no header"},
		{"balanced header", strings.Replace(hdr, `"fingerprint"`, `"planner":"balance:accumulated","fingerprint"`, 1) + "\n", `planned by "balance:accumulated"`},
	}
	for _, tc := range cases {
		p := write(strings.ReplaceAll(tc.name, " ", "-")+".jsonl", tc.content)
		_, _, _, err := ReadWAL(p)
		if err == nil || !strings.Contains(err.Error(), tc.want) || !strings.Contains(err.Error(), p) {
			t.Errorf("%s: error = %v, want substring %q and the path", tc.name, err, tc.want)
		}
	}
}

// TestWALPlanRecord: a re-plan record (which builds with the retired
// load-aware planner journaled to supersede the admission-time shard
// table) is refused, naming the file and the planner, rather than
// replayed; one before any header fails as a missing header.
func TestWALPlanRecord(t *testing.T) {
	dir := t.TempDir()
	hdr := `{"header":{"version":1,"campaign":"c","trials":2,"fingerprint":"ab","shards":[{"label":"0/1","trials":[0,1]}]}}`
	path := filepath.Join(dir, "wal.jsonl")
	content := hdr + "\n" + `{"result":{"trial":0,"key":"k"},"wall":0.5}` + "\n" +
		`{"plan":{"planner":"balance:accumulated","shards":[{"label":"0/1","trials":[1,0]}]}}` + "\n"
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	_, _, _, err := ReadWAL(path)
	if err == nil || !strings.Contains(err.Error(), `planned by "balance:accumulated"`) || !strings.Contains(err.Error(), path) {
		t.Fatalf("plan record: error = %v, want the planner and the path", err)
	}

	orphan := filepath.Join(dir, "orphan.jsonl")
	if err := os.WriteFile(orphan, []byte(`{"plan":{"shards":[]}}`+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := ReadWAL(orphan); err == nil || !strings.Contains(err.Error(), "before header") {
		t.Fatalf("plan before header: err = %v", err)
	}
}
