package campaign

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// FuzzReadWAL hardens journal replay, the only crash-recovery path of
// the campaign service: arbitrary bytes must never panic the reader,
// and every accepted journal must keep the reader's contracts — a
// well-formed WAL header, results sorted by trial ID without
// duplicates, a non-WAL header in front rejected as ErrNotWAL, and a
// torn final line (a kill mid-append) dropped rather than rejected.
func FuzzReadWAL(f *testing.F) {
	golden, err := os.ReadFile(filepath.Join("testdata", "wal.golden.jsonl"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(golden)
	f.Add(append(bytes.Clone(golden), `{"result":{"trial":4,"key":"k","metr`...))
	f.Add([]byte(`{"header":{"version":1,"campaign":"c","trials":2}}` + "\n"))
	const checkpointHeader = `{"header":{"version":1,"campaign":"c","trials":2}}` + "\n"
	const tornRecord = `{"result":{"trial":0,"key":"k","met`
	f.Fuzz(func(t *testing.T, data []byte) {
		hdr, results, leases, err := readWAL(data, "fuzz")
		if err != nil {
			return
		}
		if hdr.Fingerprint == "" || hdr.Shards == nil {
			t.Fatalf("accepted a journal whose header is not a WAL header: %+v", hdr)
		}
		for i := 1; i < len(results); i++ {
			if results[i-1].TrialID >= results[i].TrialID {
				t.Fatalf("results not strictly sorted by trial ID: %d then %d", results[i-1].TrialID, results[i].TrialID)
			}
		}

		// A checkpoint header in front makes it a non-WAL file.
		notWAL := append([]byte(checkpointHeader), data...)
		if _, _, _, err := readWAL(notWAL, "fuzz"); !errors.Is(err, ErrNotWAL) {
			t.Fatalf("journal behind a checkpoint header: err = %v, want ErrNotWAL", err)
		}

		// A torn record after a whole final line is dropped, and the
		// journal reads exactly as before.
		lines := splitLines(data)
		var last walRecord
		if json.Unmarshal(lines[len(lines)-1], &last) != nil {
			return // data's own final line is already the torn one
		}
		torn := bytes.Clone(data)
		if torn[len(torn)-1] != '\n' {
			torn = append(torn, '\n')
		}
		torn = append(torn, tornRecord...)
		hdr2, results2, leases2, err := readWAL(torn, "fuzz")
		if err != nil {
			t.Fatalf("torn final line rejected instead of dropped: %v", err)
		}
		if !reflect.DeepEqual(hdr, hdr2) || !reflect.DeepEqual(results, results2) || !reflect.DeepEqual(leases, leases2) {
			t.Fatal("dropping a torn final line changed what the journal replays")
		}
	})
}
