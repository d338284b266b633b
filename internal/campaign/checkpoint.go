package campaign

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
)

// Checkpoint files are JSONL: the first line is a header record
// identifying the campaign (name, trial count, shard, metadata), every
// following line is one completed trial's result. Appends are flushed
// per record, so a killed campaign loses at most the line being written;
// readers tolerate a truncated final line.

// checkpointVersion is bumped on incompatible schema changes; readers
// refuse newer files instead of misparsing them.
const checkpointVersion = 1

// Header identifies the campaign a checkpoint (or shard partial) belongs
// to. Resume and merge require Campaign, Trials and Meta to agree, so
// results from a differently configured run can never be mixed in.
type Header struct {
	Version  int               `json:"version"`
	Campaign string            `json:"campaign"`
	Trials   int               `json:"trials"`
	Shard    string            `json:"shard,omitempty"`
	Meta     map[string]string `json:"meta,omitempty"`
}

// NewHeader builds the checkpoint header for one shard of a campaign
// with trials total trials, including the campaign's metadata
// fingerprint. Every writer (campaign.Run, the cluster worker's local
// shard checkpoints) derives headers here so resume and merge
// compatibility checks compare like with like.
func NewHeader(c Campaign, trials int, shard Shard) Header {
	h := Header{
		Version:  checkpointVersion,
		Campaign: c.Name(),
		Trials:   trials,
		Shard:    shard.String(),
	}
	if mp, ok := c.(MetaProvider); ok {
		h.Meta = mp.Meta()
	}
	return h
}

// Compatible reports whether two headers describe the same campaign and
// configuration (shard may differ — that is the point of merging).
func (h Header) Compatible(other Header) bool { return h.compatible(other) }

// compatible reports whether two headers describe the same campaign
// (shard may differ — that is the point of merging).
func (h Header) compatible(other Header) bool {
	return h.Version == other.Version &&
		h.Campaign == other.Campaign &&
		h.Trials == other.Trials &&
		(len(h.Meta) == 0 && len(other.Meta) == 0 || reflect.DeepEqual(h.Meta, other.Meta))
}

// record is one checkpoint line: exactly one of Header/Result set.
type record struct {
	Header *Header `json:"header,omitempty"`
	Result *Result `json:"result,omitempty"`
	// Wall carries Result.Wall (seconds), which the result's canonical
	// JSON deliberately excludes: checkpoints preserve per-trial timing
	// without perturbing result identity or merge byte-reproducibility.
	Wall float64 `json:"wall,omitempty"`
}

// appendFile is the flush-per-record JSONL appender shared by
// Checkpoint and the coordinator WAL: create truncates, open truncates
// a torn final line (a record half-written when the process was
// killed) so later appends never fuse with it, and every appendJSON
// flushes through to the OS.
type appendFile struct {
	f *os.File
	w *bufio.Writer
}

func createAppendFile(path string) (*appendFile, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	return &appendFile{f: f, w: bufio.NewWriter(f)}, nil
}

func openAppendFile(path string) (*appendFile, error) {
	f, err := os.OpenFile(path, os.O_RDWR, 0o644)
	if err != nil {
		return nil, err
	}
	fail := func(err error) (*appendFile, error) {
		f.Close()
		return nil, err
	}
	st, err := f.Stat()
	if err != nil {
		return fail(err)
	}
	if st.Size() > 0 {
		last := make([]byte, 1)
		if _, err := f.ReadAt(last, st.Size()-1); err != nil {
			return fail(err)
		}
		if last[0] != '\n' {
			data := make([]byte, st.Size())
			if _, err := f.ReadAt(data, 0); err != nil {
				return fail(err)
			}
			if err := f.Truncate(int64(bytes.LastIndexByte(data, '\n') + 1)); err != nil {
				return fail(err)
			}
		}
	}
	if _, err := f.Seek(0, io.SeekEnd); err != nil {
		return fail(err)
	}
	return &appendFile{f: f, w: bufio.NewWriter(f)}, nil
}

func (a *appendFile) appendJSON(v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return fmt.Errorf("marshal record: %w", err)
	}
	if _, err := a.w.Write(append(b, '\n')); err != nil {
		return err
	}
	return a.w.Flush()
}

// Close flushes and closes the file.
func (a *appendFile) Close() error {
	if err := a.w.Flush(); err != nil {
		a.f.Close()
		return err
	}
	return a.f.Close()
}

// Checkpoint appends results to a JSONL file as they complete.
type Checkpoint struct {
	af *appendFile
}

// CreateCheckpoint creates (truncating) a checkpoint file and writes its
// header line.
func CreateCheckpoint(path string, h Header) (*Checkpoint, error) {
	af, err := createAppendFile(path)
	if err != nil {
		return nil, fmt.Errorf("campaign: create checkpoint: %w", err)
	}
	c := &Checkpoint{af: af}
	if err := c.append(record{Header: &h}); err != nil {
		af.Close()
		return nil, err
	}
	return c, nil
}

// OpenCheckpointAppend reopens an existing checkpoint for appending
// (resume path; the header is already on disk). A torn final line left
// by a killed run is truncated away first — ReadCheckpoint ignores such
// a tail, but appending after it would fuse it with the next record and
// corrupt the file for every later reader.
func OpenCheckpointAppend(path string) (*Checkpoint, error) {
	af, err := openAppendFile(path)
	if err != nil {
		return nil, fmt.Errorf("campaign: open checkpoint: %w", err)
	}
	return &Checkpoint{af: af}, nil
}

// Append writes one result line and flushes it to the OS, so results
// survive the process being killed.
func (c *Checkpoint) Append(r Result) error {
	return c.append(record{Result: &r, Wall: r.Wall})
}

func (c *Checkpoint) append(rec record) error {
	if err := c.af.appendJSON(rec); err != nil {
		return fmt.Errorf("campaign: write checkpoint: %w", err)
	}
	return nil
}

// Close flushes and closes the file.
func (c *Checkpoint) Close() error { return c.af.Close() }

// decodeJSONL parses a JSONL file's records, tolerating a truncated
// final line — the record being half-written when the process was
// killed. Corruption anywhere else is an error. Shared by checkpoint
// and WAL readers so the torn-tail semantics cannot drift.
func decodeJSONL[T any](data []byte, what, path string) ([]T, error) {
	lines := splitLines(data)
	out := make([]T, 0, len(lines))
	for i, line := range lines {
		if len(line) == 0 {
			continue
		}
		var rec T
		if err := json.Unmarshal(line, &rec); err != nil {
			if i == len(lines)-1 {
				break // torn final write from a killed process
			}
			return nil, fmt.Errorf("campaign: %s %s line %d: %w", what, path, i+1, err)
		}
		out = append(out, rec)
	}
	return out, nil
}

// ReadCheckpoint loads a checkpoint file: header plus every completed
// result, sorted by trial ID. A truncated final line (the record being
// written when a run was killed) is dropped; corruption anywhere else is
// an error.
func ReadCheckpoint(path string) (Header, []Result, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return Header{}, nil, fmt.Errorf("campaign: read checkpoint: %w", err)
	}
	return readCheckpoint(data, path)
}

// readCheckpoint is ReadCheckpoint over an already-loaded file; path
// only names the source in errors.
func readCheckpoint(data []byte, path string) (Header, []Result, error) {
	recs, err := decodeJSONL[record](data, "checkpoint", path)
	if err != nil {
		return Header{}, nil, err
	}
	var (
		header    Header
		gotHeader bool
		results   []Result
	)
	for _, rec := range recs {
		switch {
		case rec.Header != nil:
			if gotHeader {
				return Header{}, nil, fmt.Errorf("campaign: checkpoint %s has multiple headers", path)
			}
			if rec.Header.Version > checkpointVersion {
				return Header{}, nil, fmt.Errorf("campaign: checkpoint %s version %d newer than supported %d",
					path, rec.Header.Version, checkpointVersion)
			}
			header = *rec.Header
			gotHeader = true
		case rec.Result != nil:
			if !gotHeader {
				return Header{}, nil, fmt.Errorf("campaign: checkpoint %s: result before header", path)
			}
			rec.Result.Wall = rec.Wall
			results = append(results, *rec.Result)
		}
	}
	if !gotHeader {
		return Header{}, nil, fmt.Errorf("campaign: checkpoint %s has no header", path)
	}
	sortResults(results)
	return header, results, nil
}

// splitLines splits on '\n' without dropping a trailing unterminated
// line (needed to detect torn writes).
func splitLines(data []byte) [][]byte {
	var out [][]byte
	start := 0
	for i, b := range data {
		if b == '\n' {
			out = append(out, data[start:i])
			start = i + 1
		}
	}
	if start < len(data) {
		out = append(out, data[start:])
	}
	return out
}

// WriteFileAtomic writes data to path crash-safely: the bytes go to a
// temp file in the same directory, are fsynced, and the temp file is
// renamed over path. An interrupted write never leaves a half-written
// artifact at path — readers see either the old content or the new,
// complete one.
func WriteFileAtomic(path string, data []byte) error {
	dir, base := filepath.Dir(path), filepath.Base(path)
	tmp, err := os.CreateTemp(dir, base+".tmp*")
	if err != nil {
		return fmt.Errorf("campaign: atomic write %s: %w", path, err)
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	fail := func(err error) error {
		tmp.Close()
		return fmt.Errorf("campaign: atomic write %s: %w", path, err)
	}
	if _, err := tmp.Write(data); err != nil {
		return fail(err)
	}
	if err := tmp.Sync(); err != nil {
		return fail(err)
	}
	// CreateTemp's private 0600 would survive the rename; widen to the
	// conventional 0644 so other readers (artifact collectors, other
	// uids) keep working as they did with os.WriteFile.
	if err := tmp.Chmod(0o644); err != nil {
		return fail(err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("campaign: atomic write %s: %w", path, err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return fmt.Errorf("campaign: atomic write %s: %w", path, err)
	}
	return nil
}

// WriteCheckpointAtomic renders a complete checkpoint (header plus
// results sorted by trial ID) and writes it crash-safely via
// WriteFileAtomic. It is the output path of merges: unlike the
// incremental Checkpoint writer, which appends as trials finish, a
// merge has every record up front and must never leave a torn file.
func WriteCheckpointAtomic(path string, h Header, results []Result) error {
	rs := append([]Result(nil), results...)
	sortResults(rs)
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	if err := enc.Encode(record{Header: &h}); err != nil {
		return fmt.Errorf("campaign: marshal checkpoint header: %w", err)
	}
	for i := range rs {
		if err := enc.Encode(record{Result: &rs[i], Wall: rs[i].Wall}); err != nil {
			return fmt.Errorf("campaign: marshal checkpoint record: %w", err)
		}
	}
	return WriteFileAtomic(path, buf.Bytes())
}

// MergeFiles reads several checkpoint files (typically one per shard),
// verifies they describe the same campaign, and merges their results.
// The returned header is the first file's with the shard cleared.
func MergeFiles(paths ...string) (Header, []Result, error) {
	if len(paths) == 0 {
		return Header{}, nil, fmt.Errorf("campaign: no checkpoint files to merge")
	}
	var (
		header Header
		sets   [][]Result
	)
	for i, p := range paths {
		h, rs, err := ReadCheckpoint(p)
		if err != nil {
			return Header{}, nil, err
		}
		if i == 0 {
			header = h
		} else if !header.compatible(h) {
			return Header{}, nil, fmt.Errorf("campaign: %s is from a different campaign or configuration than %s", p, paths[0])
		}
		sets = append(sets, rs)
	}
	merged, err := Merge(sets...)
	if err != nil {
		return Header{}, nil, err
	}
	header.Shard = ""
	return header, merged, nil
}
