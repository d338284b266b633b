package experiments

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"falvolt/internal/spec"
)

// goldenSuite is the suite the figure goldens share; its baselines are
// written to goldenCache on first use.
func goldenSuite(t *testing.T) *Suite {
	t.Helper()
	s, err := SuiteFromSpec(goldenSpec("fig2"), spec.BuildOpts{CacheDir: goldenCache})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// freshSuite builds the golden configuration's suite outside
// SuiteFromSpec's per-process cache, so it starts with no baselines in
// memory and logs every load or training to log.
func freshSuite(cacheDir string, log io.Writer) *Suite {
	return &Suite{
		Spec: goldenSpec("fig2").Suite.Defaulted(), Seed: 7,
		CacheDir: cacheDir, Log: log, baselines: map[string]*Baseline{},
	}
}

// baselineAccs lists every baseline's dataset and fault-free accuracy,
// training or loading as needed.
func baselineAccs(t *testing.T, s *Suite) []string {
	t.Helper()
	bls, err := s.AllDatasets()
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, bl := range bls {
		out = append(out, fmt.Sprintf("%s %v", bl.Name, bl.Acc))
	}
	return out
}

// TestBaselineCacheReload: a second suite on the first one's cache
// directory loads all three baselines without training and reports the
// same datasets and accuracies.
func TestBaselineCacheReload(t *testing.T) {
	if testing.Short() {
		t.Skip("trains three baselines")
	}
	want := baselineAccs(t, goldenSuite(t))
	var log bytes.Buffer
	got := baselineAccs(t, freshSuite(goldenCache, &log))
	if !slices.Equal(got, want) {
		t.Errorf("cached baselines drifted: got %q, want %q", got, want)
	}
	if n := strings.Count(log.String(), "loaded cached"); n != 3 || strings.Contains(log.String(), "training") {
		t.Errorf("want three cache loads and no training, log:\n%s", log.String())
	}
}

// TestBaselineCacheTruncatedRetrains: a truncated cache file — a write
// killed midway — falls back to training, and is replaced by a file
// that loads.
func TestBaselineCacheTruncatedRetrains(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a baseline")
	}
	want, err := goldenSuite(t).Dataset("MNIST")
	if err != nil {
		t.Fatal(err)
	}
	const file = "MNIST-quick-seed7-t2.gob"
	whole, err := os.ReadFile(filepath.Join(goldenCache, file))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, file), whole[:len(whole)/2], 0o644); err != nil {
		t.Fatal(err)
	}

	var log bytes.Buffer
	got, err := freshSuite(dir, &log).Dataset("MNIST")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(log.String(), "training mnist baseline") || strings.Contains(log.String(), "loaded cached") {
		t.Errorf("a truncated cache file should retrain, log:\n%s", log.String())
	}
	if got.Acc != want.Acc {
		t.Errorf("retrained accuracy %v, want %v", got.Acc, want.Acc)
	}

	log.Reset()
	again, err := freshSuite(dir, &log).Dataset("MNIST")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(log.String(), "loaded cached mnist baseline") || again.Acc != want.Acc {
		t.Errorf("the rewritten cache file should load (acc %v, want %v), log:\n%s", again.Acc, want.Acc, log.String())
	}
	if entries, _ := os.ReadDir(dir); len(entries) != 1 {
		t.Errorf("cache dir holds %d entries, want only %s", len(entries), file)
	}
}
