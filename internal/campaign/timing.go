package campaign

import (
	"fmt"
	"io"
	"sort"
)

// Per-trial wall-clock aggregation. Runners stamp Result.Wall as trials
// execute and checkpoints and WALs preserve it, so `campaign merge` can
// report where a campaign's time actually went.

// KeyTiming aggregates the recorded wall-clock of one result key.
type KeyTiming struct {
	// Key is the figure point / report bucket.
	Key string
	// Count is how many of the key's results carried a recorded
	// duration (results from pre-timing checkpoints carry none).
	Count int
	// Total and Max are seconds across those results.
	Total float64
	Max   float64
}

// Mean returns the mean seconds per timed trial.
func (k KeyTiming) Mean() float64 {
	if k.Count == 0 {
		return 0
	}
	return k.Total / float64(k.Count)
}

// TimingByKey folds per-trial durations into per-key summaries, sorted
// by descending total (the expensive keys come first). Results without a recorded duration are skipped.
func TimingByKey(results []Result) []KeyTiming {
	byKey := make(map[string]*KeyTiming)
	for _, r := range results {
		if r.Wall <= 0 {
			continue
		}
		kt := byKey[r.Key]
		if kt == nil {
			kt = &KeyTiming{Key: r.Key}
			byKey[r.Key] = kt
		}
		kt.Count++
		kt.Total += r.Wall
		if r.Wall > kt.Max {
			kt.Max = r.Wall
		}
	}
	out := make([]KeyTiming, 0, len(byKey))
	for _, kt := range byKey {
		out = append(out, *kt)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Total != out[j].Total {
			return out[i].Total > out[j].Total
		}
		return out[i].Key < out[j].Key
	})
	return out
}

// WriteTimingSummary prints the campaign-wide and per-key timing of a
// result set. Result sets with no recorded durations (old checkpoints)
// print nothing.
func WriteTimingSummary(w io.Writer, results []Result) {
	keys := TimingByKey(results)
	if len(keys) == 0 {
		return
	}
	var n int
	var total, max float64
	for _, kt := range keys {
		n += kt.Count
		total += kt.Total
		if kt.Max > max {
			max = kt.Max
		}
	}
	fmt.Fprintf(w, "timing: %d timed trials, total %.2fs, mean %.3fs, max %.3fs\n",
		n, total, total/float64(n), max)
	for _, kt := range keys {
		fmt.Fprintf(w, "  %-24s %4d trials  total %8.2fs  mean %7.3fs  max %7.3fs\n",
			kt.Key, kt.Count, kt.Total, kt.Mean(), kt.Max)
	}
}
