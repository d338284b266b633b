package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"

	"falvolt/internal/campaign"
)

// median returns the middle of xs (the mean of the two middle values
// for an even count), as Python's statistics.median does. xs is not
// modified. An empty slice has no median and yields 0.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartile of xs by the method of
// Python's statistics.quantiles(xs, n=4) (the default "exclusive"
// method), which is how the steadiness of a benchmark metric is judged.
// Fewer than two values have no spread: both quartiles are the value.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sorted(xs)
	switch len(s) {
	case 0:
		return 0, 0
	case 1:
		return s[0], s[0]
	}
	q := func(i int) float64 {
		const n = 4
		m := len(s) + 1
		j := i * m / n
		j = max(1, min(j, len(s)-1))
		delta := float64(i*m - j*n)
		return (s[j-1]*(n-delta) + s[j]*delta) / n
	}
	return q(1), q(3)
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// campaignOverheadMS is the time per trial that the campaign engine's
// lanes spent outside Result.Wall: dispatch, worker construction,
// checkpoint appends and lanes idling at the end of the timed phase.
func campaignOverheadMS(lanes int, timedWallS float64, results []campaign.Result) float64 {
	if len(results) == 0 {
		return 0
	}
	busy := 0.0
	for _, r := range results {
		busy += r.Wall
	}
	return (float64(lanes)*timedWallS - busy) / float64(len(results)) * 1000
}

// digest is the canonical identity of one trial's result: the SHA-256 of
// its campaign.MarshalResults rendering (wall-clock excluded), shortened
// to 16 hex digits.
func digest(r campaign.Result) (string, error) {
	b, err := campaign.MarshalResults([]campaign.Result{r})
	if err != nil {
		return "", fmt.Errorf("digest trial %d: %w", r.TrialID, err)
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:8]), nil
}

// verifyDigest checks a result against the pinned digest of its trial.
// A trial beyond the pinned list cannot be verified and fails.
func verifyDigest(r campaign.Result, pinned []string) error {
	if r.TrialID < 0 || r.TrialID >= len(pinned) {
		return fmt.Errorf("trial %d has no pinned digest (%d pinned)", r.TrialID, len(pinned))
	}
	got, err := digest(r)
	if err != nil {
		return err
	}
	if got != pinned[r.TrialID] {
		return fmt.Errorf("trial %d digest %s, pinned %s", r.TrialID, got, pinned[r.TrialID])
	}
	return nil
}
