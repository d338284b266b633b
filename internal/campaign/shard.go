package campaign

import (
	"fmt"
	"strconv"
	"strings"
)

// Shard selects the Index-th of Count interleaved slices of a campaign's
// trial list (trial.ID % Count == Index). Interleaving balances sweeps
// whose cost varies monotonically along the enumeration (e.g. faulty-PE
// counts) better than contiguous blocks would. The zero value means
// "whole campaign".
type Shard struct {
	Index, Count int
}

// ParseShard parses the "i/n" form of the --shard flag ("" or "0/1"
// selects the whole campaign).
func ParseShard(s string) (Shard, error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return Shard{}, nil
	}
	idx, count, ok := strings.Cut(s, "/")
	if !ok {
		return Shard{}, fmt.Errorf("campaign: shard %q not of the form i/n", s)
	}
	i, err1 := strconv.Atoi(idx)
	n, err2 := strconv.Atoi(count)
	if err1 != nil || err2 != nil {
		return Shard{}, fmt.Errorf("campaign: shard %q not of the form i/n", s)
	}
	sh := Shard{Index: i, Count: n}
	if err := sh.Validate(); err != nil {
		return Shard{}, err
	}
	return sh, nil
}

// Validate checks 0 <= Index < Count (or the zero value).
func (s Shard) Validate() error {
	if s.Count == 0 && s.Index == 0 {
		return nil
	}
	if s.Count < 1 || s.Index < 0 || s.Index >= s.Count {
		return fmt.Errorf("campaign: invalid shard %d/%d", s.Index, s.Count)
	}
	return nil
}

// IsWhole reports whether the shard covers the entire campaign.
func (s Shard) IsWhole() bool { return s.Count <= 1 }

// String renders the "i/n" form ("0/1" for the whole campaign).
func (s Shard) String() string {
	if s.Count == 0 {
		return "0/1"
	}
	return fmt.Sprintf("%d/%d", s.Index, s.Count)
}

// Of returns the trials belonging to this shard, preserving order.
func (s Shard) Of(trials []Trial) []Trial {
	if s.IsWhole() {
		return trials
	}
	var out []Trial
	for _, t := range trials {
		if t.ID%s.Count == s.Index {
			out = append(out, t)
		}
	}
	return out
}

// PlannedShard is one entry of a shard table: a Shard label ("i/n",
// used for worker checkpoint filenames and logs) and that shard's
// trials, in trial-list order.
type PlannedShard struct {
	Label  string
	Trials []Trial
}

// PlanShards splits trials into at most n interleaved shards of
// (near-)equal trial count via Shard.Of, labelled "i/n". n is clamped
// to [1, len(trials)], and shards that would be empty (a pending subset
// whose IDs skip a residue) are dropped, so every trial lands in exactly
// one non-empty shard. Planning never affects results: trials are
// seed-addressed and reductions are order-independent.
func PlanShards(trials []Trial, n int) []PlannedShard {
	n = max(1, min(n, len(trials)))
	var out []PlannedShard
	for i := 0; i < n; i++ {
		sh := Shard{Index: i, Count: n}
		if mine := sh.Of(trials); len(mine) > 0 {
			out = append(out, PlannedShard{Label: sh.String(), Trials: mine})
		}
	}
	return out
}
