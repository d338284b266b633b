package campaign

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Shard planning. A campaign service (or anyone splitting a campaign
// across executors) turns the trial list into a shard table through a Planner.
// The historical behavior — interleaved, equal-count shards via
// Shard.Of — is UniformPlanner, the deterministic default.
// BalancedPlanner instead equalizes *predicted wall-clock* using the
// per-key timing summaries a prior run recorded (TimingByKey), so a
// sweep whose keys cost wildly different amounts no longer leaves one
// worker grinding a slow shard while the rest idle. Planning never
// affects results: trials are seed-addressed and reductions are
// order-independent, so any plan merges byte-identically.

// PlannedShard is one entry of a shard table: a label (campaign.Shard
// "i/n" form, used for worker checkpoint filenames and logs) plus the
// explicit trial membership — the generalization of Shard.Of that lets
// membership be chosen by cost, not only by ID modulus.
type PlannedShard struct {
	// Label identifies the shard ("2/8"). Labels are unique within a
	// plan; with non-uniform planners they no longer imply membership.
	Label string
	// Trials is the shard's membership, sorted by trial ID.
	Trials []Trial
	// PredictedSeconds is the planner's wall-clock estimate for the
	// shard (0 when the planner has no cost model).
	PredictedSeconds float64
}

// TrialIDs returns the shard's membership as IDs (journal form).
func (p PlannedShard) TrialIDs() []int {
	ids := make([]int, len(p.Trials))
	for i, t := range p.Trials {
		ids[i] = t.ID
	}
	return ids
}

// ResolveShards resolves a shard-count request: n <= 0 selects def,
// and the result is clamped to the trial count so no shard need be
// empty. The `plan` dry-run and a campaign service resolve through
// this one helper, so their shard tables cannot drift apart.
func ResolveShards(n, def, trials int) int {
	if n <= 0 {
		n = def
	}
	if n > trials {
		n = trials
	}
	return n
}

// Planner splits a trial list into at most n shards. Implementations
// must be deterministic (same inputs, same plan), return only non-empty
// shards with unique labels, and partition the input exactly: every
// trial in exactly one shard.
type Planner interface {
	Plan(trials []Trial, n int) ([]PlannedShard, error)
}

// UniformPlanner is the default plan: n interleaved shards of (near-)
// equal trial count via Shard.Of, labels "i/n". Shards that would be
// empty are dropped.
type UniformPlanner struct{}

// Plan implements Planner.
func (UniformPlanner) Plan(trials []Trial, n int) ([]PlannedShard, error) {
	if n < 1 {
		return nil, fmt.Errorf("campaign: plan needs at least 1 shard, got %d", n)
	}
	if n > len(trials) {
		n = len(trials)
	}
	var out []PlannedShard
	for i := 0; i < n; i++ {
		sh := Shard{Index: i, Count: n}
		mine := sh.Of(trials)
		if len(mine) == 0 {
			continue
		}
		out = append(out, PlannedShard{Label: sh.String(), Trials: mine})
	}
	return out, nil
}

// BalancedPlanner sizes shards by predicted wall-clock: each trial's
// cost is its key's mean recorded duration (keys the timing source
// never saw get the global mean; with no timing at all every trial
// costs 1, degenerating to count-balancing). Assignment is greedy
// longest-processing-time: trials sorted by descending predicted cost
// go to the currently lightest shard, ties broken deterministically by
// trial ID and shard index.
type BalancedPlanner struct {
	// Timing is the per-key cost model, as TimingByKey returns it.
	Timing []KeyTiming
}

// Plan implements Planner.
func (b BalancedPlanner) Plan(trials []Trial, n int) ([]PlannedShard, error) {
	if n < 1 {
		return nil, fmt.Errorf("campaign: plan needs at least 1 shard, got %d", n)
	}
	if n > len(trials) {
		n = len(trials)
	}
	if len(trials) == 0 {
		return nil, nil
	}
	meanByKey := make(map[string]float64, len(b.Timing))
	var total float64
	var count int
	for _, kt := range b.Timing {
		meanByKey[kt.Key] = kt.Mean()
		total += kt.Total
		count += kt.Count
	}
	global := 1.0
	if count > 0 && total > 0 {
		global = total / float64(count)
	}
	cost := func(t Trial) float64 {
		if c, ok := meanByKey[t.Key]; ok && c > 0 {
			return c
		}
		return global
	}

	// LPT: heaviest trials first, each to the lightest shard so far.
	order := make([]int, len(trials))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		ca, cb := cost(trials[order[a]]), cost(trials[order[b]])
		if ca != cb {
			return ca > cb
		}
		return trials[order[a]].ID < trials[order[b]].ID
	})
	shards := make([]PlannedShard, n)
	for i := range shards {
		shards[i].Label = Shard{Index: i, Count: n}.String()
	}
	for _, idx := range order {
		best := 0
		for i := 1; i < n; i++ {
			if shards[i].PredictedSeconds < shards[best].PredictedSeconds {
				best = i
			}
		}
		shards[best].Trials = append(shards[best].Trials, trials[idx])
		shards[best].PredictedSeconds += cost(trials[idx])
	}
	for i := range shards {
		sort.Slice(shards[i].Trials, func(a, b int) bool {
			return shards[i].Trials[a].ID < shards[i].Trials[b].ID
		})
	}
	// n <= len(trials) and LPT fills empty (zero-load) shards first, so
	// no shard can be empty; keep the guarantee explicit anyway.
	out := shards[:0]
	for _, s := range shards {
		if len(s.Trials) > 0 {
			out = append(out, s)
		}
	}
	return out, nil
}

// balancePrefix is the planner-name form selecting BalancedPlanner:
// "balance:<timing-source>", where the source is a checkpoint JSONL, a
// run's WAL, or a campaign-service state directory (every run WAL under
// its runs/ directory).
const balancePrefix = "balance:"

// PlannerNameDoc documents the planner-name forms for flag help and
// spec docs.
const PlannerNameDoc = `"uniform" (default) or "balance:<timing-source>" (a checkpoint JSONL, run WAL, or service state dir with recorded per-trial timing)`

// ValidatePlannerName checks a planner name's form without touching the
// filesystem — the spec-validation path, which must work on machines
// that don't hold the timing file.
func ValidatePlannerName(name string) error {
	switch {
	case name == "" || name == "uniform":
		return nil
	case strings.HasPrefix(name, balancePrefix) && len(name) > len(balancePrefix):
		return nil
	}
	return fmt.Errorf("campaign: unknown planner %q (want %s)", name, PlannerNameDoc)
}

// PlannerByName resolves a planner name to a Planner, loading the
// timing source of a "balance:<path>" name. A balance source with no
// recorded durations is refused: silently count-balancing when the
// operator asked for load-awareness would hide a broken timing file.
func PlannerByName(name string) (Planner, error) {
	if err := ValidatePlannerName(name); err != nil {
		return nil, err
	}
	if name == "" || name == "uniform" {
		return UniformPlanner{}, nil
	}
	path := strings.TrimPrefix(name, balancePrefix)
	timing, err := TimingFromFile(path)
	if err != nil {
		return nil, err
	}
	if len(timing) == 0 {
		return nil, fmt.Errorf("campaign: timing source %s has no recorded durations (written by a pre-timing build?)", path)
	}
	return BalancedPlanner{Timing: timing}, nil
}

// TimingFromFile loads per-key timing summaries from a results file: a
// checkpoint JSONL, a run WAL, or a campaign-service state directory
// (the runs journaled under <dir>/runs/*/, as `campaign serve -state`
// and `campaign service` lay them out). A corrupt WAL is reported as
// itself (file and line), not as a failed checkpoint parse of the
// wrong format.
func TimingFromFile(path string) ([]KeyTiming, error) {
	if st, err := os.Stat(path); err == nil && st.IsDir() {
		return timingFromStateDir(path)
	}
	_, wResults, _, wErr := ReadWAL(path)
	if wErr == nil {
		return TimingByKey(wResults), nil
	}
	_, cResults, cErr := ReadCheckpoint(path)
	if cErr == nil {
		return TimingByKey(cResults), nil
	}
	// wErr/cErr are already package-prefixed; add only the role context.
	if errors.Is(wErr, ErrNotWAL) {
		return nil, fmt.Errorf("timing source %s: %w", path, cErr)
	}
	return nil, fmt.Errorf("timing source %s: %w", path, wErr)
}

// timingFromStateDir pools the journaled results of every run in a
// service state directory.
func timingFromStateDir(dir string) ([]KeyTiming, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "runs", "*", WALFileName))
	if err != nil {
		return nil, err
	}
	if len(paths) == 0 {
		return nil, fmt.Errorf("timing source %s: no run journals under runs/ (not a service state dir?)", dir)
	}
	var all []Result
	for _, p := range paths {
		_, results, _, err := ReadWAL(p)
		if err != nil {
			return nil, fmt.Errorf("timing source %s: %w", dir, err)
		}
		all = append(all, results...)
	}
	return TimingByKey(all), nil
}
