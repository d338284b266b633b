package campaign

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"falvolt/internal/tensor"
)

// Runner executes a set of trials against a campaign, delivering each
// result to sink exactly once. Runners must serialize sink calls (sink
// implementations append to memory and checkpoint files) and must stop
// dispatching new trials promptly once ctx is cancelled, returning
// ctx.Err(); results already delivered stay valid, so a cancelled run
// resumes from its checkpoint. The in-process PoolRunner executes on
// compute-engine lanes; service.OneRun implements the same interface
// across machines, with Shard as the unit of distribution.
type Runner interface {
	Run(ctx context.Context, c Campaign, trials []Trial, sink func(Result) error) error
}

// PoolRunner executes trials on an in-process worker pool: the lanes of
// a tensor.Backend's Map. Each lane gets a private Worker (built lazily,
// so unused lanes never pay for model construction) and trials are
// distributed dynamically across lanes for load balance.
type PoolRunner struct {
	// Engine supplies the lanes (nil selects tensor.Default()). Use
	// tensor.Serial() to force sequential execution — e.g. when the
	// campaign's workers cannot be replicated.
	Engine tensor.Backend
}

// Run implements Runner. Cancelling ctx (Ctrl-C, a lost cluster lease)
// stops new trials from starting — lanes skip the remaining queue — and
// Run returns ctx.Err(); trials already sunk are kept by the caller.
func (r PoolRunner) Run(ctx context.Context, c Campaign, trials []Trial, sink func(Result) error) error {
	if len(trials) == 0 {
		return nil
	}
	if ctx == nil {
		ctx = context.Background()
	}
	eng := r.Engine
	if eng == nil {
		eng = tensor.Default()
	}
	workers := make([]Worker, eng.Workers())
	var (
		mu     sync.Mutex
		errs   = make([]error, len(trials))
		failed atomic.Bool
	)
	eng.Map(len(trials), func(lane, i int) {
		if failed.Load() || ctx.Err() != nil {
			return // cancelled or an earlier trial failed; drain the queue cheaply
		}
		// Lanes are slot-sequential, so workers[lane] is only touched by
		// one goroutine at a time.
		if workers[lane] == nil {
			w, err := c.NewWorker(lane)
			if err != nil {
				errs[i] = fmt.Errorf("campaign: worker for lane %d: %w", lane, err)
				failed.Store(true)
				return
			}
			workers[lane] = w
		}
		start := time.Now()
		res, err := workers[lane].RunTrial(trials[i])
		if err != nil {
			errs[i] = fmt.Errorf("campaign: trial %d (%s): %w", trials[i].ID, trials[i].Key, err)
			failed.Store(true)
			return
		}
		// Wall-clock is recorded per trial (groundwork for load-aware
		// shard sizing); it rides outside the result's canonical JSON.
		res.Wall = time.Since(start).Seconds()
		mu.Lock()
		err = sink(res)
		mu.Unlock()
		if err != nil {
			errs[i] = err
			failed.Store(true)
		}
	})
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	if err := ctx.Err(); err != nil {
		return fmt.Errorf("campaign: run cancelled: %w", err)
	}
	return nil
}
