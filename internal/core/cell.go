package core

import (
	"fmt"
	"math/rand"

	"falvolt/internal/faults"
	"falvolt/internal/mitigation"
	"falvolt/internal/snn"
	"falvolt/internal/systolic"
)

// CellLane is one runner lane's fault cell: a model, one array per side
// (the lane's own array, plus any other side a cell asks for, built on
// first use) and the baseline both return to before every cell. Every
// entry point runs the same sequence — restore the baseline, inject the
// cell's fault instance, deploy or salvage, evaluate — and leaves the
// model undeployed and the array clean, so a lane's cells are
// independent of the ones it ran before.
type CellLane struct {
	deps  YieldDeps
	model *snn.Model
	arrs  map[int]*systolic.Array
}

// NewCellLane wraps a lane's model and array (see YieldDeps.Lane). Cells
// evaluate on deps.Test.
func NewCellLane(deps YieldDeps, model *snn.Model, arr *systolic.Array) *CellLane {
	return &CellLane{deps: deps, model: model, arrs: map[int]*systolic.Array{arr.Config().Rows: arr}}
}

// Faulty measures the unmitigated baseline on the side x side array
// after inject has placed the fault instance (inject may also switch
// the bypass on).
func (l *CellLane) Faulty(side int, inject func(*systolic.Array) error) (float64, error) {
	var acc float64
	err := l.cell(side, inject, func(arr *systolic.Array) error {
		l.model.Net.Deploy(arr)
		acc = snn.EvaluateWith(nil, l.model.Net, l.deps.Test, 32)
		return nil
	})
	return acc, err
}

// StuckAt measures the unmitigated baseline on a side x side array
// carrying the stuck-at map gen draws from seed.
func (l *CellLane) StuckAt(side int, gen faults.GenSpec, seed int64) (float64, error) {
	return l.Faulty(side, stuckAt(gen, seed))
}

// stuckAt injects the stuck-at map gen draws from seed.
func stuckAt(gen faults.GenSpec, seed int64) func(*systolic.Array) error {
	return func(arr *systolic.Array) error {
		rows, cols := arr.Dims()
		fm, err := faults.Generate(rows, cols, gen, rand.New(rand.NewSource(seed)))
		if err != nil {
			return err
		}
		return arr.InjectFaults(fm)
	}
}

// Mitigate runs mitigation.Mitigate with method m and opt on the lane's
// baseline, restored on its array of fm's side, retraining on the
// lane's Train and evaluating on its Test (opt.Train and opt.Test are
// overwritten). It returns the report: final accuracy, pruned fraction,
// Vths and, with opt.TrackCurve, the Fig. 8 curve. The model keeps the
// mitigated weights.
func (l *CellLane) Mitigate(fm *faults.Map, m mitigation.Method, opt mitigation.Options) (*mitigation.Report, error) {
	opt.Train, opt.Test = l.deps.Train, l.deps.Test
	var rep *mitigation.Report
	err := l.cell(fm.Rows, nil, func(arr *systolic.Array) error {
		var err error
		rep, err = mitigation.Mitigate(l.model, arr, fm, m, opt)
		return err
	})
	return rep, err
}

// Salvaged is what one salvage cell measures.
type Salvaged struct {
	// Raw is the unmitigated accuracy (0 when the raw pass is skipped).
	Raw float64
	// Acc is the accuracy on the deployment the strategy left behind.
	Acc float64
	// Outcome is the strategy's report of what it did.
	Outcome *mitigation.Outcome
	// MAC is the final evaluation's MAC cycles per inference.
	MAC float64
}

// Salvage is the salvage cell: after inject places the fault instance
// on the side x side array, measure raw accuracy (bypass off) when raw
// is set, apply mit, and measure accuracy and MAC cycles on the
// deployment it left behind. Both evaluations run at batch. The stats
// counters are order-independent integers, so MAC is bit-identical on
// every engine.
func (l *CellLane) Salvage(side int, inject func(*systolic.Array) error, mit mitigation.Mitigation,
	raw bool, batch int) (Salvaged, error) {
	var s Salvaged
	err := l.cell(side, inject, func(arr *systolic.Array) error {
		net := l.model.Net
		if raw {
			net.Deploy(arr)
			s.Raw = snn.EvaluateWith(nil, net, l.deps.Test, batch)
			net.Undeploy()
		}
		// The concrete accumulator fault map (empty for fault classes
		// whose state lives elsewhere on the array) rides along.
		out, err := mit.Apply(l.model, arr, arr.FaultMap())
		if err != nil {
			return fmt.Errorf("%s: %w", mit.Name(), err)
		}
		s.Outcome = out
		arr.ResetStats()
		s.Acc = snn.EvaluateWith(nil, net, l.deps.Test, batch)
		if n := len(l.deps.Test); n > 0 {
			s.MAC = float64(arr.Stats().MACCycles) / float64(n)
		}
		return nil
	})
	return s, err
}

// cell is the one sequence behind every entry point: restore the
// baseline on the lane's side x side array (built on first use), run
// inject (nil injects nothing) and measure, and leave the model
// undeployed and the array clean whatever happened.
func (l *CellLane) cell(side int, inject, measure func(*systolic.Array) error) error {
	arr, ok := l.arrs[side]
	if !ok {
		cfg := l.deps.Arr.Config()
		cfg.Rows, cfg.Cols = side, side
		var err error
		if arr, err = systolic.New(cfg); err != nil {
			return err
		}
		l.arrs[side] = arr
	}
	defer func() {
		l.model.Net.Undeploy()
		arr.ClearFaults()
		arr.SetBypass(false)
	}()
	if err := l.deps.Restore(l.model, arr); err != nil {
		return err
	}
	if inject != nil {
		if err := inject(arr); err != nil {
			return fmt.Errorf("inject: %w", err)
		}
	}
	return measure(arr)
}
