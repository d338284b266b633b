package core

import (
	"fmt"
	"io"
	"math/rand"
	"strconv"
	"strings"

	"falvolt/internal/campaign"
	"falvolt/internal/faults"
	"falvolt/internal/snn"
	"falvolt/internal/spec"
	"falvolt/internal/systolic"
)

// The "faultsim" campaign kind: the vulnerability sweeps of the paper's
// Fig. 5 family on one trained baseline — stuck bit position, faulty-PE
// count, array size, or a pluggable fault model's rate ladder. Every
// (sweep point × polarity × repeat) cell is one trial: restore the
// baseline, inject the cell's seed-addressed fault instance, optionally
// salvage it with a mitigation strategy, and measure accuracy. Points
// average their repeats with campaign.GroupMean, so the printed table is
// byte-identical however the cells were sharded.

// faultSimCell is one column of one table row: the trial key its
// repeats share, the fault-instance seed of repeat 0 (repeat r adds r),
// the array side, and the stuck-at map it draws (rate sweeps use the
// fault model instead).
type faultSimCell struct {
	key  string
	seed int64
	side int
	gen  faults.GenSpec
	rate float64
}

// faultSimRow is one printed row: its formatted label and its columns.
type faultSimRow struct {
	label string
	cells []faultSimCell
}

// The axes of the paper's Fig. 5 sweeps, shared by the faultsim kind's
// bits/count/size tables and the fig5a/fig5b/fig5c figure kinds.
var (
	// Fig5aBits are the stuck bit positions of Fig. 5a.
	Fig5aBits = []int{0, 2, 4, 6, 8, 10, 12, 14, 16}
	// Fig5bCounts are the faulty-PE counts of Fig. 5b.
	Fig5bCounts = []int{0, 4, 8, 16, 32, 40, 48, 56, 64}
	// Fig5cSides are the array side lengths of Fig. 5c (total PEs
	// 16..65536).
	Fig5cSides = []int{4, 8, 16, 32, 256}
)

// faultSimTable lays a sweep out as its table header and rows. The axes
// and per-cell seed formulas are the Fig. 5 sweeps'; fmodel is only read
// by the "model" sweep.
func faultSimTable(f spec.FaultSimSpec, seed int64, fmodel faults.FaultModel) (string, []faultSimRow, error) {
	var rows []faultSimRow
	stuck := func(n int) faults.GenSpec {
		return faults.GenSpec{NumFaulty: n, BitMode: faults.MSBBits, Pol: faults.StuckAt1}
	}
	switch strings.ToLower(f.Sweep) {
	case "bits":
		for _, bit := range Fig5aBits {
			row := faultSimRow{label: fmt.Sprintf("%-5d", bit)}
			for pi, pol := range []faults.Polarity{faults.StuckAt0, faults.StuckAt1} {
				row.cells = append(row.cells, faultSimCell{
					key:  fmt.Sprintf("bit=%d|pol=%s", bit, pol),
					seed: seed + int64(1000*pi) + int64(bit*10),
					side: f.Array,
					gen:  faults.GenSpec{NumFaulty: f.Faults, BitMode: faults.FixedBit, Bit: uint(bit), Pol: pol},
				})
			}
			rows = append(rows, row)
		}
		return fmt.Sprintf("%-5s  %-8s  %-8s\n", "bit", "sa0", "sa1"), rows, nil
	case "count":
		for _, n := range Fig5bCounts {
			rows = append(rows, faultSimRow{label: fmt.Sprintf("%-8d", n), cells: []faultSimCell{{
				key: fmt.Sprintf("faulty=%d", n), seed: seed + int64(n*10), side: f.Array, gen: stuck(n),
			}}})
		}
		return fmt.Sprintf("%-8s  %-8s\n", "faulty", "accuracy"), rows, nil
	case "size":
		for _, side := range Fig5cSides {
			rows = append(rows, faultSimRow{label: fmt.Sprintf("%-10d", side*side), cells: []faultSimCell{{
				key: fmt.Sprintf("side=%d", side), seed: seed + int64(side*10), side: side, gen: stuck(f.Faults),
			}}})
		}
		return fmt.Sprintf("%-10s  %-8s\n", "totalPEs", "accuracy"), rows, nil
	case "model":
		for _, rate := range spec.DefaultFaultModelRates() {
			rows = append(rows, faultSimRow{label: fmt.Sprintf("%-10g", rate), cells: []faultSimCell{{
				key:  "rate=" + strconv.FormatFloat(rate, 'g', -1, 64),
				seed: seed + int64(1e6*rate), side: f.Array, rate: rate,
			}}})
		}
		return fmt.Sprintf("model %s\n%-10s  %-8s\n", fmodel.Name(), "rate", "accuracy"), rows, nil
	}
	return "", nil, fmt.Errorf("core: unknown sweep %q (want bits | count | size | model)", f.Sweep)
}

// buildFaultSim resolves and validates a faultsim spec — sweep, fault
// model, dataset and loss — without training anything. Trials run rows,
// then columns, then repeats, IDs dense: the sweep's historical loop
// order, which the mitigation seeds (seed+7919·(ID+1)) depend on.
func buildFaultSim(s *spec.Spec, opt spec.BuildOpts) (*spec.Built, error) {
	if s.FaultSim == nil {
		return nil, fmt.Errorf("core: spec kind %q needs a faultsim section", s.Kind)
	}
	f, seed := s.FaultSim.Defaulted(), s.EffectiveSeed()
	var fmodel faults.FaultModel // "model" sweep only
	if strings.ToLower(f.Sweep) == "model" {
		ms := spec.FaultModelSpec{}
		if f.Model != nil {
			ms = *f.Model
		}
		var err error
		if fmodel, err = ms.FaultModel(); err != nil {
			return nil, err
		}
	}
	header, rows, err := faultSimTable(f, seed, fmodel)
	if err != nil {
		return nil, err
	}
	var trials []campaign.Trial
	var cells []faultSimCell // per trial ID
	for _, row := range rows {
		for _, cell := range row.cells {
			if n := cell.gen.NumFaulty; fmodel == nil && (n < 0 || n > cell.side*cell.side) {
				return nil, fmt.Errorf("core: faultsim point %s: cannot place %d faults in a %dx%d array",
					cell.key, n, cell.side, cell.side)
			}
			for rep := 0; rep < f.Repeats; rep++ {
				trials = append(trials, campaign.Trial{ID: len(trials), Key: cell.key, Seed: cell.seed + int64(rep)})
				cells = append(cells, cell)
			}
		}
	}
	var bt spec.TrainSpec
	if f.Training != nil {
		bt = *f.Training
	}
	loss, err := snn.LossByName(bt.Loss)
	if err != nil {
		return nil, err
	}
	plan := BaselinePlan{
		Dataset: f.Dataset, Quick: true, Train: f.Train, Test: f.Test,
		ModelSeed: seed, TrainSeed: seed + 1, DataSeed: seed, Array: f.Array,
		Config: BaselineConfig{
			Epochs: f.EffectiveBaseEpochs(), LR: bt.LR, BatchSize: bt.Batch, ClipNorm: bt.ClipNorm,
			Loss: loss, Replicas: bt.Replicas, MicroBatch: bt.MicroBatch,
		},
	}
	if _, err := plan.ModelSpec(); err != nil {
		return nil, err
	}
	lazy := &lazyDeps{build: func() (YieldDeps, error) {
		logf(opt.Log, "training %s baseline...\n", strings.ToLower(f.Dataset))
		deps, acc, err := plan.Build("", nil)
		if err != nil {
			return YieldDeps{}, err
		}
		logf(opt.Log, "baseline accuracy %.3f\n", acc)
		return deps, nil
	}}

	newWorker := func(lane int) (campaign.Worker, error) {
		deps, err := lazy.get()
		if err != nil {
			return nil, err
		}
		model, arr, err := deps.Lane(lane)
		if err != nil {
			return nil, err
		}
		cl := NewCellLane(deps, model, arr)
		return campaign.WorkerFunc(func(t campaign.Trial) (campaign.Result, error) {
			if t.ID < 0 || t.ID >= len(cells) {
				return campaign.Result{}, fmt.Errorf("core: faultsim trial %d out of range", t.ID)
			}
			acc, err := faultSimTrial(cl, cells[t.ID], fmodel, f.Mitigate, t.Seed, seed+7919*int64(t.ID+1))
			if err != nil {
				return campaign.Result{}, fmt.Errorf("core: trial %d: %w", t.ID, err)
			}
			return campaign.Result{TrialID: t.ID, Key: t.Key, Metrics: map[string]float64{"acc": acc}}, nil
		}), nil
	}

	render := func(w io.Writer, results []campaign.Result) error {
		if missing := campaign.Missing(results, len(trials)); len(missing) > 0 {
			return fmt.Errorf("core: faultsim results incomplete: %d of %d trials missing", len(missing), len(trials))
		}
		if ms := f.Mitigate; ms != nil {
			fmt.Fprintf(w, "mitigating every deployment with %s\n", ms.EffectiveKind())
		}
		fmt.Fprintf(w, "\n%s", header)
		mean := campaign.GroupMean(results, "acc")
		for _, row := range rows {
			line := row.label
			for _, cell := range row.cells {
				line += fmt.Sprintf("  %-8.3f", mean[cell.key])
			}
			if _, err := fmt.Fprintln(w, line); err != nil {
				return err
			}
		}
		return nil
	}
	return &spec.Built{Campaign: campaign.New("faultsim", trials, newWorker), Render: render}, nil
}

// faultSimTrial measures one cell on cl: inject the instance addressed
// by faultSeed (fmodel's at the cell's rate, else the cell's stuck-at
// map) and evaluate, salvaged first when ms is set (retraining rng from
// mitSeed).
func faultSimTrial(cl *CellLane, cell faultSimCell, fmodel faults.FaultModel, ms *spec.MitigationSpec,
	faultSeed, mitSeed int64) (float64, error) {
	inject := stuckAt(cell.gen, faultSeed)
	if fmodel != nil {
		inject = func(arr *systolic.Array) error { return fmodel.Inject(arr, cell.rate, faultSeed) }
	}
	if ms == nil {
		return cl.Faulty(cell.side, inject)
	}
	mit, err := newMitigation(*ms, 1, ms.EffectiveLR(), cl.deps, rand.New(rand.NewSource(mitSeed)))
	if err != nil {
		return 0, err
	}
	s, err := cl.Salvage(cell.side, inject, mit, false, 32)
	return s.Acc, err
}

func init() { spec.Register("faultsim", buildFaultSim) }
