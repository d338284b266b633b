package experiments

import (
	"fmt"
	"math/rand"

	"falvolt/internal/campaign"
	"falvolt/internal/core"
	"falvolt/internal/faults"
	"falvolt/internal/fixed"
	"falvolt/internal/mitigation"
	"falvolt/internal/snn"
	"falvolt/internal/systolic"
)

// The "ablations" campaign: small controlled comparisons on the MNIST
// pipeline behind the reproduction's design choices (the eq. (2)
// surrogate width, PLIF, the eq. (4) Vth gradient, the Fig. 3b bypass
// mux, the accumulator Q-format and the faulty register). None is a
// paper figure, but together they justify the defaults. Each x value of
// each ablation is one trial; its cells keep fixed seeds derived from
// the suite seed, so the trials carry none.

// ablation lays out one ablation figure: its frame, the plotted x
// values, the series every trial reports one value for, the dataset
// whose lane its cells measure on ("" builds no lane) and the cell
// measuring the i-th x value.
type ablation struct {
	fig    Figure
	xs     []float64
	series []string
	ds     string
	cell   func(cl *core.CellLane, i int) ([]float64, error)
}

// key is the trial key of the i-th x value: the figure ID and the x
// value's tick, or its shortest decimal form.
func (a ablation) key(i int) string {
	if a.fig.XTicks != nil {
		return a.fig.ID + "|" + a.fig.XTicks[i]
	}
	return a.fig.ID + "|" + ftag(a.xs[i])
}

// ablations lists the ablations in figure order.
func (s *Suite) ablations() []ablation {
	widths := []float64{1.0, 1.5, 2.0, 3.0}
	rates := []float64{0.10, 0.30, 0.60}
	formats := []fixed.Format{fixed.Q24x8, fixed.Q16x16, fixed.Q8x24}
	counts := []float64{4, 8, 16, 32}
	acc := []string{"accuracy"}
	return []ablation{{
		fig: Figure{
			ID: "Ablation-SurrogateWidth", Title: "Triangular surrogate support width",
			XLabel: "width", YLabel: "accuracy",
			Notes: []string{"same data, init and epochs; width 1 is the paper's exact eq. (2)"},
		},
		xs: widths, series: acc,
		cell: s.trainedCell(50, 60, 61, func(n *snn.NeuronConfig, i int) { n.Width = widths[i] }),
	}, {
		fig: Figure{
			ID: "Ablation-VthGrad", Title: "Threshold-voltage gradient form (FalVolt, 30% faults)",
			XLabel: "form", YLabel: "accuracy",
			XTicks: []string{"exact-autodiff", "paper-eq4"},
		},
		xs: []float64{0, 1}, series: acc,
		cell: func(_ *core.CellLane, i int) ([]float64, error) {
			fm, err := s.mitigationFaultMap(0, 0.30)
			if err != nil {
				return nil, err
			}
			bl, model, arr, err := s.mnistReplica()
			if err != nil {
				return nil, err
			}
			for _, node := range model.Net.SpikingLayers() {
				cfg := node.Config()
				cfg.PaperVthGrad = i == 1
				node.SetConfig(cfg)
			}
			rep, err := mitigation.Mitigate(model, arr, fm, mitigation.FalVolt, mitigation.Options{
				Train: bl.Train, Test: bl.Test, Epochs: s.Spec.Epochs, LR: 0.01, BatchSize: 16, ClipNorm: 5,
				Rng: rand.New(rand.NewSource(s.Seed + 70)),
			})
			if err != nil {
				return nil, err
			}
			return []float64{rep.Accuracy}, nil
		},
	}, {
		fig: Figure{
			ID: "Ablation-Bypass", Title: "Bypass mux vs raw corruption (no retraining)",
			XLabel: "faultRate", YLabel: "accuracy",
		},
		xs: rates, series: []string{"corrupting", "bypassed"}, ds: "MNIST",
		cell: func(cl *core.CellLane, i int) ([]float64, error) {
			fm, err := s.mitigationFaultMap(0, rates[i])
			if err != nil {
				return nil, err
			}
			return faultyPair(cl, fm.Rows, func(arr *systolic.Array, bypass bool) error {
				arr.SetBypass(bypass)
				return arr.InjectFaults(fm)
			})
		},
	}, {
		fig: Figure{
			ID: "Ablation-QFormat", Title: "PE accumulator fixed-point format (fault-free deployment)",
			XLabel: "format", YLabel: "accuracy",
			XTicks: []string{"Q24.8", "Q16.16", "Q8.24"},
		},
		xs: []float64{0, 1, 2}, series: acc,
		cell: func(_ *core.CellLane, i int) ([]float64, error) {
			bl, model, _, err := s.mnistReplica()
			if err != nil {
				return nil, err
			}
			arr, err := systolic.New(systolic.Config{
				Rows: s.Spec.Array, Cols: s.Spec.Array, Format: formats[i], Saturate: true,
			})
			if err != nil {
				return nil, err
			}
			model.Net.Deploy(arr)
			return []float64{snn.Evaluate(model.Net, bl.Test, 32)}, nil
		},
	}, {
		fig: Figure{
			ID: "Ablation-LIFvsPLIF", Title: "Frozen vs learnable membrane time constant",
			XLabel: "variant", YLabel: "accuracy",
			XTicks: []string{"LIF", "PLIF"},
		},
		xs: []float64{0, 1}, series: acc,
		cell: s.trainedCell(51, 62, 63, func(n *snn.NeuronConfig, i int) { n.LearnTau = i == 1 }),
	}, {
		// Accumulator faults corrupt every passing partial sum; weight
		// faults only fire when a spike gates the corrupted weight, so
		// they are milder.
		fig: Figure{
			ID: "Ablation-FaultSite", Title: "Accumulator vs weight-register stuck-at faults",
			XLabel: "faultyPEs", YLabel: "accuracy",
			Notes: []string{"equal fault maps (MSB sa1), no mitigation"},
		},
		xs: counts, series: []string{"accumulator", "weight-register"}, ds: "MNIST",
		cell: func(cl *core.CellLane, i int) ([]float64, error) {
			fm, err := faults.Generate(s.Spec.Array, s.Spec.Array, faults.GenSpec{
				NumFaulty: int(counts[i]), BitMode: faults.MSBBits, Pol: faults.StuckAt1,
			}, rand.New(rand.NewSource(s.Seed+int64(80+i))))
			if err != nil {
				return nil, err
			}
			return faultyPair(cl, s.Spec.Array, func(arr *systolic.Array, weight bool) error {
				if weight {
					return arr.InjectWeightFaults(fm)
				}
				return arr.InjectFaults(fm)
			})
		},
	}}
}

// trainedCell trains a fresh quick-shape MNIST model on a reduced
// dataset, its neuron config edited by neuron for the i-th x value, and
// reports its test accuracy. The data, model and training seeds are the
// suite seed plus the given offsets.
func (s *Suite) trainedCell(data, model, train int64, neuron func(*snn.NeuronConfig, int)) func(*core.CellLane, int) ([]float64, error) {
	return func(_ *core.CellLane, i int) ([]float64, error) {
		nTrain, nTest, epochs := 480, 192, 14
		if s.Spec.Quick {
			nTrain, nTest, epochs = 200, 96, 8
		}
		n := snn.DefaultNeuronConfig()
		neuron(&n, i)
		_, acc, err := core.BaselinePlan{
			Dataset: "mnist", Quick: true, T: 4, Train: nTrain, Test: nTest,
			ModelSeed: s.Seed + model, TrainSeed: s.Seed + train, DataSeed: s.Seed + data,
			Array: s.Spec.Array, Neuron: &n,
			Config: core.BaselineConfig{
				Epochs: epochs, LR: 0.02,
				Replicas: s.Spec.Training.Replicas, MicroBatch: s.Spec.Training.MicroBatch,
			},
		}.Build("", s.Log)
		return []float64{acc}, err
	}
}

// mnistReplica returns the MNIST baseline and a private replica of it.
func (s *Suite) mnistReplica() (*Baseline, *snn.Model, *systolic.Array, error) {
	bl, err := s.Dataset("MNIST")
	if err != nil {
		return nil, nil, nil, err
	}
	model, arr, err := bl.replica()
	return bl, model, arr, err
}

// faultyPair measures the lane's baseline unmitigated twice on its
// side x side array, injecting with variant false, then true.
func faultyPair(cl *core.CellLane, side int, inject func(arr *systolic.Array, variant bool) error) ([]float64, error) {
	var out []float64
	for _, v := range []bool{false, true} {
		acc, err := cl.Faulty(side, func(arr *systolic.Array) error { return inject(arr, v) })
		if err != nil {
			return nil, err
		}
		out = append(out, acc)
	}
	return out, nil
}

// ablationTrials enumerates every ablation's x values in figure order,
// with the cell each trial measures.
func (s *Suite) ablationTrials() ([]campaign.Trial, []laneCell) {
	var trials []campaign.Trial
	var cells []laneCell
	for _, ab := range s.ablations() {
		for i := range ab.xs {
			trials = append(trials, campaign.Trial{ID: len(trials), Key: ab.key(i)})
			cells = append(cells, laneCell{ds: ab.ds, measure: func(cl *core.CellLane, t campaign.Trial) (campaign.Result, error) {
				ys, err := ab.cell(cl, i)
				if err != nil {
					return campaign.Result{}, err
				}
				res := campaign.Result{Metrics: map[string]float64{}}
				for k, label := range ab.series {
					res.Metrics[label] = ys[k]
				}
				s.logf("ablations %s: %v\n", t.Key, res.Metrics)
				return res, nil
			}})
		}
	}
	return trials, cells
}

// ablationFigures folds merged ablation results into the six figures.
func (s *Suite) ablationFigures(results []campaign.Result) ([]*Figure, error) {
	byKey := campaign.GroupByKey(results)
	var figs []*Figure
	for _, ab := range s.ablations() {
		fig := ab.fig
		for _, label := range ab.series {
			ys := make([]float64, len(ab.xs))
			for i := range ab.xs {
				rs := byKey[ab.key(i)]
				if len(rs) == 0 {
					return nil, fmt.Errorf("experiments: ablations results missing %q (incomplete merge?)", ab.key(i))
				}
				ys[i] = rs[0].Metrics[label]
			}
			fig.Series = append(fig.Series, Series{Label: label, X: ab.xs, Y: ys})
		}
		figs = append(figs, &fig)
	}
	return figs, nil
}
