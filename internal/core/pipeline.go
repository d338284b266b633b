package core

import (
	"fmt"
	"io"
	"math/rand"
	"strings"
	"time"

	"falvolt/internal/campaign"
	"falvolt/internal/faults"
	"falvolt/internal/mitigation"
	"falvolt/internal/snn"
	"falvolt/internal/spec"
	"falvolt/internal/systolic"
)

// The "falvolt" campaign kind: the paper's tool flow (Fig. 4) end to
// end as one trial — train the baseline, draw one MSB stuck-at-1 fault
// map at the pipeline's rate, measure unmitigated accuracy, then
// mitigate with FaP, FaPIT or FalVolt (Algorithm 1). cmd/falvolt calls
// the same three functions directly, so it can also save the mitigated
// network.

// pipelineSection returns the defaulted pipeline section, the run seed
// and the baseline plan, validating the dataset and method names before
// any training.
func pipelineSection(s *spec.Spec) (spec.PipelineSpec, int64, mitigation.Method, BaselinePlan, error) {
	if s.Pipeline == nil {
		return spec.PipelineSpec{}, 0, 0, BaselinePlan{}, fmt.Errorf("core: spec kind %q needs a pipeline section", s.Kind)
	}
	p, seed := s.Pipeline.Defaulted(), s.EffectiveSeed()
	plan := BaselinePlan{
		Dataset: p.Dataset, Quick: p.Quick, Train: p.Train, Test: p.Test,
		ModelSeed: seed, TrainSeed: seed + 1, DataSeed: seed, Array: p.Array,
		Config: BaselineConfig{Epochs: p.BaseEpochs, LR: 0.02},
	}
	if _, err := plan.ModelSpec(); err != nil {
		return p, 0, 0, plan, err
	}
	method, err := mitigation.ParseMethod(p.Method)
	return p, seed, method, plan, err
}

// FalVoltBaseline builds the pipeline's trained baseline, writing the
// run header and training progress to log (nil silences).
func FalVoltBaseline(s *spec.Spec, log io.Writer) (YieldDeps, error) {
	p, _, method, plan, err := pipelineSection(s)
	if err != nil {
		return YieldDeps{}, err
	}
	mspec, _ := plan.ModelSpec()
	logf(log, "dataset %s | model %s | array %dx%d | fault rate %.0f%% | method %s\n",
		strings.ToLower(p.Dataset), mspec.Name, p.Array, p.Array, p.Rate*100, method)
	logf(log, "training baseline (%d samples, %d epochs)...\n", p.Train, p.BaseEpochs)
	deps, acc, err := plan.Build("", nil)
	if err != nil {
		return YieldDeps{}, err
	}
	logf(log, "baseline accuracy: %.3f\n", acc)
	return deps, nil
}

// pipelineFaultMap draws the pipeline's fault map: MSB stuck-at-1 PEs at
// the section's rate, from seed+2.
func pipelineFaultMap(p spec.PipelineSpec, seed int64) (*faults.Map, error) {
	return faults.GenerateRate(p.Array, p.Array, p.Rate, faults.GenSpec{
		BitMode: faults.MSBBits, Pol: faults.StuckAt1, PolMode: faults.FixedPol,
	}, rand.New(rand.NewSource(seed+2)))
}

// FalVoltTrial runs the pipeline's one trial on a lane over a built
// baseline, leaving deps.Model undeployed with the mitigated weights.
// The result carries the unmitigated ("raw") and mitigated ("acc")
// accuracies, the pruned fraction, and the per-epoch retraining losses
// and per-layer thresholds as series. The retraining wall-clock time is
// returned beside it, never inside it, so reruns of the trial merge
// bit-identically.
func FalVoltTrial(deps YieldDeps, s *spec.Spec) (campaign.Result, time.Duration, error) {
	p, seed, method, _, err := pipelineSection(s)
	if err != nil {
		return campaign.Result{}, 0, err
	}
	fm, err := pipelineFaultMap(p, seed)
	if err != nil {
		return campaign.Result{}, 0, err
	}
	cl := NewCellLane(deps, deps.Model, deps.Arr)
	raw, err := cl.Faulty(p.Array, func(arr *systolic.Array) error { return arr.InjectFaults(fm) })
	if err != nil {
		return campaign.Result{}, 0, err
	}
	var losses []float64
	rep, err := cl.Mitigate(fm, method, mitigation.Options{
		Epochs: p.Epochs, LR: 0.01, BatchSize: 16, ClipNorm: 5,
		Rng:      rand.New(rand.NewSource(seed + 3)),
		Progress: func(_ int, loss float64) { losses = append(losses, loss) },
	})
	if err != nil {
		return campaign.Result{}, 0, err
	}
	return campaign.Result{
		Key:     "pipeline",
		Metrics: map[string]float64{"raw": raw, "acc": rep.Accuracy, "pruned": rep.PrunedFraction},
		Series:  map[string][]float64{"loss": losses, "vth": rep.Vths},
	}, rep.RetrainDuration, nil
}

// WriteFalVolt prints a pipeline trial's report: the fault map, the
// unmitigated accuracy, the retraining losses, the mitigated accuracy,
// and — when names is non-nil — the per-layer thresholds under those
// spiking-layer names.
func WriteFalVolt(w io.Writer, s *spec.Spec, r campaign.Result, retrain time.Duration, names []string) error {
	p, seed, method, _, err := pipelineSection(s)
	if err != nil {
		return err
	}
	fm, err := pipelineFaultMap(p, seed)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, fm)
	fmt.Fprintf(w, "accuracy with unmitigated faults: %.3f\n", r.Metrics["raw"])
	for epoch, loss := range r.Series["loss"] {
		fmt.Fprintf(w, "  [%s] epoch %2d loss %.4f\n", method, epoch, loss)
	}
	fmt.Fprintf(w, "after %s: accuracy %.3f (pruned %.1f%% of weights, retrain %.1fs)\n",
		method, r.Metrics["acc"], r.Metrics["pruned"]*100, retrain.Seconds())
	if names != nil {
		fmt.Fprintln(w, "per-layer threshold voltages:")
		for i, name := range names {
			fmt.Fprintf(w, "  %-7s Vth = %.3f\n", name, r.Series["vth"][i])
		}
	}
	return nil
}

func init() {
	spec.Register("falvolt", func(s *spec.Spec, opt spec.BuildOpts) (*spec.Built, error) {
		_, seed, _, plan, err := pipelineSection(s)
		if err != nil {
			return nil, err
		}
		mspec, _ := plan.ModelSpec()
		// The report names the thresholds by spiking layer; building the
		// untrained model is cheap and needs no baseline.
		model, err := snn.Build(mspec, rand.New(rand.NewSource(seed)))
		if err != nil {
			return nil, err
		}
		names := model.SpikingNames
		lazy := &lazyDeps{build: func() (YieldDeps, error) { return FalVoltBaseline(s, opt.Log) }}
		trials := []campaign.Trial{{ID: 0, Key: "pipeline", Seed: seed}}
		cam := campaign.New("falvolt", trials, func(int) (campaign.Worker, error) {
			deps, err := lazy.get()
			if err != nil {
				return nil, err
			}
			return campaign.WorkerFunc(func(campaign.Trial) (campaign.Result, error) {
				r, _, err := FalVoltTrial(deps, s)
				return r, err
			}), nil
		})
		return &spec.Built{
			Campaign: cam,
			// A single trial: its runner wall time stands in for the
			// retraining time, which results do not carry.
			Render: func(w io.Writer, results []campaign.Result) error {
				if len(results) != 1 {
					return fmt.Errorf("core: falvolt report needs its one trial, got %d results", len(results))
				}
				r := results[0]
				return WriteFalVolt(w, s, r, time.Duration(r.Wall*float64(time.Second)), names)
			},
		}, nil
	})
}
