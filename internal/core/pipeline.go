package core

import (
	"errors"
	"fmt"
	"io"
	"math/rand"
	"strings"

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
// mitigate with FaP, FaPIT or FalVolt (Algorithm 1) and report the
// recovered accuracy and the per-layer thresholds. Its Built.Save
// writes the mitigated network (`campaign run -c falvolt -save f`).

func init() { spec.Register("falvolt", buildPipeline) }

// buildPipeline resolves the pipeline section once, validating the
// dataset, method and rate and drawing the fault map before any
// training.
func buildPipeline(s *spec.Spec, opt spec.BuildOpts) (*spec.Built, error) {
	if s.Pipeline == nil {
		return nil, fmt.Errorf("core: spec kind %q needs a pipeline section", s.Kind)
	}
	p, seed := s.Pipeline.Defaulted(), s.EffectiveSeed()
	if !(p.Rate >= 0 && p.Rate <= 1) {
		return nil, fmt.Errorf("core: pipeline rate %v is outside [0,1]", p.Rate)
	}
	plan := BaselinePlan{
		Dataset: p.Dataset, Quick: p.Quick, Train: p.Train, Test: p.Test,
		ModelSeed: seed, TrainSeed: seed + 1, DataSeed: seed, Array: p.Array,
		Config: BaselineConfig{Epochs: p.BaseEpochs, LR: 0.02},
	}
	mspec, err := plan.ModelSpec()
	if err != nil {
		return nil, err
	}
	method, err := mitigation.ParseMethod(p.Method)
	if err != nil {
		return nil, err
	}
	// MSB stuck-at-1 PEs at the section's rate, from seed+2.
	fm, err := faults.GenerateRate(p.Array, p.Array, p.Rate, faults.GenSpec{
		BitMode: faults.MSBBits, Pol: faults.StuckAt1, PolMode: faults.FixedPol,
	}, rand.New(rand.NewSource(seed+2)))
	if err != nil {
		return nil, err
	}
	// The report names the thresholds by spiking layer; building the
	// untrained model is cheap and needs no baseline.
	model, err := snn.Build(mspec, rand.New(rand.NewSource(seed)))
	if err != nil {
		return nil, err
	}
	names := model.SpikingNames

	lazy := &lazyDeps{build: func() (YieldDeps, error) {
		logf(opt.Log, "dataset %s | model %s | array %dx%d | fault rate %.0f%% | method %s\n",
			strings.ToLower(p.Dataset), mspec.Name, p.Array, p.Array, p.Rate*100, method)
		logf(opt.Log, "training baseline (%d samples, %d epochs)...\n", p.Train, p.BaseEpochs)
		deps, acc, err := plan.Build("", nil)
		if err != nil {
			return YieldDeps{}, err
		}
		logf(opt.Log, "baseline accuracy: %.3f\n", acc)
		return deps, nil
	}}
	// mitigated is the network the trial left behind, set only when the
	// trial runs in this process.
	var mitigated *snn.Network
	trials := []campaign.Trial{{ID: 0, Key: "pipeline", Seed: seed}}
	cam := campaign.New("falvolt", trials, func(int) (campaign.Worker, error) {
		deps, err := lazy.get()
		if err != nil {
			return nil, err
		}
		return campaign.WorkerFunc(func(campaign.Trial) (campaign.Result, error) {
			cl := NewCellLane(deps, deps.Model, deps.Arr)
			raw, err := cl.Faulty(p.Array, func(arr *systolic.Array) error { return arr.InjectFaults(fm) })
			if err != nil {
				return campaign.Result{}, err
			}
			var losses []float64
			rep, err := cl.Mitigate(fm, method, mitigation.Options{
				Epochs: p.Epochs, LR: 0.01, BatchSize: 16, ClipNorm: 5,
				Rng:      rand.New(rand.NewSource(seed + 3)),
				Progress: func(_ int, loss float64) { losses = append(losses, loss) },
			})
			if err != nil {
				return campaign.Result{}, err
			}
			// The lane leaves deps.Model undeployed with the mitigated
			// weights.
			mitigated = deps.Model.Net
			return campaign.Result{
				Key:     "pipeline",
				Metrics: map[string]float64{"raw": raw, "acc": rep.Accuracy, "pruned": rep.PrunedFraction},
				Series:  map[string][]float64{"loss": losses, "vth": rep.Vths},
			}, nil
		}), nil
	})
	return &spec.Built{
		Campaign: cam,
		// A single trial: the report's clock is the runner's wall time
		// for the whole trial (both evaluations and the retraining).
		Render: func(w io.Writer, results []campaign.Result) error {
			if len(results) != 1 {
				return fmt.Errorf("core: falvolt report needs its one trial, got %d results", len(results))
			}
			r := results[0]
			fmt.Fprintln(w, fm)
			fmt.Fprintf(w, "accuracy with unmitigated faults: %.3f\n", r.Metrics["raw"])
			for epoch, loss := range r.Series["loss"] {
				fmt.Fprintf(w, "  [%s] epoch %2d loss %.4f\n", method, epoch, loss)
			}
			fmt.Fprintf(w, "after %s: accuracy %.3f (pruned %.1f%% of weights, trial %.1fs)\n",
				method, r.Metrics["acc"], r.Metrics["pruned"]*100, r.Wall)
			fmt.Fprintln(w, "per-layer threshold voltages:")
			for i, name := range names {
				fmt.Fprintf(w, "  %-7s Vth = %.3f\n", name, r.Series["vth"][i])
			}
			return nil
		},
		Save: func(path string) error {
			if mitigated == nil {
				return errors.New("core: the falvolt trial did not run in this process (it was resumed from a checkpoint or is in another shard), so there is no mitigated network to save")
			}
			return snn.SaveStateFile(mitigated.State(), path)
		},
	}, nil
}
