package experiments

import (
	"fmt"
	"math/rand"

	"falvolt/internal/core"
	"falvolt/internal/datasets"
	"falvolt/internal/faults"
	"falvolt/internal/fixed"
	"falvolt/internal/mitigation"
	"falvolt/internal/snn"
	"falvolt/internal/systolic"
)

// Ablations of the design choices called out in DESIGN.md §5. Each runs a
// small controlled comparison on the MNIST pipeline and reports accuracy;
// none is a paper figure, but together they justify the defaults.

// ablationScale bundles the reduced training setup ablations share.
type ablationScale struct {
	train, test int
	epochs      int
	t           int
}

func (s *Suite) ablationScale() ablationScale {
	if s.Opt.Quick {
		return ablationScale{train: 200, test: 96, epochs: 8, t: 4}
	}
	return ablationScale{train: 480, test: 192, epochs: 14, t: 4}
}

func (s *Suite) ablationSpec() snn.ModelSpec {
	spec := snn.MNISTSpec()
	spec.EncoderC, spec.BlockC, spec.FCHidden = 4, []int{8, 8}, 32
	return spec
}

// AblationSurrogateWidth compares training with the paper's exact width-1
// triangular surrogate against the default width-2 (which keeps the
// resting state inside the gradient support).
func (s *Suite) AblationSurrogateWidth() (*Figure, error) {
	sc := s.ablationScale()
	ds, err := datasets.SyntheticMNIST(datasets.Config{
		Train: sc.train, Test: sc.test, T: sc.t, Seed: s.Opt.Seed + 50,
	})
	if err != nil {
		return nil, err
	}
	fig := &Figure{
		ID: "Ablation-SurrogateWidth", Title: "Triangular surrogate support width",
		XLabel: "width", YLabel: "accuracy",
		Notes: []string{"same data, init and epochs; width 1 is the paper's exact eq. (2)"},
	}
	widths := []float64{1.0, 1.5, 2.0, 3.0}
	accs, err := runLocal("ablation-surrogate-width", len(widths), func(i int) (float64, error) {
		spec := s.ablationSpec()
		spec.Neuron.Width = widths[i]
		model, err := snn.Build(spec, rand.New(rand.NewSource(s.Opt.Seed+60)))
		if err != nil {
			return 0, err
		}
		acc, err := core.TrainBaseline(model, ds.Train, ds.Test, core.BaselineConfig{
			Epochs: sc.epochs, LR: 0.02, Rng: rand.New(rand.NewSource(s.Opt.Seed + 61)),
			Replicas: s.Opt.TrainReplicas, MicroBatch: s.Opt.TrainMicroBatch,
		})
		if err != nil {
			return 0, err
		}
		s.logf("ablation width %.1f: %.3f\n", widths[i], acc)
		return acc, nil
	})
	if err != nil {
		return nil, err
	}
	fig.Series = append(fig.Series, Series{Label: "accuracy", X: widths, Y: accs})
	return fig, nil
}

// AblationVthGradientForm compares FalVolt retraining with the exact
// autodiff threshold gradient against the paper's closed-form eq. (4).
func (s *Suite) AblationVthGradientForm() (*Figure, error) {
	bl, err := s.Dataset("MNIST")
	if err != nil {
		return nil, err
	}
	fm, err := s.mitigationFaultMap(0, 0.30)
	if err != nil {
		return nil, err
	}
	fig := &Figure{
		ID: "Ablation-VthGrad", Title: "Threshold-voltage gradient form (FalVolt, 30% faults)",
		XLabel: "form", YLabel: "accuracy",
		XTicks: []string{"exact-autodiff", "paper-eq4"},
	}
	forms := []bool{false, true}
	accs, err := runLocal("ablation-vth-grad", len(forms), func(i int) (float64, error) {
		model, err := bl.BuildModel()
		if err != nil {
			return 0, err
		}
		if err := model.Net.LoadState(bl.State); err != nil {
			return 0, err
		}
		for _, node := range model.Net.SpikingLayers() {
			cfg := node.Config()
			cfg.PaperVthGrad = forms[i]
			node.SetConfig(cfg)
		}
		arr := s.NewArray()
		rep, err := mitigation.Mitigate(model, arr, fm, bl.Data.Train, bl.TestSlice(s.Opt.EvalSamples), mitigation.Config{
			Method: mitigation.FalVolt, Epochs: s.Opt.RetrainEpochs, LR: 0.01, BatchSize: 16, ClipNorm: 5,
			Rng: rand.New(rand.NewSource(s.Opt.Seed + 70)),
		})
		if err != nil {
			return 0, err
		}
		s.logf("ablation vth-grad paperForm=%v: %.3f\n", forms[i], rep.Accuracy)
		return rep.Accuracy, nil
	})
	if err != nil {
		return nil, err
	}
	fig.Series = append(fig.Series, Series{Label: "accuracy", X: []float64{0, 1}, Y: accs})
	return fig, nil
}

// AblationBypass compares faulty inference with and without the bypass
// multiplexer at equal fault maps (FaP with bypass vs raw corruption).
func (s *Suite) AblationBypass() (*Figure, error) {
	bl, err := s.Dataset("MNIST")
	if err != nil {
		return nil, err
	}
	fig := &Figure{
		ID: "Ablation-Bypass", Title: "Bypass mux vs raw corruption (no retraining)",
		XLabel: "faultRate", YLabel: "accuracy",
	}
	rates := []float64{0.10, 0.30, 0.60}
	var raw, bypass []float64
	ws, err := s.newWorkers(bl, 1)
	if err != nil {
		return nil, err
	}
	w := ws[0]
	test := bl.TestSlice(s.Opt.EvalSamples)
	for i, rate := range rates {
		fm, err := s.mitigationFaultMap(0, rate)
		if err != nil {
			return nil, err
		}
		r, err := core.EvaluateFaulty(w.model, w.arr, fm, test, false, 32)
		if err != nil {
			return nil, err
		}
		b, err := core.EvaluateFaulty(w.model, w.arr, fm, test, true, 32)
		if err != nil {
			return nil, err
		}
		raw = append(raw, r)
		bypass = append(bypass, b)
		s.logf("ablation bypass rate %.0f%%: raw %.3f bypass %.3f\n", rate*100, r, b)
		_ = i
	}
	fig.Series = append(fig.Series,
		Series{Label: "corrupting", X: rates, Y: raw},
		Series{Label: "bypassed", X: rates, Y: bypass},
	)
	return fig, nil
}

// AblationQFormat compares deployed fault-free accuracy across PE
// accumulator Q-formats (quantization sensitivity of the datapath).
func (s *Suite) AblationQFormat() (*Figure, error) {
	bl, err := s.Dataset("MNIST")
	if err != nil {
		return nil, err
	}
	fig := &Figure{
		ID: "Ablation-QFormat", Title: "PE accumulator fixed-point format (fault-free deployment)",
		XLabel: "format", YLabel: "accuracy",
		XTicks: []string{"Q24.8", "Q16.16", "Q8.24"},
	}
	formats := []fixed.Format{fixed.Q24x8, fixed.Q16x16, fixed.Q8x24}
	accs, err := runLocal("ablation-qformat", len(formats), func(i int) (float64, error) {
		model, err := bl.BuildModel()
		if err != nil {
			return 0, err
		}
		if err := model.Net.LoadState(bl.State); err != nil {
			return 0, err
		}
		arr, err := systolic.New(systolic.Config{
			Rows: s.Opt.ArrayRows, Cols: s.Opt.ArrayCols, Format: formats[i], Saturate: true,
		})
		if err != nil {
			return 0, err
		}
		model.Net.Deploy(arr)
		acc := snn.Evaluate(model.Net, bl.TestSlice(s.Opt.EvalSamples), 32)
		s.logf("ablation qformat %v: %.3f\n", formats[i], acc)
		return acc, nil
	})
	if err != nil {
		return nil, err
	}
	fig.Series = append(fig.Series, Series{Label: "accuracy", X: []float64{0, 1, 2}, Y: accs})
	return fig, nil
}

// AblationLIFvsPLIF compares plain LIF (frozen time constant) against the
// PLIF learnable time constant used by the paper's architecture.
func (s *Suite) AblationLIFvsPLIF() (*Figure, error) {
	sc := s.ablationScale()
	ds, err := datasets.SyntheticMNIST(datasets.Config{
		Train: sc.train, Test: sc.test, T: sc.t, Seed: s.Opt.Seed + 51,
	})
	if err != nil {
		return nil, err
	}
	fig := &Figure{
		ID: "Ablation-LIFvsPLIF", Title: "Frozen vs learnable membrane time constant",
		XLabel: "variant", YLabel: "accuracy",
		XTicks: []string{"LIF", "PLIF"},
	}
	variants := []bool{false, true}
	accs, err := runLocal("ablation-lif-plif", len(variants), func(i int) (float64, error) {
		spec := s.ablationSpec()
		spec.Neuron.LearnTau = variants[i]
		model, err := snn.Build(spec, rand.New(rand.NewSource(s.Opt.Seed+62)))
		if err != nil {
			return 0, err
		}
		acc, err := core.TrainBaseline(model, ds.Train, ds.Test, core.BaselineConfig{
			Epochs: sc.epochs, LR: 0.02, Rng: rand.New(rand.NewSource(s.Opt.Seed + 63)),
			Replicas: s.Opt.TrainReplicas, MicroBatch: s.Opt.TrainMicroBatch,
		})
		if err != nil {
			return 0, err
		}
		s.logf("ablation learnTau=%v: %.3f\n", variants[i], acc)
		return acc, nil
	})
	if err != nil {
		return nil, err
	}
	fig.Series = append(fig.Series, Series{Label: "accuracy", X: []float64{0, 1}, Y: accs})
	return fig, nil
}

// AblationFaultSite compares stuck-at faults in the accumulator output
// register (the paper's model) against faults in the weight register at
// equal counts and bit positions. Accumulator faults corrupt every
// passing partial sum; weight faults only fire when a spike gates the
// corrupted weight, so they are milder.
func (s *Suite) AblationFaultSite() (*Figure, error) {
	bl, err := s.Dataset("MNIST")
	if err != nil {
		return nil, err
	}
	fig := &Figure{
		ID: "Ablation-FaultSite", Title: "Accumulator vs weight-register stuck-at faults",
		XLabel: "faultyPEs", YLabel: "accuracy",
		Notes: []string{"equal fault maps (MSB sa1), no mitigation"},
	}
	counts := []int{4, 8, 16, 32}
	ws, err := s.newWorkers(bl, 1)
	if err != nil {
		return nil, err
	}
	w := ws[0]
	test := bl.TestSlice(s.Opt.EvalSamples)
	var accAcc, wAcc []float64
	for i, n := range counts {
		fm, err := faults.Generate(s.Opt.ArrayRows, s.Opt.ArrayCols, faults.GenSpec{
			NumFaulty: n, BitMode: faults.MSBBits, Pol: faults.StuckAt1,
		}, rand.New(rand.NewSource(s.Opt.Seed+int64(80+i))))
		if err != nil {
			return nil, err
		}
		a, err := core.EvaluateFaulty(w.model, w.arr, fm, test, false, 32)
		if err != nil {
			return nil, err
		}
		b, err := core.EvaluateWeightFaulty(w.model, w.arr, fm, test, false, 32)
		if err != nil {
			return nil, err
		}
		accAcc = append(accAcc, a)
		wAcc = append(wAcc, b)
		s.logf("ablation fault-site n=%d: accumulator %.3f weight %.3f\n", n, a, b)
	}
	xs := make([]float64, len(counts))
	for i, n := range counts {
		xs[i] = float64(n)
	}
	fig.Series = append(fig.Series,
		Series{Label: "accumulator", X: xs, Y: accAcc},
		Series{Label: "weight-register", X: xs, Y: wAcc},
	)
	return fig, nil
}

// Ablations runs every ablation and returns their figures.
func (s *Suite) Ablations() ([]*Figure, error) {
	var out []*Figure
	for _, fn := range []func() (*Figure, error){
		s.AblationSurrogateWidth,
		s.AblationVthGradientForm,
		s.AblationBypass,
		s.AblationQFormat,
		s.AblationLIFvsPLIF,
		s.AblationFaultSite,
	} {
		fig, err := fn()
		if err != nil {
			return nil, fmt.Errorf("experiments: ablation: %w", err)
		}
		out = append(out, fig)
	}
	return out, nil
}
