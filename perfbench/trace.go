package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"time"

	"falvolt/internal/campaign"
	"falvolt/internal/core"
	"falvolt/internal/faults"
	"falvolt/internal/mitigation"
	"falvolt/internal/snn"
	"falvolt/internal/spec"
	"falvolt/internal/systolic"
	"falvolt/internal/tensor"
)

// span is one timed call at a layer boundary. Spans of one trial share
// Trial (-1 for work outside any trial); Parent is the ID of the span
// that caused it (-1 for a root).
type span struct {
	Trial  int    `json:"trial"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	// Systolic counters accumulated inside the span (evaluations only).
	Accumulations uint64 `json:"accumulations,omitempty"`
	TilePasses    uint64 `json:"tile_passes,omitempty"`
	BypassedSteps uint64 `json:"bypassed_steps,omitempty"`
	Inferences    int    `json:"inferences,omitempty"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer records spans in memory. It is not safe for concurrent use.
type tracer struct {
	epoch time.Time
	trial int
	spans []span
	open  []int
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), trial: -1}
}

func (t *tracer) begin(name string) int {
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{
		Trial: t.trial, ID: id, Parent: parent, Name: name,
		Start: int64(time.Since(t.epoch)),
	})
	t.open = append(t.open, id)
	return id
}

func (t *tracer) end(id int) {
	t.spans[id].End = int64(time.Since(t.epoch))
	t.open = t.open[:len(t.open)-1]
}

// layerKind names the per-layer metric family of a network layer.
func layerKind(l snn.Layer) string {
	switch l.(type) {
	case *snn.Conv2D:
		return "conv"
	case *snn.Linear:
		return "linear"
	case *snn.BatchNorm2D:
		return "bn"
	case *snn.PLIFNode:
		return "plif"
	case *snn.AvgPool2, *snn.MaxPool2:
		return "pool"
	default:
		return "other"
	}
}

// eval is snn.EvaluateWith driven layer by layer: batches run in order
// on net itself, each Layer.Forward inside its own span, and the span
// carries the array's counter deltas. Accuracy is identical to
// EvaluateWith's, which sums per-batch correct counts in any order.
func (t *tracer) eval(name string, net *snn.Network, arr *systolic.Array, samples []snn.Sample, batch int) float64 {
	id := t.begin(name)
	before := arr.Stats()
	eng := net.Engine()
	kinds := make([]string, len(net.Layers))
	for i, l := range net.Layers {
		kinds[i] = "snn." + layerKind(l) + ".fwd"
	}
	correct := 0
	for start := 0; start < len(samples); start += batch {
		seq, labels := snn.MakeBatch(samples[start:min(start+batch, len(samples))])
		net.ResetState()
		var rate *tensor.Tensor
		for step := 0; step < net.T; step++ {
			for _, g := range net.GEMMLayers() {
				if d := g.Deployment(); d != nil {
					d.Array.SetTimestep(step)
				}
			}
			x := seq.At(step)
			for i, l := range net.Layers {
				s := t.begin(kinds[i])
				x = l.Forward(x, false)
				t.end(s)
			}
			if rate == nil {
				rate = x.Clone()
			} else {
				eng.AddInPlace(rate, x)
			}
		}
		eng.Scale(rate, 1/float32(net.T))
		for i, l := range labels {
			if rate.Argmax(i) == l {
				correct++
			}
		}
	}
	after := arr.Stats()
	sp := &t.spans[id]
	sp.Accumulations = after.Accumulations - before.Accumulations
	sp.TilePasses = after.TilePasses - before.TilePasses
	sp.BypassedSteps = after.BypassedSteps - before.BypassedSteps
	sp.Inferences = len(samples)
	t.end(id)
	return float64(correct) / float64(len(samples))
}

// mitigationOptions resolves a salvage cell's strategy options exactly
// as the salvage campaign does for trial seed trialSeed.
func mitigationOptions(d spec.SalvageCampaignSpec, ms spec.MitigationSpec, deps core.YieldDeps, trialSeed int64) mitigation.Options {
	epochs := ms.EffectiveEpochs()
	if epochs == 0 {
		epochs = d.Epochs
	}
	lr := ms.EffectiveLR()
	if lr == 0 {
		lr = 0.01
	}
	mt := ms.TrainingOrZero()
	batch, clip := mt.Batch, mt.ClipNorm
	if batch == 0 {
		batch = 16
	}
	if clip == 0 {
		clip = 5
	}
	return mitigation.Options{
		Train:      deps.Train,
		Test:       deps.Test,
		Epochs:     epochs,
		BatchSize:  batch,
		LR:         lr,
		ClipNorm:   clip,
		FixedVth:   ms.Vth,
		Rng:        rand.New(rand.NewSource(trialSeed + 1)),
		BypassBit:  ms.BypassBit,
		Replicas:   mt.Replicas,
		MicroBatch: mt.MicroBatch,
	}
}

// tracedTrial repeats one salvage trial's public call sequence on the
// campaign's model and array, each call inside a span, and returns the
// result the campaign worker would have returned.
func (t *tracer) tracedTrial(d spec.SalvageCampaignSpec, deps core.YieldDeps, tr campaign.Trial) (campaign.Result, error) {
	model, arr := deps.Model, deps.Arr
	rate, err := strconv.ParseFloat(tr.Tags["rate"], 64)
	if err != nil {
		return campaign.Result{}, fmt.Errorf("trial %d: rate tag: %w", tr.ID, err)
	}
	mi, err := strconv.Atoi(tr.Tags["miti"])
	if err != nil || mi < 0 || mi >= len(d.Mitigations) {
		return campaign.Result{}, fmt.Errorf("trial %d: bad mitigation tag %q", tr.ID, tr.Tags["miti"])
	}
	ms := d.Mitigations[mi]
	fmodel, err := faults.ModelByName(tr.Tags["model"])
	if err != nil {
		return campaign.Result{}, err
	}
	t.trial = tr.ID
	defer func() { t.trial = -1 }()
	root := t.begin("trial")
	defer t.end(root)
	net := model.Net

	s := t.begin("core.restore")
	net.Undeploy()
	err = net.LoadState(deps.Baseline)
	arr.ClearFaults()
	arr.SetBypass(false)
	t.end(s)
	if err != nil {
		return campaign.Result{}, err
	}
	s = t.begin("faults.inject")
	err = fmodel.Inject(arr, rate, tr.Seed)
	t.end(s)
	if err != nil {
		return campaign.Result{}, err
	}
	s = t.begin("snn.deploy")
	net.Deploy(arr)
	t.end(s)
	raw := t.eval("snn.eval_raw", net, arr, deps.Test, d.Batch)
	net.Undeploy()

	s = t.begin("mitigation.apply")
	mit, err := mitigation.New(ms.EffectiveKind(), mitigationOptions(d, ms, deps, tr.Seed))
	var out *mitigation.Outcome
	if err == nil {
		out, err = mit.Apply(model, arr, arr.FaultMap())
	}
	t.end(s)
	if err != nil {
		return campaign.Result{}, fmt.Errorf("trial %d: %w", tr.ID, err)
	}

	arr.ResetStats()
	acc := t.eval("snn.eval_final", net, arr, deps.Test, d.Batch)
	perInf := float64(arr.Stats().MACCycles) / float64(len(deps.Test))

	s = t.begin("core.cleanup")
	net.Undeploy()
	arr.ClearFaults()
	arr.SetBypass(false)
	t.end(s)
	return campaign.Result{
		TrialID: tr.ID,
		Key:     tr.Key,
		Metrics: map[string]float64{
			"raw":       raw,
			"acc":       acc,
			"recovered": acc - raw,
			"epochs":    float64(out.RetrainEpochs),
			"pruned":    out.PrunedFraction,
			"remapped":  float64(out.RemappedLayers),
			"bypassed":  float64(out.BypassedPEs),
			"clamped":   float64(out.ClampedLayers),
			"mac":       perInf,
		},
	}, nil
}

// profileTraining drives one training epoch over the workload's training
// set, batch by batch, through Layer.Forward(x, true), the loss,
// Layer.Backward in network.Backward order, and a clipped Adam step,
// each inside its own span. It runs on a private copy of the baseline.
// The spans are a profile of the kernels snn.Train runs, not a timing of
// snn.Train itself.
func (t *tracer) profileTraining(deps core.YieldDeps, classes int) error {
	m, err := deps.BuildModel()
	if err != nil {
		return err
	}
	net := m.Net
	if err := net.LoadState(deps.Baseline); err != nil {
		return err
	}
	bwd := make([]string, len(net.Layers))
	for i, l := range net.Layers {
		bwd[i] = "snn." + layerKind(l) + ".bwd"
	}
	params := net.Params()
	opt := snn.NewAdam(params, 0.01)
	order := rand.New(rand.NewSource(1)).Perm(len(deps.Train))
	eng := net.Engine()
	root := t.begin("train_epoch")
	defer t.end(root)
	batch := make([]snn.Sample, 0, 16)
	for start := 0; start < len(order); start += 16 {
		batch = batch[:0]
		for _, i := range order[start:min(start+16, len(order))] {
			batch = append(batch, deps.Train[i])
		}
		seq, labels := snn.MakeBatch(batch)
		net.ResetState()
		opt.ZeroGrad()
		var rate *tensor.Tensor
		for step := 0; step < net.T; step++ {
			x := seq.At(step)
			for _, l := range net.Layers {
				s := t.begin("snn.train_fwd")
				x = l.Forward(x, true)
				t.end(s)
			}
			if rate == nil {
				rate = x.Clone()
			} else {
				eng.AddInPlace(rate, x)
			}
		}
		eng.Scale(rate, 1/float32(net.T))
		s := t.begin("snn.loss")
		_, grad := snn.MSERate{}.Loss(rate, snn.OneHot(labels, classes))
		grad.Scale(1 / float32(net.T))
		t.end(s)
		for step := net.T - 1; step >= 0; step-- {
			g := grad
			for i := len(net.Layers) - 1; i >= 0; i-- {
				s := t.begin(bwd[i])
				g = net.Layers[i].Backward(g)
				t.end(s)
			}
		}
		s = t.begin("snn.optim")
		snn.ClipGradNorm(params, 5)
		opt.Step()
		t.end(s)
	}
	return nil
}

// cleanEvalMS evaluates the baseline deployed on a fault-free array,
// the denominator of the faulty-evaluation slowdown (SpikeFI's cost
// metric), and returns the median of reps evaluations in milliseconds.
func (t *tracer) cleanEvalMS(deps core.YieldDeps, batch, reps int) (float64, error) {
	m, err := deps.BuildModel()
	if err != nil {
		return 0, err
	}
	if err := m.Net.LoadState(deps.Baseline); err != nil {
		return 0, err
	}
	arr, err := systolic.New(deps.Arr.Config())
	if err != nil {
		return 0, err
	}
	m.Net.Deploy(arr)
	ms := make([]float64, reps)
	for i := range ms {
		start := time.Now()
		t.eval("snn.eval_clean", m.Net, arr, deps.Test, batch)
		ms[i] = float64(time.Since(start)) / 1e6
	}
	return median(ms), nil
}

// replay repeats completed trials in ID order with tracing on until
// budget has elapsed, at least one trial.
func (t *tracer) replay(d spec.SalvageCampaignSpec, deps core.YieldDeps, trials []campaign.Trial, budget time.Duration) ([]campaign.Result, error) {
	deadline := time.Now().Add(budget)
	var out []campaign.Result
	for i, tr := range trials {
		if i > 0 && !time.Now().Before(deadline) {
			break
		}
		r, err := t.tracedTrial(d, deps, tr)
		if err != nil {
			return nil, err
		}
		out = append(out, r)
	}
	return out, nil
}

// writeSpans writes every span as one JSON line to path.
func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
