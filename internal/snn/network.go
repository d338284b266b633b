package snn

import (
	"fmt"

	"falvolt/internal/systolic"
	"falvolt/internal/tensor"
)

// Sequence supplies the network input for each simulated timestep.
type Sequence interface {
	// At returns the input tensor for timestep t, shaped [N, C, H, W].
	At(t int) *tensor.Tensor
	// Steps returns the native number of timesteps of the sequence.
	Steps() int
}

// StaticSequence presents the same frame at every timestep — the paper's
// treatment of static datasets such as MNIST, where the first convolution
// acts as a learned spike encoder.
type StaticSequence struct {
	X *tensor.Tensor
	T int
}

// At implements Sequence.
func (s StaticSequence) At(int) *tensor.Tensor { return s.X }

// Steps implements Sequence.
func (s StaticSequence) Steps() int { return s.T }

// EventSequence presents a different pre-binned event frame per timestep —
// the neuromorphic datasets (N-MNIST, DVS Gesture).
type EventSequence struct {
	Frames []*tensor.Tensor
}

// At implements Sequence. Sequences shorter than the network's horizon
// repeat their last frame.
func (s EventSequence) At(t int) *tensor.Tensor {
	if t >= len(s.Frames) {
		t = len(s.Frames) - 1
	}
	return s.Frames[t]
}

// Steps implements Sequence.
func (s EventSequence) Steps() int { return len(s.Frames) }

// Network is an SNN: an ordered stack of layers unrolled over T timesteps.
// The network output is the mean firing rate of the final layer over the
// horizon, shaped [N, classes].
type Network struct {
	Layers []Layer
	T      int

	eng tensor.Backend // nil = tensor.Default()
}

// engineLayer is implemented by layers whose hot loops run on a compute
// backend.
type engineLayer interface {
	SetEngine(tensor.Backend)
}

// SetEngine routes the network's compute through e (nil restores
// tensor.Default()), propagating to every layer with an engine seam.
// Results are bit-identical on every engine; only wall-clock changes.
func (n *Network) SetEngine(e tensor.Backend) {
	n.eng = e
	for _, l := range n.Layers {
		if el, ok := l.(engineLayer); ok {
			el.SetEngine(e)
		}
	}
}

// Engine returns the network's compute backend.
func (n *Network) Engine() tensor.Backend {
	if n.eng != nil {
		return n.eng
	}
	return tensor.Default()
}

// InferenceClone returns a replica network for concurrent inference:
// layers share parameters and deployments with the original but own
// private recurrent state and caches (see Layer.CloneInference).
func (n *Network) InferenceClone() *Network {
	ls := make([]Layer, len(n.Layers))
	for i, l := range n.Layers {
		ls[i] = l.CloneInference()
	}
	return &Network{Layers: ls, T: n.T, eng: n.eng}
}

// TrainingClone returns a replica network for concurrent training: layers
// share parameter values with the original but own private gradient
// accumulators, recurrent state and caches (see Layer.CloneTraining).
// Clone Params() are index-aligned with the primary's, so the trainer can
// harvest a replica's gradients and reduce them into the primary's in a
// deterministic micro-batch order. Buffer ownership is Into-style: the
// clone writes only memory it allocated itself, so a device-offload
// backend can place replica gradients in its own arenas without touching
// the primary until the ordered reduction.
func (n *Network) TrainingClone() *Network {
	ls := make([]Layer, len(n.Layers))
	for i, l := range n.Layers {
		ls[i] = l.CloneTraining()
	}
	return &Network{Layers: ls, T: n.T, eng: n.eng}
}

// NewNetwork constructs a network over a fixed simulation horizon.
func NewNetwork(t int, layers ...Layer) *Network {
	if t <= 0 {
		panic(fmt.Sprintf("snn: horizon must be positive, got %d", t))
	}
	return &Network{Layers: layers, T: t}
}

// Params returns all trainable parameters of all layers.
func (n *Network) Params() []*Param {
	var ps []*Param
	for _, l := range n.Layers {
		ps = append(ps, l.Params()...)
	}
	return ps
}

// ResetState clears every layer's recurrent state and caches. Call between
// sequences (the trainer does this automatically).
func (n *Network) ResetState() {
	for _, l := range n.Layers {
		l.ResetState()
	}
}

// Forward runs the network over its horizon and returns the mean firing
// rate of the output layer, shaped [N, classes]. Each timestep is
// announced to every deployed systolic array first, so transient
// soft-error schedules strike and decay mid-inference at the right
// steps (a no-op for arrays without time-dependent faults).
//
// At inference every activation dies within its timestep, so each one is
// released to the scratch pool as soon as the next layer's output exists
// (see Layer); the sequence's own tensors are never released.
func (n *Network) Forward(seq Sequence, train bool) *tensor.Tensor {
	eng := n.Engine()
	var rate *tensor.Tensor
	for t := 0; t < n.T; t++ {
		n.stepDeployments(t)
		in := seq.At(t)
		x := in
		for _, l := range n.Layers {
			y := l.Forward(x, train)
			if !train && !sharesData(x, in) && !sharesData(x, y) {
				tensor.ReleaseScratch(x)
			}
			x = y
		}
		if rate == nil {
			rate = x.Clone()
		} else {
			eng.AddInPlace(rate, x)
		}
		if !train && !sharesData(x, in) {
			tensor.ReleaseScratch(x)
		}
	}
	eng.Scale(rate, 1/float32(n.T))
	return rate
}

// sharesData reports whether a and b are one tensor or views of one
// buffer, as an identity layer (inference Dropout) or a reshape (Flatten)
// returns.
func sharesData(a, b *tensor.Tensor) bool {
	return a == b || len(a.Data) > 0 && len(b.Data) > 0 && &a.Data[0] == &b.Data[0]
}

// Backward propagates the gradient of the loss wrt the mean firing rate
// back through all T timesteps (BPTT). Forward must have been called with
// train=true on the same sequence. The first layer's input is data, so a
// first-layer convolution does not form its input gradient.
func (n *Network) Backward(gradRate *tensor.Tensor) {
	perStep := gradRate.Clone()
	perStep.Scale(1 / float32(n.T))
	for t := n.T - 1; t >= 0; t-- {
		g := perStep
		for i := len(n.Layers) - 1; i >= 1; i-- {
			g = n.Layers[i].Backward(g)
		}
		if c, ok := n.Layers[0].(*Conv2D); ok {
			c.backward(g, false)
		} else {
			n.Layers[0].Backward(g)
		}
	}
}

// stepDeployments advances every deployed systolic array to inference
// timestep t. SetTimestep early-returns on arrays without a transient
// schedule, so the per-timestep cost is a few pointer loads unless
// time-dependent faults are actually injected.
func (n *Network) stepDeployments(t int) {
	for _, l := range n.Layers {
		if g, ok := l.(GEMMWeighted); ok {
			if d := g.Deployment(); d != nil {
				d.Array.SetTimestep(t)
			}
		}
	}
}

// timeFaulted reports whether any deployed array carries time-dependent
// fault state. Evaluation must not share such an array across
// concurrent replicas: each batch needs its own timestep sequence.
func (n *Network) timeFaulted() bool {
	for _, l := range n.Layers {
		if g, ok := l.(GEMMWeighted); ok {
			if d := g.Deployment(); d != nil && d.Array.TimeFaulted() {
				return true
			}
		}
	}
	return false
}

// SpikingLayers returns the PLIF neuron layers in network order.
func (n *Network) SpikingLayers() []*PLIFNode {
	var out []*PLIFNode
	for _, l := range n.Layers {
		if p, ok := l.(*PLIFNode); ok {
			out = append(out, p)
		}
	}
	return out
}

// GEMMLayers returns the layers whose weights map onto the systolic array
// (convolutions and fully-connected layers), in network order.
func (n *Network) GEMMLayers() []GEMMWeighted {
	var out []GEMMWeighted
	for _, l := range n.Layers {
		if g, ok := l.(GEMMWeighted); ok {
			out = append(out, g)
		}
	}
	return out
}

// SetLearnVth toggles threshold-voltage learning on every spiking layer —
// FalVolt switches this on for retraining; FaPIT leaves it off.
func (n *Network) SetLearnVth(on bool) {
	for _, p := range n.SpikingLayers() {
		p.SetLearnVth(on)
	}
}

// Vths returns the current threshold voltage of each spiking layer.
func (n *Network) Vths() []float64 {
	sp := n.SpikingLayers()
	out := make([]float64, len(sp))
	for i, p := range sp {
		out[i] = p.Vth()
	}
	return out
}

// SetVths sets every spiking layer's threshold voltage to v (the fixed-
// threshold retraining sweeps of the motivational study, Fig. 2).
func (n *Network) SetVths(v float64) {
	for _, p := range n.SpikingLayers() {
		p.SetVth(v)
	}
}

// Deploy routes every GEMM layer's inference through the given systolic
// array. Whether a layer's input is binary spikes is inferred from the
// network structure: a GEMM layer fed (through shape-preserving identity
// layers) by a PLIF node sees exact {0,1} spikes and uses the
// multiplier-less path; anything else (network input, pooled spikes)
// uses the quantized-product path.
func (n *Network) Deploy(arr *systolic.Array) {
	for i, l := range n.Layers {
		g, ok := l.(GEMMWeighted)
		if !ok {
			continue
		}
		g.SetDeployment(&Deployment{Array: arr, Binary: n.inputIsBinary(i)})
	}
}

// Undeploy restores the float reference path on every GEMM layer.
func (n *Network) Undeploy() {
	for _, g := range n.GEMMLayers() {
		g.SetDeployment(nil)
	}
}

// Redeploy requantizes deployed weights (call after retraining updates).
func (n *Network) Redeploy() {
	for _, g := range n.GEMMLayers() {
		if d := g.Deployment(); d != nil {
			g.SetDeployment(d)
		}
	}
}

// inputIsBinary walks backwards from layer index i over layers that
// preserve binariness at inference time: Flatten and Dropout are
// identities, and max pooling of binary spikes is itself binary (average
// pooling is not).
func (n *Network) inputIsBinary(i int) bool {
	for j := i - 1; j >= 0; j-- {
		switch n.Layers[j].(type) {
		case *Flatten, *Dropout, *MaxPool2:
			continue
		case *PLIFNode:
			return true
		default:
			return false
		}
	}
	return false
}
