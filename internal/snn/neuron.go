package snn

import (
	"fmt"
	"math"

	"falvolt/internal/tensor"
)

// SurrogateGamma is the default peak γ of the triangular surrogate gradient
// ∂o/∂z = γ·max(0, 1−|z|) used in place of the discontinuous Heaviside
// derivative (paper eq. 2).
const SurrogateGamma = 1.0

// NeuronConfig configures a (P)LIF spiking neuron layer.
type NeuronConfig struct {
	// VThreshold is the initial threshold voltage V. A neuron fires when
	// its membrane potential reaches V (z = v/V − 1 > 0, paper eq. 1).
	VThreshold float64
	// LearnVth makes V a trainable per-layer scalar updated by
	// backpropagation (paper eq. 3–4) — the FalVolt mechanism.
	LearnVth bool
	// InitTau is the initial membrane time constant τ. The effective
	// leak is 1/τ = sigmoid(w); PLIF trains w, plain LIF freezes it.
	InitTau float64
	// LearnTau enables the PLIF learnable time constant (Fang et al.).
	LearnTau bool
	// Gamma is the surrogate peak; zero selects SurrogateGamma.
	Gamma float64
	// Width is the half-support of the triangular surrogate in z units:
	// ∂o/∂z = γ·max(0, 1−|z|/Width). The paper's eq. (2) is Width = 1,
	// but the resting state sits exactly at z = −1 where a width-1
	// triangle gives zero gradient, so deep stacks cannot begin learning;
	// the default Width = 2 keeps the resting state inside the support.
	// Set Width = 1 explicitly to ablate with the paper's exact form.
	Width float64
	// PaperVthGrad uses the paper's closed-form eq. (4) threshold-voltage
	// gradient ∆V = Σ_t ∂L/∂o·∂o/∂z·(−V·o_{t−1}−v_t)/V² instead of the
	// exact autodiff gradient. Kept as an ablation knob; both recover
	// accuracy, the exact gradient is the default.
	PaperVthGrad bool
}

// DefaultNeuronConfig mirrors the paper's initial training setup: V = 1.0,
// τ = 2.0 with PLIF learnable time constants, fixed threshold.
func DefaultNeuronConfig() NeuronConfig {
	return NeuronConfig{VThreshold: 1.0, InitTau: 2.0, LearnTau: true, Gamma: SurrogateGamma, Width: 2}
}

// PLIFNode is a layer of parametric leaky-integrate-and-fire neurons with
// hard reset and an optional learnable per-layer threshold voltage.
//
// Dynamics per timestep (elementwise over the layer's neurons):
//
//	a   = sigmoid(w)                  // learnable leak 1/τ
//	H_t = v_{t−1} + a·(X_t − v_{t−1}) // charge
//	z_t = H_t/V − 1                   // normalized drive (paper eq. 1)
//	o_t = Θ(z_t)                      // spike
//	v_t = H_t·(1 − o_t)               // hard reset to 0
type PLIFNode struct {
	cfg NeuronConfig

	// vth and tauW are per-layer scalars stored as 1-element tensors so
	// the optimizer treats them uniformly with weight parameters.
	vth  *Param
	tauW *Param

	v *tensor.Tensor // membrane potential carried across timesteps

	// Per-timestep caches for BPTT.
	zs   cacheStack // z_t
	hs   cacheStack // H_t
	xmvs cacheStack // X_t − v_{t−1}
	os   cacheStack // o_t (needed by the paper-form Vth gradient)

	// gradV carries dL/dv_t from timestep t+1 backward to t.
	gradV *tensor.Tensor
}

// NewPLIFNode constructs a neuron layer from cfg.
func NewPLIFNode(cfg NeuronConfig) *PLIFNode {
	if cfg.VThreshold <= 0 {
		panic(fmt.Sprintf("snn: threshold voltage must be positive, got %v", cfg.VThreshold))
	}
	if cfg.InitTau <= 1 {
		panic(fmt.Sprintf("snn: init tau must exceed 1, got %v", cfg.InitTau))
	}
	if cfg.Gamma == 0 {
		cfg.Gamma = SurrogateGamma
	}
	if cfg.Width <= 0 {
		cfg.Width = 2
	}
	n := &PLIFNode{cfg: cfg}
	n.vth = NewParam("vth", tensor.FromSlice([]float32{float32(cfg.VThreshold)}, 1))
	// sigmoid(w) = 1/τ  ⇒  w = -ln(τ − 1).
	w := -math.Log(cfg.InitTau - 1)
	n.tauW = NewParam("tau_w", tensor.FromSlice([]float32{float32(w)}, 1))
	return n
}

// Vth returns the current threshold voltage.
func (n *PLIFNode) Vth() float64 { return float64(n.vth.Value.Data[0]) }

// SetVth overrides the threshold voltage (used by fixed-threshold sweeps).
func (n *PLIFNode) SetVth(v float64) {
	if v <= 0 {
		panic(fmt.Sprintf("snn: threshold voltage must be positive, got %v", v))
	}
	n.vth.Value.Data[0] = float32(v)
}

// Config returns the neuron configuration.
func (n *PLIFNode) Config() NeuronConfig { return n.cfg }

func sigmoid(x float64) float64 { return 1 / (1 + math.Exp(-x)) }

// Forward implements Layer. The membrane n.v is updated in place (no
// cache holds it). At inference only the spikes are formed, into a
// scratch tensor; training also pushes z, H, X−v and o for BPTT.
func (n *PLIFNode) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	if n.v == nil || !n.v.SameShape(x) {
		n.v = tensor.New(x.Shape...)
	}
	a := float32(sigmoid(float64(n.tauW.Value.Data[0])))
	vth := n.vth.Value.Data[0]
	invV := 1 / vth
	v := n.v.Data

	if !train {
		o := tensor.GetScratch(x.Shape...)
		for i, xi := range x.Data {
			d := xi - v[i]
			hi := v[i] + a*d
			if hi*invV-1 > 0 {
				o.Data[i] = 1
				v[i] = 0 // hard reset
			} else {
				o.Data[i] = 0
				v[i] = hi
			}
		}
		return o
	}

	h := tensor.New(x.Shape...)
	z := tensor.New(x.Shape...)
	o := tensor.New(x.Shape...)
	xmv := tensor.New(x.Shape...)
	for i, xi := range x.Data {
		d := xi - v[i]
		xmv.Data[i] = d
		hi := v[i] + a*d
		h.Data[i] = hi
		zi := hi*invV - 1
		z.Data[i] = zi
		if zi > 0 {
			o.Data[i] = 1
			v[i] = 0 // hard reset
		} else {
			v[i] = hi
		}
	}
	n.zs.push(z)
	n.hs.push(h)
	n.xmvs.push(xmv)
	n.os.push(o)
	return o
}

// Backward implements Layer. grad is dL/do_t for the timestep being popped.
func (n *PLIFNode) Backward(grad *tensor.Tensor) *tensor.Tensor {
	z := n.zs.pop()
	h := n.hs.pop()
	xmv := n.xmvs.pop()
	o := n.os.pop()
	if n.gradV == nil || !n.gradV.SameShape(grad) {
		n.gradV = tensor.New(grad.Shape...)
	}

	aw := float64(n.tauW.Value.Data[0])
	a := sigmoid(aw)
	dadw := a * (1 - a)
	vth := float64(n.vth.Value.Data[0])
	invV := 1 / vth
	gamma := n.cfg.Gamma
	invW := 1 / n.cfg.Width

	// gradV is updated in place: each element is read before it is
	// overwritten with dL/dv_{t−1}.
	gradX := tensor.New(grad.Shape...)
	var dW, dVth float64
	for i := range grad.Data {
		zi := float64(z.Data[i])
		hi := float64(h.Data[i])
		oi := float64(o.Data[i])
		gO := float64(grad.Data[i])
		gV := float64(n.gradV.Data[i])

		// Triangular surrogate ∂o/∂z (paper eq. 2, widened to Width).
		sg := 0.0
		if abs := math.Abs(zi) * invW; abs < 1 {
			sg = gamma * (1 - abs)
		}

		// dL/dz: spike path plus reset path v = H(1−o).
		dz := gO*sg + gV*(-hi)*sg
		// dL/dH: through z = H/V − 1 and through the reset's (1−o) factor.
		dH := dz*invV + gV*(1-oi)

		// Threshold-voltage gradient (the FalVolt signal, paper eq. 3–4).
		if n.cfg.LearnVth {
			if n.cfg.PaperVthGrad {
				// Closed form from eq. (4); o_{t−1} is the previous spike,
				// reconstructable from the cache below this one — the paper
				// folds the reset term in via −V·o_{t−1}.
				oPrev := 0.0
				if d := n.os.depth(); d > 0 {
					oPrev = float64(n.os.items[d-1].Data[i])
				}
				dVth += gO * sg * (-vth*oPrev - hi) * invV * invV
			} else {
				// Exact autodiff: z depends on V as −H/V².
				dVth += dz * (-hi) * invV * invV
			}
		}

		// H = v_prev + a·(X − v_prev).
		gradX.Data[i] = float32(dH * a)
		n.gradV.Data[i] = float32(dH * (1 - a))
		if n.cfg.LearnTau {
			dW += dH * float64(xmv.Data[i]) * dadw
		}
	}
	if n.cfg.LearnTau {
		n.tauW.Grad.Data[0] += float32(dW)
	}
	if n.cfg.LearnVth {
		n.vth.Grad.Data[0] += float32(dVth)
	}
	return gradX
}

// Params implements Layer: the threshold and time-constant scalars are
// trainable only when their learn flags are set.
func (n *PLIFNode) Params() []*Param {
	var ps []*Param
	if n.cfg.LearnVth {
		ps = append(ps, n.vth)
	}
	if n.cfg.LearnTau {
		ps = append(ps, n.tauW)
	}
	return ps
}

// CloneInference implements Layer: the threshold and time-constant
// parameters are shared (read-only at inference); the membrane state and
// BPTT caches are private to the clone.
func (n *PLIFNode) CloneInference() Layer {
	return &PLIFNode{cfg: n.cfg, vth: n.vth, tauW: n.tauW}
}

// CloneTraining implements Layer: threshold and time-constant values are
// shared with private gradient scalars; membrane state and BPTT caches
// are private. cfg is copied, so the clone's Params() ordering matches
// the primary's.
func (n *PLIFNode) CloneTraining() Layer {
	return &PLIFNode{cfg: n.cfg, vth: shadowParam(n.vth), tauW: shadowParam(n.tauW)}
}

// ResetState implements Layer. The membrane and gradient buffers are
// zeroed in place for the next sequence.
func (n *PLIFNode) ResetState() {
	if n.v != nil {
		clear(n.v.Data)
	}
	if n.gradV != nil {
		clear(n.gradV.Data)
	}
	n.zs.reset()
	n.hs.reset()
	n.xmvs.reset()
	n.os.reset()
}

// SetLearnVth toggles threshold-voltage learning (FalVolt enables this on
// every spiking layer before retraining).
func (n *PLIFNode) SetLearnVth(on bool) { n.cfg.LearnVth = on }

// SetConfig replaces the neuron's surrogate and learning configuration in
// place (for ablations). The live threshold and time-constant parameter
// values are preserved — VThreshold/InitTau in cfg do not reset them; use
// SetVth to change the threshold.
func (n *PLIFNode) SetConfig(cfg NeuronConfig) {
	if cfg.Gamma == 0 {
		cfg.Gamma = SurrogateGamma
	}
	if cfg.Width <= 0 {
		cfg.Width = 2
	}
	cfg.VThreshold = float64(n.vth.Value.Data[0])
	n.cfg = cfg
}
