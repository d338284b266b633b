package snn

import (
	"fmt"
	"math"

	"falvolt/internal/tensor"
)

// Adam is the Adam optimizer (Kingma & Ba), the default for SNN training.
type Adam struct {
	params       []*Param
	lr           float64
	beta1, beta2 float64
	eps          float64
	m, v         []*tensor.Tensor
	t            int
}

// NewAdam constructs Adam with standard hyperparameters (β1=0.9, β2=0.999).
func NewAdam(params []*Param, lr float64) *Adam {
	a := &Adam{params: params, lr: lr, beta1: 0.9, beta2: 0.999, eps: 1e-8}
	a.m = make([]*tensor.Tensor, len(params))
	a.v = make([]*tensor.Tensor, len(params))
	for i, p := range params {
		a.m[i] = tensor.New(p.Value.Shape...)
		a.v[i] = tensor.New(p.Value.Shape...)
	}
	return a
}

// Step applies one update from the accumulated gradients; it clears
// nothing (call ZeroGrad after).
func (a *Adam) Step() {
	a.t++
	bc1 := 1 - math.Pow(a.beta1, float64(a.t))
	bc2 := 1 - math.Pow(a.beta2, float64(a.t))
	for i, p := range a.params {
		m, v := a.m[i], a.v[i]
		for j, g := range p.Grad.Data {
			gf := float64(g)
			mj := a.beta1*float64(m.Data[j]) + (1-a.beta1)*gf
			vj := a.beta2*float64(v.Data[j]) + (1-a.beta2)*gf*gf
			m.Data[j] = float32(mj)
			v.Data[j] = float32(vj)
			update := a.lr * (mj / bc1) / (math.Sqrt(vj/bc2) + a.eps)
			p.Value.Data[j] -= float32(update)
		}
	}
}

// ZeroGrad clears all parameter gradients.
func (a *Adam) ZeroGrad() {
	for _, p := range a.params {
		p.ZeroGrad()
	}
}

// ClipGradNorm scales all gradients so their global L2 norm does not
// exceed maxNorm; returns the pre-clip norm. Guards BPTT against the
// occasional exploding surrogate gradient.
func ClipGradNorm(params []*Param, maxNorm float64) float64 {
	var sq float64
	for _, p := range params {
		for _, g := range p.Grad.Data {
			sq += float64(g) * float64(g)
		}
	}
	norm := math.Sqrt(sq)
	if norm > maxNorm && norm > 0 {
		scale := float32(maxNorm / norm)
		for _, p := range params {
			p.Grad.Scale(scale)
		}
	}
	return norm
}

// String implements fmt.Stringer for diagnostics.
func (a *Adam) String() string { return fmt.Sprintf("Adam(lr=%g, t=%d)", a.lr, a.t) }
