// Package snn is a from-scratch spiking-neural-network framework with
// surrogate-gradient backpropagation through time (BPTT). It provides the
// PLIF-SNN architectures of the paper — convolution, batch normalization,
// average pooling, dropout, fully-connected layers and parametric
// leaky-integrate-and-fire (PLIF) neurons with a learnable per-layer
// threshold voltage — plus optimizers, losses and a training loop.
//
// Layers are stateful across a simulated sequence of T timesteps: Forward
// is called once per timestep (caching what the backward pass needs) and
// Backward is called T times in reverse order. ResetState clears membrane
// potentials and caches between sequences.
//
// Training runs either as the classic serial mini-batch loop or on the
// data-parallel replica engine (TrainConfig.Replicas/MicroBatch): each
// global batch is split into fixed micro-batches trained on replicas
// that share parameter values but hold private gradients
// (Layer.CloneTraining), and the per-replica gradients are reduced in
// micro-batch index order before each optimizer step — so trained
// weights are bit-identical at any replica count on any engine. See
// trainer.go for the engine and replica_test.go for the enforced
// contract.
package snn

import (
	"fmt"

	"falvolt/internal/tensor"
)

// Param is a trainable tensor with its gradient accumulator.
type Param struct {
	Name  string
	Value *tensor.Tensor
	Grad  *tensor.Tensor
}

// NewParam allocates a named parameter with a zero gradient of equal shape.
func NewParam(name string, value *tensor.Tensor) *Param {
	return &Param{Name: name, Value: value, Grad: tensor.New(value.Shape...)}
}

// ZeroGrad clears the accumulated gradient.
func (p *Param) ZeroGrad() { clear(p.Grad.Data) }

// shadowParam returns a parameter that shares p's value tensor but owns a
// private, zeroed gradient accumulator — the training-replica seam: every
// replica reads the same live weights while accumulating gradients
// independently, so the trainer can reduce them in a deterministic order.
func shadowParam(p *Param) *Param {
	if p == nil {
		return nil
	}
	return &Param{Name: p.Name, Value: p.Value, Grad: tensor.New(p.Value.Shape...)}
}

// String implements fmt.Stringer.
func (p *Param) String() string {
	return fmt.Sprintf("Param(%s %v)", p.Name, p.Value.Shape)
}

// Layer is one stage of an SNN executed over T timesteps.
//
// The contract: within one sequence, Forward is invoked exactly T times
// (t = 0..T-1) and then Backward exactly T times in reverse (t = T-1..0).
// Each Forward pushes whatever it needs onto an internal cache stack; each
// Backward pops. ResetState must drop all caches and recurrent state.
//
// Ownership at inference: a Forward(x, false) output may come from the
// scratch pool (tensor.GetScratch), and the layer must neither keep it
// nor keep x. Only Network.Forward releases them: each layer's input once
// the next output exists (unless the output shares its data, as a
// reshaped view does), and the last output once it is added into the
// rate. A caller that runs layers itself may simply drop the outputs.
// Training outputs are always fresh tensors, since BPTT caches hold them.
type Layer interface {
	// Forward maps this timestep's input to output. train enables
	// training-only behaviour (dropout masks, batch statistics).
	Forward(x *tensor.Tensor, train bool) *tensor.Tensor
	// Backward maps the gradient wrt this timestep's output to the
	// gradient wrt its input, accumulating parameter gradients.
	Backward(grad *tensor.Tensor) *tensor.Tensor
	// Params returns the trainable parameters (possibly none).
	Params() []*Param
	// ResetState clears membrane potentials, dropout masks and caches.
	ResetState()
	// CloneInference returns a replica for concurrent inference: it
	// shares parameters (weights, thresholds, running statistics,
	// deployments) with the receiver but owns private recurrent state
	// and caches. Concurrent Forward(train=false) calls on distinct
	// clones are safe; training a clone is not supported.
	CloneInference() Layer
	// CloneTraining returns a replica for concurrent training: it shares
	// parameter *values* with the receiver but owns private gradient
	// accumulators (see shadowParam), private recurrent state and caches,
	// and never mutates shared mutable state (batch-norm running
	// statistics are logged for ordered replay instead of updated in
	// place; systolic deployments are dropped — the training path never
	// uses them). Concurrent Forward(train=true)/Backward on distinct
	// clones are safe; the trainer harvests each clone's gradients and
	// reduces them into the primary network in micro-batch index order.
	CloneTraining() Layer
}

// newActivation returns a layer output whose every element the caller
// writes: a fresh tensor in training, a scratch one at inference (see
// Layer).
func newActivation(train bool, shape ...int) *tensor.Tensor {
	if train {
		return tensor.New(shape...)
	}
	return tensor.GetScratch(shape...)
}

// cacheStack is a helper for per-timestep tensors pushed during forward
// and popped in reverse during backward.
type cacheStack struct{ items []*tensor.Tensor }

func (s *cacheStack) push(t *tensor.Tensor) { s.items = append(s.items, t) }

func (s *cacheStack) pop() *tensor.Tensor {
	if len(s.items) == 0 {
		panic("snn: backward called more times than forward (cache underflow)")
	}
	t := s.items[len(s.items)-1]
	s.items = s.items[:len(s.items)-1]
	return t
}

func (s *cacheStack) reset() { s.items = s.items[:0] }

func (s *cacheStack) depth() int { return len(s.items) }
