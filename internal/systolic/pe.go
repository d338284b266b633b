package systolic

import (
	"falvolt/internal/faults"
	"falvolt/internal/fixed"
)

// PE is an explicit register-level model of one processing element,
// mirroring the paper's Fig. 3: a fixed-point adder–subtractor, an
// accumulator register whose output bits can be stuck, an internal spike
// counter, and (Fig. 3b) a bypass multiplexer that forwards the incoming
// partial sum unchanged.
//
// The vectorized Array implements the same semantics with per-PE masks
// for speed; PE exists as the readable reference — the equivalence of the
// two is locked in by tests (TestArrayMatchesPEReference).
type PE struct {
	// Weight is the pre-stored filter word (weight-stationary dataflow).
	Weight fixed.Word
	// Faults are the stuck bits of the accumulator output register.
	orMask, clearMask uint32
	// Bypass engages the Fig. 3b multiplexer.
	Bypass bool
	// Saturate selects the adder's overflow behaviour.
	Saturate bool

	// SpikeCount is the internal counter of input spikes observed.
	SpikeCount uint64
}

// AddFault sticks one accumulator output bit.
func (p *PE) AddFault(bit uint, pol faults.Polarity) {
	mask := uint32(1) << bit
	if pol == faults.StuckAt1 {
		p.orMask |= mask
	} else {
		p.clearMask |= mask
	}
}

// Faulty reports whether any bit is stuck.
func (p *PE) Faulty() bool { return p.orMask != 0 || p.clearMask != 0 }

// Step processes one beat: the partial sum arriving from the PE above
// (preSum) and the input spike arriving from the left. It returns the
// partial sum passed to the PE below.
//
// With bypass engaged, the pre-sum is routed around the PE untouched and
// the weight contributes nothing. Otherwise the accumulator adds the
// gated weight and its (possibly stuck) register output propagates.
func (p *PE) Step(preSum fixed.Word, spike bool) fixed.Word {
	if spike {
		p.SpikeCount++
	}
	if p.Bypass {
		return preSum
	}
	var add fixed.Word
	if spike {
		add = p.Weight
	}
	var acc fixed.Word
	if p.Saturate {
		acc = fixed.AddSat(preSum, add)
	} else {
		acc = fixed.AddWrap(preSum, add)
	}
	return fixed.ForceBits(acc, p.orMask, p.clearMask)
}

// StepAnalog processes one beat with an analog (non-spike) input: the
// contribution is the quantized product input*weight — the datapath used
// by the first (encoder) layer.
func (p *PE) StepAnalog(preSum fixed.Word, input float64, f fixed.Format) fixed.Word {
	if p.Bypass {
		return preSum
	}
	var add fixed.Word
	if input != 0 {
		add = f.Quantize(input * f.Dequantize(p.Weight))
	}
	var acc fixed.Word
	if p.Saturate {
		acc = fixed.AddSat(preSum, add)
	} else {
		acc = fixed.AddWrap(preSum, add)
	}
	return fixed.ForceBits(acc, p.orMask, p.clearMask)
}

// Column is a vertical chain of PEs: the reference implementation of one
// systolic column pass.
type Column struct {
	PEs      []*PE
	Saturate bool
}

// NewColumn builds a column of n PEs holding the given weights.
func NewColumn(weights []fixed.Word, saturate bool) *Column {
	c := &Column{Saturate: saturate}
	for _, w := range weights {
		c.PEs = append(c.PEs, &PE{Weight: w, Saturate: saturate})
	}
	return c
}

// Pass streams one spike vector down the column and returns the final
// partial sum (the reference for one column pass of Array.Forward).
func (c *Column) Pass(spikes []float32) fixed.Word {
	var sum fixed.Word
	for i, pe := range c.PEs {
		spike := i < len(spikes) && spikes[i] != 0
		sum = pe.Step(sum, spike)
	}
	return sum
}
