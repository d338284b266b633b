// The race detector makes sync.Pool drop released buffers at random, so
// the allocation bound only holds without it.

//go:build !race

package snn

import (
	"math"
	"math/rand"
	"runtime"
	"runtime/debug"
	"testing"

	"falvolt/internal/tensor"
)

// TestDeployedForwardSteadyStateAllocs runs the paper-size MNIST network
// deployed on a faulty 64×64 array: once the scratch pool is warm, a
// whole inference (T timesteps, every layer) must allocate less than a
// quarter of one layer activation (the conv lowerings reuse their cover
// tables, so no per-call table is left). GC is off so the pool is not
// drained mid-test; the minimum of ten calls discounts the pool misses
// after a goroutine moves to another processor, which a loaded host
// makes common.
func TestDeployedForwardSteadyStateAllocs(t *testing.T) {
	spec := MNISTSpec()
	model, err := Build(spec, rand.New(rand.NewSource(61)))
	if err != nil {
		t.Fatal(err)
	}
	model.Net.Deploy(faultyArray(t, 64, 128, 62))
	const batch = 16
	x := tensor.New(batch, spec.InC, spec.InH, spec.InW)
	x.RandUniform(rand.New(rand.NewSource(63)), 0, 1)
	seq := StaticSequence{X: x, T: spec.T}

	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	model.Net.ResetState()
	model.Net.Forward(seq, false)
	delta := uint64(math.MaxUint64)
	for i := 0; i < 10; i++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		model.Net.ResetState()
		model.Net.Forward(seq, false)
		runtime.ReadMemStats(&after)
		delta = min(delta, after.TotalAlloc-before.TotalAlloc)
	}
	// The encoder's output: [batch, EncoderC, H, W] float32s.
	act := uint64(batch * spec.EncoderC * spec.InH * spec.InW * 4)
	t.Logf("steady-state inference allocates %d B (one activation: %d B)", delta, act)
	if delta >= act/4 {
		t.Errorf("steady-state inference allocates %d B, want < %d B (a quarter of one activation)", delta, act/4)
	}
}
