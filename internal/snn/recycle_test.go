package snn

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"falvolt/internal/faults"
	"falvolt/internal/fixed"
	"falvolt/internal/systolic"
	"falvolt/internal/tensor"
)

// faultyArray returns a side×side Q16.16 array with n MSB stuck-at-1 PEs.
func faultyArray(t *testing.T, side, n int, seed int64) *systolic.Array {
	t.Helper()
	arr := mustNewArray(systolic.Config{Rows: side, Cols: side, Format: fixed.Q16x16, Saturate: true})
	fm, err := faults.Generate(side, side, faults.GenSpec{
		NumFaulty: n, BitMode: faults.MSBBits, Pol: faults.StuckAt1,
	}, rand.New(rand.NewSource(seed)))
	if err != nil {
		t.Fatal(err)
	}
	if err := arr.InjectFaults(fm); err != nil {
		t.Fatal(err)
	}
	return arr
}

// poisonScratch files NaN-filled buffers in every size class up to 2^16
// elements, so a pooled output that skips an element shows up as NaN.
func poisonScratch() {
	for n := 1; n <= 1<<16; n <<= 1 {
		s := tensor.GetScratch(n)
		for i := range s.Data {
			s.Data[i] = float32(math.NaN())
		}
		tensor.ReleaseScratch(s)
	}
}

// referenceForward is Network.Forward(seq, false) without the scratch
// releases: every activation stays live, so no buffer is reused within
// the call.
func referenceForward(n *Network, seq Sequence) *tensor.Tensor {
	var rate *tensor.Tensor
	for t := 0; t < n.T; t++ {
		n.stepDeployments(t)
		x := seq.At(t)
		for _, l := range n.Layers {
			x = l.Forward(x, false)
		}
		if rate == nil {
			rate = x.Clone()
		} else {
			rate.AddInPlace(x)
		}
	}
	rate.Scale(1 / float32(n.T))
	return rate
}

// TestEvaluateRecycledActivations checks the inference ownership rule:
// Network.Forward, which hands each dead activation back to the scratch
// pool, returns rates bit-identical to a reference loop that never
// releases, on repeated calls and on two inference clones running
// concurrently on the parallel engine, and leaves the caller's input
// tensors byte-unchanged. It covers undeployed networks and plain,
// ReSpawn-remapped (MPerm/KPerm) and SoftSNN-clamped deployments on a
// faulty array, average- and max-pooled models, and static and event
// inputs.
func TestEvaluateRecycledActivations(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	arr := faultyArray(t, 16, 24, 72)
	deployments := []struct {
		name  string
		apply func(*Network)
	}{
		{"undeployed", func(n *Network) { n.Undeploy() }},
		{"plain", func(n *Network) { n.Deploy(arr) }},
		{"respawn", func(n *Network) {
			n.Deploy(arr)
			for _, g := range n.GEMMLayers() {
				m, k := g.GEMMShape()
				g.SetDeployment(&Deployment{Array: arr, Binary: g.Deployment().Binary, MPerm: rng.Perm(m), KPerm: rng.Perm(k)})
			}
		}},
		{"softsnn", func(n *Network) {
			n.Deploy(arr)
			for _, g := range n.GEMMLayers() {
				m, _ := g.GEMMShape()
				lo, hi := make([]float32, m), make([]float32, m)
				for i := range lo {
					lo[i], hi[i] = -0.5, 0.5
				}
				g.SetDeployment(&Deployment{Array: arr, Binary: g.Deployment().Binary, ClampLo: lo, ClampHi: hi})
			}
		}},
	}

	const batch = 4
	spec := MNISTSpec()
	spec.T = 3
	spec.EncoderC, spec.BlockC, spec.FCHidden = 4, []int{8, 8}, 16
	static := tensor.New(batch, spec.InC, spec.InH, spec.InW)
	static.RandUniform(rng, 0, 1)
	var frames []*tensor.Tensor
	for f := 0; f < 2; f++ { // shorter than T: the last frame repeats
		x := tensor.New(batch, spec.InC, spec.InH, spec.InW)
		for i := range x.Data {
			if rng.Float64() < 0.3 {
				x.Data[i] = 1
			}
		}
		frames = append(frames, x)
	}
	inputs := append([]*tensor.Tensor{static}, frames...)
	var saved [][]float32
	for _, x := range inputs {
		saved = append(saved, append([]float32(nil), x.Data...))
	}
	seqs := []struct {
		name string
		seq  Sequence
	}{
		{"static", StaticSequence{X: static, T: spec.T}},
		{"event", EventSequence{Frames: frames}},
	}

	for _, poolMax := range []bool{false, true} {
		spec.PoolMax = poolMax
		model, err := Build(spec, rand.New(rand.NewSource(73)))
		if err != nil {
			t.Fatal(err)
		}
		net := model.Net
		for _, d := range deployments {
			d.apply(net)
			for _, s := range seqs {
				name := fmt.Sprintf("poolMax=%v/%s/%s", poolMax, d.name, s.name)
				net.ResetState()
				want := referenceForward(net, s.seq)
				for rep := 0; rep < 3; rep++ {
					poisonScratch()
					net.ResetState()
					tensorsBitIdentical(t, fmt.Sprintf("%s call %d", name, rep), want, net.Forward(s.seq, false))
				}

				net.SetEngine(tensor.NewParallel(2))
				var got [2][3]*tensor.Tensor
				var wg sync.WaitGroup
				for c := range got {
					clone := net.InferenceClone()
					wg.Add(1)
					go func() {
						defer wg.Done()
						for rep := range got[c] {
							clone.ResetState()
							got[c][rep] = clone.Forward(s.seq, false)
						}
					}()
				}
				wg.Wait()
				net.SetEngine(nil)
				for c := range got {
					for rep, r := range got[c] {
						tensorsBitIdentical(t, fmt.Sprintf("%s clone %d call %d", name, c, rep), want, r)
					}
				}
			}
		}
		net.Undeploy()
	}
	for i, x := range inputs {
		for j := range x.Data {
			if math.Float32bits(x.Data[j]) != math.Float32bits(saved[i][j]) {
				t.Fatalf("input %d element %d changed: %v -> %v", i, j, saved[i][j], x.Data[j])
			}
		}
	}
}
