package snn

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"falvolt/internal/fixed"
	"falvolt/internal/systolic"
	"falvolt/internal/tensor"
)

// TestRemappedDeploymentMatchesPlain checks the remap path without a
// golden: on a fault-free array a deployment with random MPerm and KPerm
// computes every logical product on another PE, in another order, so
// its outputs must equal the plain deployment's bit for bit, for a conv
// and a linear layer, binary and analog. That holds only while no tile
// sum saturates (reordering saturating adds changes the result), so the
// weights lie in (−1, 1) and the inputs in (−3, 3): a tile sum of at most
// 4 rows stays below 12, far inside Q16.16's ±32768. The 4×3 array
// divides neither K nor M, so the permutations also move inputs across
// ragged K-tiles and outputs across reused columns.
func TestRemappedDeploymentMatchesPlain(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	arr := mustNewArray(systolic.Config{Rows: 4, Cols: 3, Format: fixed.Q16x16, Saturate: true})
	conv, err := NewConv2D(3, 6, 5, 5, 3, 1, 1, false, rng)
	if err != nil {
		t.Fatal(err)
	}
	linear := NewLinear(23, 7, false, rng)
	layers := []struct {
		g     GEMMWeighted
		shape []int
	}{
		{conv, []int{2, 3, 6, 5}},
		{linear, []int{4, 23}},
	}
	negZero := float32(math.Copysign(0, -1))
	for _, l := range layers {
		w := l.g.WeightMatrix()
		for i := range w.Data {
			w.Data[i] = float32(rng.Float64()*2 - 1)
		}
		m, k := l.g.GEMMShape()
		if k%4 == 0 || m%3 == 0 {
			t.Fatalf("GEMM %dx%d divides the 4x3 array", m, k)
		}
		for _, binary := range []bool{true, false} {
			x := tensor.New(l.shape...)
			for i := range x.Data {
				switch {
				case rng.Float64() < 0.6:
					if i%2 == 1 {
						x.Data[i] = negZero
					}
				case binary:
					x.Data[i] = 1
				default:
					x.Data[i] = float32(rng.Float64()*6 - 3)
				}
			}
			name := fmt.Sprintf("%T binary=%v", l.g, binary)
			l.g.SetDeployment(&Deployment{Array: arr, Binary: binary})
			want := l.g.Forward(x, false)
			l.g.SetDeployment(&Deployment{Array: arr, Binary: binary, MPerm: rng.Perm(m), KPerm: rng.Perm(k)})
			tensorsBitIdentical(t, name, want, l.g.Forward(x, false))
			l.g.SetDeployment(nil)
		}
	}
}
