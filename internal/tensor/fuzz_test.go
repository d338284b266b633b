package tensor

import (
	"math"
	"math/rand"
	"testing"
)

// FuzzPatchesMatchDense lets the fuzzer pick the conv shape, stride,
// padding, input density, the kind of pixels (spikes or analog values,
// −0 zeros, NaNs) and a column permutation, and checks every patch-row
// lowering against its dense reference: Im2Patches on both engines
// against Im2Col, RowPatches against the dense patch rows, and
// PermuteCols against the column-permuted dense matrix rescanned.
func FuzzPatchesMatchDense(f *testing.F) {
	f.Add([]byte{1, 2, 6, 5, 2, 2, 0, 1, 3, 0x07, 9})
	f.Add([]byte{0, 0, 3, 8, 0, 2, 1, 0, 10, 0x02, 0})
	f.Add([]byte{2, 3, 0, 0, 3, 3, 2, 2, 5, 0x05, 77})
	parallel := NewParallel(2)
	f.Fuzz(func(t *testing.T, data []byte) {
		// next consumes one byte as a value in [0, n); an exhausted
		// input reads as zeros.
		next := func(n int) int {
			if len(data) == 0 {
				return 0
			}
			v := int(data[0]) % n
			data = data[1:]
			return v
		}
		n, inC := 1+next(3), 1+next(4)
		inH, inW := 1+next(9), 1+next(9)
		kh, kw := 1+next(4), 1+next(4)
		stride, pad := 1+next(3), next(3)
		density := float64(next(11)) / 10
		flags := next(8)
		analog, negZeros, nans := flags&1 != 0, flags&2 != 0, flags&4 != 0
		rng := rand.New(rand.NewSource(int64(next(256))))
		cs, err := NewConvShape(inC, inH, inW, 1, kh, kw, stride, pad)
		if err != nil {
			return // the kernel does not fit the padded input
		}

		x := New(n, inC, inH, inW)
		for i := range x.Data {
			switch {
			case rng.Float64() >= density:
				if negZeros && rng.Intn(2) == 0 {
					x.Data[i] = float32(math.Copysign(0, -1))
				}
			case nans && rng.Intn(4) == 0:
				x.Data[i] = float32(math.NaN())
			case analog:
				x.Data[i] = float32(rng.NormFloat64())
			default:
				x.Data[i] = 1
			}
		}
		dense := Im2Col(x, cs)
		for _, e := range []Backend{Serial(), parallel} {
			p := Im2Patches(e, x, cs)
			checkPatchRows(t, e.Name()+" Im2Patches", dense, p)
			p.Release()
		}
		checkRowLowerings(t, "rows", dense, rng.Perm(cs.K))
	})
}
