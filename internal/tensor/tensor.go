// Package tensor provides a small dense float32 tensor library: the
// numerical substrate for the SNN framework. It supports arbitrary-rank
// row-major tensors with the handful of operations a conv-SNN needs —
// GEMM, the sparse patch-row lowering (Patches) and its col2im adjoint,
// pooling, padding, elementwise arithmetic — implemented with plain loops
// over contiguous storage.
package tensor

import (
	"fmt"
	"math"
	"math/rand"
)

// Tensor is a dense row-major float32 tensor. Data is contiguous; Shape
// gives the extent of each dimension. A Tensor with empty shape is a
// scalar holding one element.
type Tensor struct {
	Shape []int
	Data  []float32
}

// New allocates a zero-filled tensor of the given shape.
func New(shape ...int) *Tensor {
	n := 1
	for _, s := range shape {
		if s < 0 {
			panic(fmt.Sprintf("tensor: negative dimension %d in shape %v", s, shape))
		}
		n *= s
	}
	return &Tensor{Shape: append([]int(nil), shape...), Data: make([]float32, n)}
}

// FromSlice wraps data in a tensor of the given shape. The slice is used
// directly (not copied); its length must match the shape volume.
func FromSlice(data []float32, shape ...int) *Tensor {
	n := 1
	for _, s := range shape {
		n *= s
	}
	if len(data) != n {
		panic(fmt.Sprintf("tensor: data length %d does not match shape %v (need %d)", len(data), shape, n))
	}
	return &Tensor{Shape: append([]int(nil), shape...), Data: data}
}

// Len returns the total number of elements.
func (t *Tensor) Len() int { return len(t.Data) }

// Rank returns the number of dimensions.
func (t *Tensor) Rank() int { return len(t.Shape) }

// SameShape reports whether t and o have identical shapes.
func (t *Tensor) SameShape(o *Tensor) bool {
	if len(t.Shape) != len(o.Shape) {
		return false
	}
	for i, s := range t.Shape {
		if o.Shape[i] != s {
			return false
		}
	}
	return true
}

// Clone returns a deep copy.
func (t *Tensor) Clone() *Tensor {
	c := New(t.Shape...)
	copy(c.Data, t.Data)
	return c
}

// Reshape returns a view of the same data with a new shape of equal volume.
func (t *Tensor) Reshape(shape ...int) *Tensor {
	n := 1
	for _, s := range shape {
		n *= s
	}
	if n != len(t.Data) {
		panic(fmt.Sprintf("tensor: cannot reshape %v (%d elems) to %v (%d elems)", t.Shape, len(t.Data), shape, n))
	}
	return &Tensor{Shape: append([]int(nil), shape...), Data: t.Data}
}

// Fill sets every element to v in place.
func (t *Tensor) Fill(v float32) {
	for i := range t.Data {
		t.Data[i] = v
	}
}

// At returns the element at the given multi-index (rank must match).
func (t *Tensor) At(idx ...int) float32 { return t.Data[t.offset(idx)] }

// Set stores v at the given multi-index.
func (t *Tensor) Set(v float32, idx ...int) { t.Data[t.offset(idx)] = v }

func (t *Tensor) offset(idx []int) int {
	if len(idx) != len(t.Shape) {
		panic(fmt.Sprintf("tensor: index rank %d does not match tensor rank %d", len(idx), len(t.Shape)))
	}
	off := 0
	for i, ix := range idx {
		if ix < 0 || ix >= t.Shape[i] {
			panic(fmt.Sprintf("tensor: index %v out of range for shape %v", idx, t.Shape))
		}
		off = off*t.Shape[i] + ix
	}
	return off
}

// AddInPlace computes t += o elementwise; shapes must match.
func (t *Tensor) AddInPlace(o *Tensor) {
	if !t.SameShape(o) {
		panic(fmt.Sprintf("tensor: AddInPlace shape mismatch %v vs %v", t.Shape, o.Shape))
	}
	for i, v := range o.Data {
		t.Data[i] += v
	}
}

// SubInPlace computes t -= o elementwise; shapes must match.
func (t *Tensor) SubInPlace(o *Tensor) {
	if !t.SameShape(o) {
		panic(fmt.Sprintf("tensor: SubInPlace shape mismatch %v vs %v", t.Shape, o.Shape))
	}
	for i, v := range o.Data {
		t.Data[i] -= v
	}
}

// Scale multiplies every element by s in place.
func (t *Tensor) Scale(s float32) {
	for i := range t.Data {
		t.Data[i] *= s
	}
}

// Add returns t + o as a new tensor.
func Add(t, o *Tensor) *Tensor {
	r := t.Clone()
	r.AddInPlace(o)
	return r
}

// Mul returns the elementwise product as a new tensor.
func Mul(t, o *Tensor) *Tensor {
	if !t.SameShape(o) {
		panic(fmt.Sprintf("tensor: Mul shape mismatch %v vs %v", t.Shape, o.Shape))
	}
	r := t.Clone()
	for i, v := range o.Data {
		r.Data[i] *= v
	}
	return r
}

// Sum returns the sum of all elements (accumulated in float64 for accuracy).
func (t *Tensor) Sum() float64 {
	var s float64
	for _, v := range t.Data {
		s += float64(v)
	}
	return s
}

// Mean returns the arithmetic mean of all elements (0 for empty tensors).
func (t *Tensor) Mean() float64 {
	if len(t.Data) == 0 {
		return 0
	}
	return t.Sum() / float64(len(t.Data))
}

// Argmax returns the index of the maximum element of a 1-D view of row r in
// a [rows, cols] matrix; t must be rank 2.
func (t *Tensor) Argmax(r int) int {
	if t.Rank() != 2 {
		panic("tensor: Argmax requires a rank-2 tensor")
	}
	cols := t.Shape[1]
	row := t.Data[r*cols : (r+1)*cols]
	best := 0
	for i, v := range row {
		if v > row[best] {
			best = i
		}
	}
	return best
}

// RandNormal fills t with Gaussian noise of the given stddev using rng.
func (t *Tensor) RandNormal(rng *rand.Rand, std float64) {
	for i := range t.Data {
		t.Data[i] = float32(rng.NormFloat64() * std)
	}
}

// RandUniform fills t with values uniform in [lo, hi) using rng.
func (t *Tensor) RandUniform(rng *rand.Rand, lo, hi float64) {
	for i := range t.Data {
		t.Data[i] = float32(lo + rng.Float64()*(hi-lo))
	}
}

// KaimingNormal fills t with Kaiming (He) initialization for the given
// fan-in, the standard init for layers followed by ReLU-like nonlinearity.
func (t *Tensor) KaimingNormal(rng *rand.Rand, fanIn int) {
	if fanIn <= 0 {
		fanIn = 1
	}
	std := math.Sqrt(2.0 / float64(fanIn))
	t.RandNormal(rng, std)
}

// String renders a compact description (shape plus a few leading values).
func (t *Tensor) String() string {
	n := len(t.Data)
	if n > 8 {
		n = 8
	}
	return fmt.Sprintf("Tensor%v%v…", t.Shape, t.Data[:n])
}
