// Package tensor provides the dense float64 tensors underlying the neural
// network of the Steiner-point selector. It is deliberately small: the
// selector needs arbitrary-rank dense arrays, a handful of elementwise
// operations, and a direct 3-D convolution with gradients — nothing more.
//
// Convolution inputs use the layout [C][H][V][M] with M innermost, which
// matches the VertexID encoding of the grid package, so feature planes and
// per-vertex probability maps can be moved between the two worlds without
// reindexing.
package tensor

import "fmt"

// Tensor is a dense float64 array of arbitrary rank in row-major order
// (the last dimension is contiguous).
type Tensor struct {
	Shape []int
	Data  []float64
}

// New allocates a zero tensor with the given shape.
func New(shape ...int) *Tensor {
	n := 1
	for _, d := range shape {
		if d <= 0 {
			panic(fmt.Sprintf("tensor: non-positive dimension %d in %v", d, shape))
		}
		n *= d
	}
	return &Tensor{Shape: append([]int(nil), shape...), Data: make([]float64, n)}
}

// FromSlice wraps the data with the given shape; the data is not copied.
// The element count must match the shape volume.
func FromSlice(data []float64, shape ...int) *Tensor {
	n := 1
	for _, d := range shape {
		n *= d
	}
	if n != len(data) {
		panic(fmt.Sprintf("tensor: %d elements for shape %v (want %d)", len(data), shape, n))
	}
	return &Tensor{Shape: append([]int(nil), shape...), Data: data}
}

// Len returns the number of elements.
func (t *Tensor) Len() int { return len(t.Data) }

// Rank returns the number of dimensions.
func (t *Tensor) Rank() int { return len(t.Shape) }

// Dim returns dimension i.
func (t *Tensor) Dim(i int) int { return t.Shape[i] }

// SameShape reports whether the two tensors have identical shapes.
func (t *Tensor) SameShape(o *Tensor) bool {
	if len(t.Shape) != len(o.Shape) {
		return false
	}
	for i := range t.Shape {
		if t.Shape[i] != o.Shape[i] {
			return false
		}
	}
	return true
}

// Clone returns a deep copy.
func (t *Tensor) Clone() *Tensor {
	return &Tensor{
		Shape: append([]int(nil), t.Shape...),
		Data:  append([]float64(nil), t.Data...),
	}
}

// Zero sets every element to 0.
func (t *Tensor) Zero() {
	for i := range t.Data {
		t.Data[i] = 0
	}
}

// Fill sets every element to v.
func (t *Tensor) Fill(v float64) {
	for i := range t.Data {
		t.Data[i] = v
	}
}

// At returns the element at the multi-index.
func (t *Tensor) At(idx ...int) float64 { return t.Data[t.offset(idx)] }

// Set stores v at the multi-index.
func (t *Tensor) Set(v float64, idx ...int) { t.Data[t.offset(idx)] = v }

func (t *Tensor) offset(idx []int) int {
	if len(idx) != len(t.Shape) {
		panic(fmt.Sprintf("tensor: index rank %d for shape %v", len(idx), t.Shape))
	}
	off := 0
	for i, x := range idx {
		if x < 0 || x >= t.Shape[i] {
			panic(fmt.Sprintf("tensor: index %v out of range for shape %v", idx, t.Shape))
		}
		off = off*t.Shape[i] + x
	}
	return off
}

// AddScaled accumulates alpha*o into t elementwise; shapes must match.
func (t *Tensor) AddScaled(o *Tensor, alpha float64) {
	if !t.SameShape(o) {
		panic(fmt.Sprintf("tensor: AddScaled shape mismatch %v vs %v", t.Shape, o.Shape))
	}
	for i, v := range o.Data {
		t.Data[i] += float64(alpha * v)
	}
}

// Scale multiplies every element by alpha.
func (t *Tensor) Scale(alpha float64) {
	for i := range t.Data {
		t.Data[i] *= alpha
	}
}

// Sum returns the sum of all elements.
func (t *Tensor) Sum() float64 {
	s := 0.0
	for _, v := range t.Data {
		s += v
	}
	return s
}

// MaxAbs returns the largest absolute element value (0 for empty tensors).
func (t *Tensor) MaxAbs() float64 {
	m := 0.0
	for _, v := range t.Data {
		if v < 0 {
			v = -v
		}
		if v > m {
			m = v
		}
	}
	return m
}

// Reshape returns a view of the same data with a new shape of equal
// volume.
func (t *Tensor) Reshape(shape ...int) *Tensor {
	n := 1
	for _, d := range shape {
		n *= d
	}
	if n != len(t.Data) {
		panic(fmt.Sprintf("tensor: reshape %v -> %v changes volume", t.Shape, shape))
	}
	return &Tensor{Shape: append([]int(nil), shape...), Data: t.Data}
}
