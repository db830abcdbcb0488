// Package tensor provides the parameter tensors that flow through the
// synchronization paths: named float32 buffers and the arithmetic the
// numeric training path and the optimizer apply to them.
package tensor

import (
	"fmt"
	"math"
)

// BytesPerElem is the storage size of one tensor element (float32).
const BytesPerElem = 4

// Tensor is a named, flat float32 parameter or gradient buffer. DL
// frameworks carry shapes; for synchronization only the byte count and
// the values matter, so tensors here are one-dimensional.
type Tensor struct {
	Name string
	Data []float32
}

// New allocates a zero-filled tensor of n elements.
func New(name string, n int) *Tensor {
	if n < 0 {
		panic(fmt.Sprintf("tensor: negative length %d", n))
	}
	return &Tensor{Name: name, Data: make([]float32, n)}
}

// FromData wraps an existing buffer without copying.
func FromData(name string, data []float32) *Tensor {
	return &Tensor{Name: name, Data: data}
}

// Len returns the element count.
func (t *Tensor) Len() int { return len(t.Data) }

// SizeBytes returns the payload size in bytes.
func (t *Tensor) SizeBytes() int64 { return int64(len(t.Data)) * BytesPerElem }

// Clone returns a deep copy.
func (t *Tensor) Clone() *Tensor {
	d := make([]float32, len(t.Data))
	copy(d, t.Data)
	return &Tensor{Name: t.Name, Data: d}
}

// Fill sets every element to v.
func (t *Tensor) Fill(v float32) {
	for i := range t.Data {
		t.Data[i] = v
	}
}

// Add accumulates src into t element-wise. Lengths must match.
func (t *Tensor) Add(src *Tensor) {
	if len(src.Data) != len(t.Data) {
		panic(fmt.Sprintf("tensor: add %q len %d into %q len %d",
			src.Name, len(src.Data), t.Name, len(t.Data)))
	}
	AddSlice(t.Data, src.Data)
}

// Scale multiplies every element by f.
func (t *Tensor) Scale(f float32) {
	for i := range t.Data {
		t.Data[i] *= f
	}
}

// AXPY computes t += a*x, the SGD update step.
func (t *Tensor) AXPY(a float32, x *Tensor) {
	if len(x.Data) != len(t.Data) {
		panic(fmt.Sprintf("tensor: axpy %q len %d into %q len %d",
			x.Name, len(x.Data), t.Name, len(t.Data)))
	}
	for i, v := range x.Data {
		t.Data[i] += a * v
	}
}

// AddSlice accumulates src into dst element-wise; the primitive the sync
// core ALUs execute.
func AddSlice(dst, src []float32) {
	for i, v := range src {
		dst[i] += v
	}
}

// MaxAbsDiff returns the largest absolute element-wise difference
// between two equal-length tensors; test helper for numerical checks.
func MaxAbsDiff(a, b *Tensor) float64 {
	if len(a.Data) != len(b.Data) {
		panic("tensor: length mismatch")
	}
	var max float64
	for i := range a.Data {
		d := math.Abs(float64(a.Data[i]) - float64(b.Data[i]))
		if d > max {
			max = d
		}
	}
	return max
}
