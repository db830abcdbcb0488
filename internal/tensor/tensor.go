// Package tensor provides the parameter tensors that flow through the
// push/pull session (core.Session, the public coarse.Tensor): named
// float32 buffers and the element-wise sum the sync cores apply to
// them.
package tensor

import "fmt"

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

// AddSlice accumulates src into dst element-wise; the primitive the sync
// core ALUs execute. Lengths must match.
func AddSlice(dst, src []float32) {
	if len(src) != len(dst) {
		panic(fmt.Sprintf("tensor: add of %d elems into %d", len(src), len(dst)))
	}
	for i, v := range src {
		dst[i] += v
	}
}
