// Package data generates the synthetic datasets the reproduction trains
// on. The paper uses ImageNet for ResNet-50 and SQuAD 1.1 for BERT;
// neither is available offline, and the evaluation's communication
// behaviour depends only on sample shapes and batch sizes — not on
// pixel or token content. The generator therefore produces
// deterministic, seeded Gaussian class blobs for classification
// (separable, so real training demonstrably converges).
package data

import (
	"fmt"
	"math/rand"
)

// Dataset is an in-memory supervised dataset.
type Dataset struct {
	Name    string
	X       [][]float32
	Y       []int
	Classes int
}

// Len returns the number of samples.
func (d *Dataset) Len() int { return len(d.X) }

// Dim returns the feature dimensionality.
func (d *Dataset) Dim() int {
	if len(d.X) == 0 {
		return 0
	}
	return len(d.X[0])
}

// Blobs generates n samples of dim-dimensional Gaussian class blobs:
// class c is centered on a seeded random unit direction scaled by
// spread. Linearly separable enough that a small MLP converges fast.
func Blobs(seed int64, n, dim, classes int, spread float64) *Dataset {
	if n <= 0 || dim <= 0 || classes < 2 {
		panic(fmt.Sprintf("data: blobs n=%d dim=%d classes=%d", n, dim, classes))
	}
	r := rand.New(rand.NewSource(seed))
	centers := make([][]float64, classes)
	for c := range centers {
		centers[c] = make([]float64, dim)
		for i := range centers[c] {
			centers[c][i] = r.NormFloat64() * spread
		}
	}
	d := &Dataset{Name: "blobs", Classes: classes}
	for s := 0; s < n; s++ {
		c := s % classes
		x := make([]float32, dim)
		for i := range x {
			x[i] = float32(centers[c][i] + r.NormFloat64())
		}
		d.X = append(d.X, x)
		d.Y = append(d.Y, c)
	}
	// Shuffle so striding patterns (like round-robin sharding) don't
	// alias with the class layout.
	r.Shuffle(n, func(i, j int) {
		d.X[i], d.X[j] = d.X[j], d.X[i]
		d.Y[i], d.Y[j] = d.Y[j], d.Y[i]
	})
	return d
}

// Shard returns worker w's 1/of slice, round-robin so class balance is
// preserved — the data-parallel input split.
func (d *Dataset) Shard(w, of int) *Dataset {
	if of <= 0 || w < 0 || w >= of {
		panic(fmt.Sprintf("data: shard %d of %d", w, of))
	}
	out := &Dataset{Name: fmt.Sprintf("%s[%d/%d]", d.Name, w, of), Classes: d.Classes}
	for i := w; i < len(d.X); i += of {
		out.X = append(out.X, d.X[i])
		out.Y = append(out.Y, d.Y[i])
	}
	return out
}

// Batch returns the i-th batch of the given size, wrapping around the
// dataset so training can run for arbitrarily many iterations.
func (d *Dataset) Batch(i, size int) ([][]float32, []int) {
	if size <= 0 || size > len(d.X) {
		panic(fmt.Sprintf("data: batch size %d of %d samples", size, len(d.X)))
	}
	xs := make([][]float32, size)
	ys := make([]int, size)
	for k := 0; k < size; k++ {
		idx := (i*size + k) % len(d.X)
		xs[k] = d.X[idx]
		ys[k] = d.Y[idx]
	}
	return xs, ys
}
