package parallel

import (
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"testing"
)

func testRouter(seed int64) Router {
	return Router{Seed: seed, Experts: 8, TopK: 2, Ranks: 4}
}

// TestRouterConservation: every routed token is accounted exactly once
// — row sums are tokens·TopK·bytesPerToken, and the matrix total (with
// the diagonal kept) is Ranks times that.
func TestRouterConservation(t *testing.T) {
	r := testRouter(1)
	const tokens, bpt = 64, 128
	m := r.Matrix(0, 1, 2, 3, tokens, bpt)
	if len(m) != r.Ranks {
		t.Fatalf("matrix has %d rows, want %d", len(m), r.Ranks)
	}
	wantRow := int64(tokens * r.TopK * bpt)
	for i, row := range m {
		var sum int64
		for _, v := range row {
			sum += v
		}
		if sum != wantRow {
			t.Errorf("row %d sums to %d, want %d", i, sum, wantRow)
		}
	}
	if got := MatrixSum(m); got != wantRow*int64(r.Ranks) {
		t.Errorf("MatrixSum = %d, want %d", got, wantRow*int64(r.Ranks))
	}
	if off := OffDiagonal(m); off <= 0 || off >= MatrixSum(m) {
		t.Errorf("OffDiagonal = %d outside (0, %d): routing sent everything or nothing off-rank",
			off, MatrixSum(m))
	}
}

// TestRouterGoroutineDeterminism: Matrix is a pure function — many
// goroutines computing the same coordinate under the same seed must
// agree bit-for-bit, and distinct seeds must diverge.
func TestRouterGoroutineDeterminism(t *testing.T) {
	r := testRouter(42)
	want := r.Matrix(3, 1, 4, 1, 128, 64)
	const goroutines = 16
	got := make([][][]int64, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			got[g] = testRouter(42).Matrix(3, 1, 4, 1, 128, 64)
		}(g)
	}
	wg.Wait()
	for g, m := range got {
		if !reflect.DeepEqual(m, want) {
			t.Fatalf("goroutine %d produced a different matrix", g)
		}
	}
	if diverged := testRouter(43).Matrix(3, 1, 4, 1, 128, 64); reflect.DeepEqual(diverged, want) {
		t.Error("seed 43 produced the same matrix as seed 42")
	}
}

// TestRouterCoordinateSensitivity: each routing coordinate feeds the
// stream — varying any one of (it, mb, layer, group) rearranges the
// exchange.
func TestRouterCoordinateSensitivity(t *testing.T) {
	r := testRouter(7)
	base := r.Matrix(0, 0, 0, 0, 256, 1)
	variants := map[string][][]int64{
		"it":    r.Matrix(1, 0, 0, 0, 256, 1),
		"mb":    r.Matrix(0, 1, 0, 0, 256, 1),
		"layer": r.Matrix(0, 0, 1, 0, 256, 1),
		"group": r.Matrix(0, 0, 0, 1, 256, 1),
	}
	for name, m := range variants {
		if reflect.DeepEqual(m, base) {
			t.Errorf("varying %s left the matrix unchanged", name)
		}
	}
}

// freshSourceMatrix is Matrix written with a fresh generator per source
// rank and a fresh pick buffer per token: the reference form the
// reused-generator implementation must reproduce exactly.
func freshSourceMatrix(r Router, it, mb, layer, group, tokens int, bytesPerToken int64) [][]int64 {
	out := make([][]int64, r.Ranks)
	for i := range out {
		out[i] = make([]int64, r.Ranks)
	}
	topK := min(max(r.TopK, 1), r.Experts)
	for i := 0; i < r.Ranks; i++ {
		rng := rand.New(rand.NewSource(r.mix(int64(it), int64(mb), int64(layer), int64(group), int64(i))))
		for t := 0; t < tokens; t++ {
			picked := make([]int, 0, topK)
			for len(picked) < topK {
				e := rng.Intn(r.Experts)
				if slices.Contains(picked, e) {
					continue
				}
				picked = append(picked, e)
				out[i][e*r.Ranks/r.Experts] += bytesPerToken
			}
		}
	}
	return out
}

// TestRouterMatchesFreshSources: re-seeding one generator per source
// rank draws the same routing as a fresh generator per rank, over a
// grid of shapes and coordinates.
func TestRouterMatchesFreshSources(t *testing.T) {
	for _, r := range []Router{
		{Seed: 1, Experts: 8, TopK: 2, Ranks: 4},
		{Seed: 5, Experts: 4, TopK: 4, Ranks: 4},
		{Seed: 9, Experts: 16, TopK: 3, Ranks: 8},
		{Seed: 3, Experts: 2, TopK: 1, Ranks: 1},
	} {
		for it := 0; it < 3; it++ {
			for layer := 0; layer < 3; layer++ {
				got := r.Matrix(it, 1, layer, 2, 48, 16)
				if want := freshSourceMatrix(r, it, 1, layer, 2, 48, 16); !reflect.DeepEqual(got, want) {
					t.Fatalf("%+v it %d layer %d: matrix %v, fresh-source form %v", r, it, layer, got, want)
				}
			}
		}
	}
}

// TestRouterMatrixAllocs: a matrix costs its rows plus one generator and
// one pick buffer, independent of the token count.
func TestRouterMatrixAllocs(t *testing.T) {
	r := testRouter(11)
	allocs := testing.AllocsPerRun(20, func() { r.Matrix(1, 0, 2, 0, 256, 64) })
	if limit := float64(r.Ranks + 4); allocs > limit {
		t.Errorf("Matrix allocates %.0f objects per call, want at most %.0f (rows + out + generator + pick buffer)", allocs, limit)
	}
}

// TestRouterMatrixIntoAllocs: routing into caller-owned matrices with
// a caller-owned generator allocates nothing, whatever the buffers held
// before, and gives Matrix's and Transpose's results.
func TestRouterMatrixIntoAllocs(t *testing.T) {
	r := testRouter(11)
	mat, tr := make([][]int64, r.Ranks), make([][]int64, r.Ranks)
	for i := range mat {
		mat[i], tr[i] = make([]int64, r.Ranks), make([]int64, r.Ranks)
	}
	rng := rand.New(rand.NewSource(99))
	r.MatrixInto(mat, rng, 0, 1, 0, 3, 17, 8) // leave other routing in the buffers
	allocs := testing.AllocsPerRun(20, func() {
		r.MatrixInto(mat, rng, 1, 0, 2, 0, 256, 64)
		TransposeInto(tr, mat)
	})
	if allocs != 0 {
		t.Errorf("MatrixInto and TransposeInto allocate %.0f objects per call, want 0", allocs)
	}
	want := r.Matrix(1, 0, 2, 0, 256, 64)
	if !reflect.DeepEqual(mat, want) {
		t.Errorf("MatrixInto gave %v, Matrix %v", mat, want)
	}
	if wantTr := Transpose(want); !reflect.DeepEqual(tr, wantTr) {
		t.Errorf("TransposeInto gave %v, Transpose %v", tr, wantTr)
	}
}

// TestRouterDegenerate: invalid shapes return the zero matrix instead
// of panicking, and TopK clamps into [1, Experts].
func TestRouterDegenerate(t *testing.T) {
	zeros := []Router{
		{Seed: 1, Experts: 0, TopK: 2, Ranks: 2},
		{Seed: 1, Experts: 4, TopK: 2, Ranks: 0},
	}
	for _, r := range zeros {
		if m := r.Matrix(0, 0, 0, 0, 16, 8); MatrixSum(m) != 0 {
			t.Errorf("%+v routed %d bytes, want zero matrix", r, MatrixSum(m))
		}
	}
	if m := testRouter(1).Matrix(0, 0, 0, 0, 0, 8); MatrixSum(m) != 0 {
		t.Error("zero tokens routed bytes")
	}
	// TopK above Experts clamps: rows sum to Experts·bpt.
	over := Router{Seed: 1, Experts: 2, TopK: 5, Ranks: 2}
	m := over.Matrix(0, 0, 0, 0, 4, 10)
	for i, row := range m {
		if row[0]+row[1] != 4*2*10 {
			t.Errorf("clamped row %d = %v", i, row)
		}
	}
	// TopK zero defaults to 1.
	one := Router{Seed: 1, Experts: 4, TopK: 0, Ranks: 2}
	m = one.Matrix(0, 0, 0, 0, 8, 2)
	if got := MatrixSum(m); got != 8*1*2*2 {
		t.Errorf("TopK=0 matrix total = %d, want one expert per token", got)
	}
}

func TestTranspose(t *testing.T) {
	m := [][]int64{{1, 2}, {3, 4}}
	want := [][]int64{{1, 3}, {2, 4}}
	if got := Transpose(m); !reflect.DeepEqual(got, want) {
		t.Errorf("Transpose = %v", got)
	}
	r := testRouter(9)
	a := r.Matrix(0, 0, 0, 0, 32, 4)
	if got := Transpose(Transpose(a)); !reflect.DeepEqual(got, a) {
		t.Error("double transpose is not identity")
	}
	if MatrixSum(Transpose(a)) != MatrixSum(a) || OffDiagonal(Transpose(a)) != OffDiagonal(a) {
		t.Error("transpose changed conserved totals")
	}
}
