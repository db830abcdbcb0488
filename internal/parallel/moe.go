package parallel

import "math/rand"

// Router produces the deterministic all-to-all exchange matrices of
// expert-parallel MoE layers: seeded top-k token routing. It is a pure
// value — Matrix is a function of its arguments only, so concurrent
// calls from any number of goroutines return identical matrices for
// identical seeds (the determinism contract the routing tests pin).
type Router struct {
	// Seed isolates runs; mixed with every routing decision.
	Seed int64
	// Experts is the layer's total expert count; experts spread
	// contiguously across the EP ranks (expert e lives on rank
	// e·Ranks/Experts).
	Experts int
	// TopK is how many distinct experts each token routes to.
	TopK int
	// Ranks is the EP group size.
	Ranks int
}

// mix folds the routing coordinates into one RNG seed (FNV-1a over the
// values, which keeps distinct coordinates from colliding in practice
// and, more importantly, is stable across platforms).
func (r Router) mix(vals ...int64) int64 {
	const (
		offset = 1469598103934665603
		prime  = 1099511628211
	)
	h := uint64(offset)
	step := func(v uint64) {
		for i := 0; i < 8; i++ {
			h ^= (v >> (8 * i)) & 0xff
			h *= prime
		}
	}
	step(uint64(r.Seed))
	for _, v := range vals {
		step(uint64(v))
	}
	return int64(h & (1<<63 - 1))
}

// Matrix returns the dispatch matrix for one (iteration, microbatch,
// layer, group) coordinate: out[i][j] is the payload bytes EP rank i
// sends to EP rank j, where each of the tokens tokens on every source
// rank routes to TopK distinct experts carrying bytesPerToken each.
// Self-routed tokens stay in out[i][i] so row sums are exactly
// tokens·TopK·bytesPerToken; executors skip the diagonal when issuing
// transfers. The combine (return) exchange is the transpose.
func (r Router) Matrix(it, mb, layer, group, tokens int, bytesPerToken int64) [][]int64 {
	out := make([][]int64, r.Ranks)
	for i := range out {
		out[i] = make([]int64, r.Ranks)
	}
	r.route(out, nil, it, mb, layer, group, tokens, bytesPerToken)
	return out
}

// MatrixInto is Matrix into caller-owned storage: it overwrites out,
// Ranks rows of Ranks entries, drawing from rng, which it reseeds for
// every source rank. The result does not depend on rng's prior state,
// so a caller that keeps one generator and reuses its matrices routes
// without allocating.
func (r Router) MatrixInto(out [][]int64, rng *rand.Rand, it, mb, layer, group, tokens int, bytesPerToken int64) {
	for _, row := range out {
		clear(row)
	}
	r.route(out, rng, it, mb, layer, group, tokens, bytesPerToken)
}

// route adds the routed payloads to a zeroed out, building a generator
// on first use when rng is nil.
func (r Router) route(out [][]int64, rng *rand.Rand, it, mb, layer, group, tokens int, bytesPerToken int64) {
	if r.Experts < 1 || r.Ranks < 1 || tokens < 1 || bytesPerToken < 1 {
		return
	}
	topK := r.TopK
	if topK < 1 {
		topK = 1
	}
	if topK > r.Experts {
		topK = r.Experts
	}
	// One generator and one pick buffer serve every source rank: Seed
	// resets the source completely, so each rank draws exactly the
	// stream a fresh rand.New(rand.NewSource(seed)) would.
	var buf [8]int
	picked := buf[:0]
	if topK > len(buf) {
		picked = make([]int, 0, topK)
	}
	for i := 0; i < r.Ranks; i++ {
		// One sub-stream per source rank: a rank's routing is
		// independent of how many other ranks exist in the sweep.
		seed := r.mix(int64(it), int64(mb), int64(layer), int64(group), int64(i))
		if rng == nil {
			rng = rand.New(rand.NewSource(seed))
		} else {
			rng.Seed(seed)
		}
		for t := 0; t < tokens; t++ {
			picked = picked[:0]
			for len(picked) < topK {
				e := rng.Intn(r.Experts)
				dup := false
				for _, p := range picked {
					if p == e {
						dup = true
						break
					}
				}
				if dup {
					continue
				}
				picked = append(picked, e)
				out[i][e*r.Ranks/r.Experts] += bytesPerToken
			}
		}
	}
}

// Transpose returns the combine exchange of a dispatch matrix.
func Transpose(m [][]int64) [][]int64 {
	out := make([][]int64, len(m))
	for i := range out {
		out[i] = make([]int64, len(m))
	}
	TransposeInto(out, m)
	return out
}

// TransposeInto writes the transpose of the square matrix m into out,
// which has m's shape.
func TransposeInto(out, m [][]int64) {
	for i, row := range m {
		for j, v := range row {
			out[j][i] = v
		}
	}
}

// MatrixSum returns the total payload of an exchange matrix, diagonal
// included — the conservation quantity: every token routed is
// accounted exactly once.
func MatrixSum(m [][]int64) int64 {
	var total int64
	for _, row := range m {
		for _, v := range row {
			total += v
		}
	}
	return total
}

// OffDiagonal returns the payload that actually crosses the fabric
// (everything except self-routed tokens).
func OffDiagonal(m [][]int64) int64 {
	var total int64
	for i, row := range m {
		for j, v := range row {
			if i != j {
				total += v
			}
		}
	}
	return total
}
