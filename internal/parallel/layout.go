// Package parallel is the layout calculus for multi-dimensional
// parallelism: it decides how a model inventory and a worker set are
// sharded into data-parallel replicas (DP), pipeline stages (PP),
// tensor-parallel splits (TP) and expert-parallel MoE groups (EP), and
// which collective algorithm each resulting communicator should run on
// a given topology.
//
// The package is pure — it imports only the model inventory — so every
// mapping it produces (worker coordinates, stage partitions, gradient
// reduction trees, all-to-all routing matrices) is a deterministic
// function of its inputs and can be property-tested and fuzzed without
// a simulation engine. The execution side (1F1B microbatch scheduling,
// fabric transfers, chaos interplay) lives in internal/train, which
// consumes the plans built here.
package parallel

import "fmt"

// Layout declares the parallelism factors of a run. Every field's zero
// value means 1, so the zero Layout is pure data parallelism: bound by
// NewPlan, it is the single-tree plan — one stage, one microbatch, one
// reduction tree of every worker per layer at full volume.
//
// The factors follow Megatron-style rank order with TP innermost
// (tensor-parallel peers are adjacent ranks and therefore share a node
// on any sane machine), then EP, then PP, with DP outermost. A declared
// DP is a minimum: the leftover factor world/(DP·PP·TP·EP) always folds
// into the effective data-parallel width, so Layout{PP: 4} on a
// 128-worker machine means 4 stages × 32 replicas without spelling the
// 32 out.
type Layout struct {
	DP int // data-parallel replicas (minimum; leftover world folds in)
	PP int // pipeline stages
	TP int // tensor-parallel ways within a stage
	EP int // expert-parallel ways for MoE layers

	// Micro is the number of microbatches an iteration's per-replica
	// batch splits into for pipelining; zero means PP (one microbatch
	// per stage, the smallest schedule that fills the pipeline).
	Micro int
}

// norm returns the factors with zeros defaulted to 1. Negative values
// survive normalization so Validate can reject them.
func (l Layout) norm() (dp, pp, tp, ep int) {
	one := func(v int) int {
		if v == 0 {
			return 1
		}
		return v
	}
	return one(l.DP), one(l.PP), one(l.TP), one(l.EP)
}

// Product returns DP·PP·TP·EP with zero fields counted as 1.
func (l Layout) Product() int {
	dp, pp, tp, ep := l.norm()
	return dp * pp * tp * ep
}

// Trivial reports whether the layout is pure data parallelism: no
// pipeline, tensor or expert sharding. Its plan is the single-tree
// plan; the trainer runs it on the same path as every other layout,
// with the paper's flat ring for the tree and no layout label.
func (l Layout) Trivial() bool {
	_, pp, tp, ep := l.norm()
	return pp == 1 && tp == 1 && ep == 1
}

// String renders the declared factors ("dp2-pp4-tp2-ep1"). Plan.Label
// renders the effective factors after the leftover world folds into DP.
func (l Layout) String() string {
	dp, pp, tp, ep := l.norm()
	return fmt.Sprintf("dp%d-pp%d-tp%d-ep%d", dp, pp, tp, ep)
}

// Validate checks the layout against a world size. It never panics:
// any combination of int values is classified. A layout is accepted
// exactly when every factor is positive (after zero-defaulting) and
// DP·PP·TP·EP divides the world size; the quotient becomes extra
// data-parallel width.
func (l Layout) Validate(world int) error {
	if world < 1 {
		return fmt.Errorf("parallel: world size %d < 1", world)
	}
	dp, pp, tp, ep := l.norm()
	for _, f := range []struct {
		name string
		v    int
	}{{"DP", dp}, {"PP", pp}, {"TP", tp}, {"EP", ep}} {
		if f.v < 1 {
			return fmt.Errorf("parallel: %s %d < 1", f.name, f.v)
		}
	}
	if l.Micro < 0 {
		return fmt.Errorf("parallel: Micro %d < 0", l.Micro)
	}
	// Multiply stepwise with an early exit so absurd factors cannot
	// overflow into an accidental accept: once the partial product
	// exceeds the world it can no longer divide it (remaining factors
	// are >= 1).
	prod := 1
	for _, f := range []int{dp, pp, tp, ep} {
		prod *= f
		if prod > world {
			return fmt.Errorf("parallel: layout %s product exceeds world %d", l, world)
		}
	}
	if world%prod != 0 {
		return fmt.Errorf("parallel: layout %s product %d does not divide world %d", l, prod, world)
	}
	return nil
}
