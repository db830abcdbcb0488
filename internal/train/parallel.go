package train

import (
	"coarse/internal/parallel"
)

// Plan returns the bound parallelism plan. Every run has one: the
// data-parallel layout binds the single-tree plan — one reduction tree
// of every worker reducing every layer at full volume — so strategies
// read reduction trees, memberships and volumes from the same methods
// on every layout.
func (c *Ctx) Plan() *parallel.Plan { return c.trainer.plan }

// CommStats totals the communication volumes by class — the
// conservation quantities the parallelism-equivalence tests check
// against the plan's analytic sums.
type CommStats struct {
	// DPReduce is the gradient bytes handed to tree reductions over a
	// GroupComm (each tree's payload counted once, before ring/hierarchy
	// fan-out).
	DPReduce int64
	// TPReduce is the tensor-parallel activation reduction payload.
	TPReduce int64
	// PPActs is the activation/gradient bytes crossing stage boundaries.
	PPActs int64
	// EPTokens is the MoE all-to-all payload (off-diagonal, both the
	// dispatch and the combine exchange).
	EPTokens int64
}

// CommStats returns the run's communication totals.
func (t *Trainer) CommStats() CommStats { return t.stats }

// SyncComm returns the cached collective communicator for one gradient
// reduction tree, planning its algorithm on first use.
func (c *Ctx) SyncComm(gid int) *GroupComm { return c.syncComm(gid, false) }

// syncComm is SyncComm with AllReduce.Hierarchical's override: hier
// makes every multi-member tree run the hierarchical reduce.
func (c *Ctx) syncComm(gid int, hier bool) *GroupComm {
	t := c.trainer
	gc, ok := t.syncComms[gid]
	if !ok {
		gc = newGroupComm(c, t.plan.GroupMembers(gid), &t.stats.DPReduce, hier)
		t.syncComms[gid] = gc
	}
	return gc
}
