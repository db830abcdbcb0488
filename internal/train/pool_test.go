package train

import (
	"runtime"
	"testing"
	"time"

	"coarse/internal/model"
	"coarse/internal/parallel"
	"coarse/internal/topology"
)

// commCase is one communicator the record tests drive: a machine and
// the algorithm a communicator over all of its workers must run.
type commCase struct {
	name string
	spec topology.Spec
	alg  parallel.Alg
}

func commCases() []commCase {
	racks := topology.ScaleSpec{Racks: 2, NodesPerRack: 1, GPUsPerNode: 2, MemDevs: 2, MemDevTier: topology.TierRack}
	return []commCase{
		{"ring-p2p", topology.AWSV100(), parallel.AlgRing},    // direct DMAs
		{"ring-bounced", topology.AWST4(), parallel.AlgRing},  // host-bounced DMAs
		{"hier", topology.MultiNodeV100(2), parallel.AlgHier}, // node rings, leader ring, broadcasts
		{"offload", racks.Generate(), parallel.AlgOffload},    // push, device ring, pull
	}
}

// newTestComm builds a trainer on tc's machine and a communicator over
// every worker running tc's algorithm, plus an all-to-all routing
// matrix over the same members with uneven off-diagonal volumes.
func newTestComm(t *testing.T, tc commCase) (*Ctx, *GroupComm, [][]int64) {
	t.Helper()
	tr, err := New(DefaultConfig(tc.spec, model.MLP("tiny", 16, 8), 2, 1), NewAllReduce())
	if err != nil {
		t.Fatal(err)
	}
	c := tr.Ctx()
	if tc.alg == parallel.AlgOffload {
		c.Cfg.Layout = parallel.Layout{TP: 2} // leave the flat data-parallel ring
	}
	members := make([]int, len(c.Workers))
	routes := make([][]int64, len(members))
	for i := range members {
		members[i] = i
		routes[i] = make([]int64, len(members))
		for j := range routes[i] {
			routes[i][j] = int64(4096*(i+1) + j)
		}
	}
	gc := newGroupComm(c, members, nil, tc.alg == parallel.AlgHier)
	if gc.Alg() != tc.alg {
		t.Fatalf("%s: communicator runs %v, want %v", tc.name, gc.Alg(), tc.alg)
	}
	return c, gc, routes
}

// TestGroupCommAllocsZero: once every free list has grown, a
// communicator's allreduce and all-to-all allocate nothing, on each
// algorithm: the hops' awake wrappers, the offload and exchange
// records, and the DMA and ring records under them are all recycled.
func TestGroupCommAllocsZero(t *testing.T) {
	for _, tc := range commCases() {
		c, gc, routes := newTestComm(t, tc)
		done := 0
		onDone := func() { done++ }
		burst := func() {
			gc.AllReduceBytes(1<<20+3, onDone)
			gc.AllToAll(routes, onDone)
			c.Eng.Run()
		}
		const warm = 100
		for i := 0; i < warm; i++ {
			burst()
		}
		if got := testing.AllocsPerRun(20, burst); got != 0 {
			t.Errorf("%s: a burst of collectives allocates %.1f objects, want 0", tc.name, got)
		}
		if want := (warm + 21) * 2; done != want {
			t.Fatalf("%s: %d collectives completed, want %d", tc.name, done, want)
		}
	}
}

// TestRecycledRecordsDropCallbacks: a record back on its free list must
// not keep its onDone, or what onDone captured, reachable from the
// trainer. The caller's callback goes straight into the record under
// test: a ring, hierarchy, offload or exchange record through the
// communicator, a direct DMA (V100) or bounce (T4) record through a
// plain copy, and a hop record through a copy that waits for its
// workers.
func TestRecycledRecordsDropCallbacks(t *testing.T) {
	for _, tc := range commCases() {
		c, gc, routes := newTestComm(t, tc)
		collected := make(chan struct{})
		func() {
			obj := new([1024]byte)
			runtime.SetFinalizer(obj, func(*[1024]byte) { close(collected) })
			gc.AllReduceBytes(1<<20+3, func() { obj[0]++ })
			gc.AllToAll(routes, func() { obj[1]++ })
			c.Eng.Run()
			// Last, so no later operation reuses these records.
			w0, w1 := c.Workers[0].Dev, c.Workers[1].Dev
			c.CCI.DMACopy(w0, w1, 1<<20, func() { obj[2]++ })
			c.CCI.DMACopy(w1, w0, 1<<20, c.newHop(func() { obj[3]++ }, 1, 0))
			c.Eng.Run()
		}()
		if c.hops.Len() == 0 {
			t.Fatalf("%s: no hop record was recycled", tc.name)
		}
		ok := false
		for i := 0; i < 20 && !ok; i++ {
			runtime.GC()
			select {
			case <-collected:
				ok = true
			case <-time.After(10 * time.Millisecond):
			}
		}
		if !ok {
			t.Errorf("%s: a recycled record keeps its callback's captures alive", tc.name)
		}
		runtime.KeepAlive(c)
		runtime.KeepAlive(gc)
	}
}
