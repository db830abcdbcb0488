package collective

import (
	"testing"

	"coarse/internal/sim"
	"coarse/internal/topology"
)

// pairSend completes transfers at a rate that depends on whether the
// two participants share a "node" (ids 0-3 vs 4-7): intra fast, inter
// slow — a two-node machine in miniature.
func pairSend(eng *sim.Engine, intraBW, interBW float64) PairSendFunc {
	return func(from, to int, size int64, onDone func()) {
		bw := intraBW
		if (from < 4) != (to < 4) {
			bw = interBW
		}
		eng.Schedule(sim.Seconds(float64(size)/bw), onDone)
	}
}

func twoNodeGroups() [][]int { return [][]int{{0, 1, 2, 3}, {4, 5, 6, 7}} }

func TestHierarchicalBeatsFlatOnSlowInterconnect(t *testing.T) {
	// With a 10x slower inter-node link, the two-level collective must
	// beat a flat ring that crosses the boundary every round.
	const bytes = 64 << 20
	flatTime := func() sim.Time {
		eng := sim.NewEngine()
		send := pairSend(eng, 1e9, 1e8)
		r := NewRing(eng, 8, func(i int, reverse bool, size int64, onDone func()) {
			j := (i + 1) % 8
			if reverse {
				j = (i + 7) % 8
			}
			send(i, j, size, onDone)
		})
		var done sim.Time
		r.AllReduceBytes(bytes, false, func() { done = eng.Now() })
		eng.Run()
		return done
	}()
	hierTime := func() sim.Time {
		eng := sim.NewEngine()
		h := NewHierarchy(eng, twoNodeGroups(), pairSend(eng, 1e9, 1e8))
		var done sim.Time
		h.AllReduceBytes(bytes, func() { done = eng.Now() })
		eng.Run()
		return done
	}()
	if hierTime >= flatTime {
		t.Fatalf("hierarchical %v not faster than flat %v on slow interconnect", hierTime, flatTime)
	}
}

func TestHierarchicalSingleNodeDegenerates(t *testing.T) {
	// One node: the leader ring has a single participant and costs
	// nothing, so the hierarchy takes exactly as long as a flat ring over
	// the node plus the leader's broadcast down the node's k-1 hop chain.
	const bytes = 1 << 16
	eng := sim.NewEngine()
	h := NewHierarchy(eng, [][]int{{0, 1, 2}}, pairSend(eng, 1e9, 1e8))
	h.ALUBytesPerSec = 4e9
	var hier sim.Time
	h.AllReduceBytes(bytes, func() { hier = eng.Now() })
	eng.Run()

	eng = sim.NewEngine()
	send := pairSend(eng, 1e9, 1e8)
	r := NewRing(eng, 3, func(i int, reverse bool, size int64, onDone func()) {
		send(i, (i+1)%3, size, onDone)
	})
	r.ALUBytesPerSec = 4e9
	var flat sim.Time
	r.AllReduceBytes(bytes, false, func() { flat = eng.Now() })
	eng.Run()
	bcast := 2 * sim.Seconds(bytes/1e9)
	if hier != flat+bcast {
		t.Fatalf("single-node hierarchy took %v, want flat ring %v + broadcast %v", hier, flat, bcast)
	}
}

func TestHierarchicalOverRealMultiNodeFabric(t *testing.T) {
	eng := sim.NewEngine()
	m := topology.Build(eng, topology.MultiNodeV100(2))
	groups := [][]int{{}, {}}
	for i, w := range m.Workers {
		groups[w.Node] = append(groups[w.Node], i)
	}
	sends := 0
	send := func(from, to int, size int64, onDone func()) {
		sends++
		m.Transfer(m.Workers[from], m.Workers[to], size, onDone)
	}
	h := NewHierarchy(eng, groups, send)
	var done sim.Time
	h.AllReduceBytes(1<<16, func() { done = eng.Now() })
	eng.Run()
	if done == 0 {
		t.Fatal("never completed")
	}
	// Per node of k workers: a k-ring allreduce and a k-1 hop broadcast
	// chain; across the m leaders: one m-ring allreduce.
	want := 0
	for _, g := range groups {
		k := len(g)
		want += 2*(k-1)*k + k - 1
	}
	want += 2 * (len(groups) - 1) * len(groups)
	if sends != want {
		t.Fatalf("%d sends, want %d", sends, want)
	}
}

func TestHierarchyValidation(t *testing.T) {
	eng := sim.NewEngine()
	send := pairSend(eng, 1, 1)
	for name, fn := range map[string]func(){
		"empty":      func() { NewHierarchy(eng, nil, send) },
		"empty node": func() { NewHierarchy(eng, [][]int{{}}, send) },
		"duplicate":  func() { NewHierarchy(eng, [][]int{{0, 1}, {1, 2}}, send) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			fn()
		}()
	}
}
