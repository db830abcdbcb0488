package train

import (
	"testing"

	"coarse/internal/model"
	"coarse/internal/topology"
)

func TestHierarchicalAllReduceFasterOnTwoNodes(t *testing.T) {
	run := func(hier bool) *Result {
		a := NewAllReduce()
		a.Hierarchical = hier
		cfg := DefaultConfig(topology.MultiNodeV100(2), model.BERTBase(), 2, 3)
		res, err := Run(cfg, a)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	flat := run(false)
	hier := run(true)
	if hier.IterTime >= flat.IterTime {
		t.Fatalf("hierarchical %v not faster than flat %v across the slow network",
			hier.IterTime, flat.IterTime)
	}
}

func TestHierarchicalOnSingleNodeStillWorks(t *testing.T) {
	a := NewAllReduce()
	a.Hierarchical = true
	cfg := DefaultConfig(topology.SDSCP100(), model.MLP("tiny", 16, 8), 2, 2)
	if _, err := Run(cfg, a); err != nil {
		t.Fatal(err)
	}
}
