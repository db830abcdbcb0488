package core

import (
	"testing"

	"coarse/internal/model"
	"coarse/internal/profiler"
	"coarse/internal/topology"
	"coarse/internal/train"
)

// mapSpreadBwProxies is spreadBwProxies as it was first written, with
// a map of per-proxy counts and a fresh candidate slice per table: the
// reference the buffer-reusing version must reproduce.
func mapSpreadBwProxies(tables []profiler.Table) {
	const tolerance = 0.95
	taken := make(map[int]int)
	for w := range tables {
		t := &tables[w]
		best := t.Measurements[t.BwProxy].Bandwidth
		var cands []int
		for _, m := range t.Measurements {
			if m.Bandwidth >= tolerance*best {
				cands = append(cands, m.Proxy)
			}
		}
		pick := cands[0]
		for _, c := range cands {
			if taken[c] < taken[pick] {
				pick = c
			}
		}
		t.BwProxy = pick
		taken[pick]++
	}
}

// TestSpreadBwProxiesMatchesMapSpread: on a generated machine whose
// pooled devices tie for every worker's best bandwidth, each shard of a
// 4-shard COARSE ends set-up with the tables the map-based spread
// derives from the same measurements, and the spread moved some picks.
func TestSpreadBwProxiesMatchesMapSpread(t *testing.T) {
	spec := topology.ScaleSpec{Racks: 2, NodesPerRack: 2, GPUsPerNode: 2, MemDevs: 8, MemDevTier: topology.TierRack}.Generate()
	opts := DefaultOptions()
	opts.Shards = 4
	s := New(opts)
	tr, err := train.New(train.DefaultConfig(spec, model.MLP("mlp", 256, 128, 10), 4, 1), s)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tr.Run(); err != nil {
		t.Fatal(err)
	}
	if s.NumShards() != 4 {
		t.Fatalf("built %d shards, want 4", s.NumShards())
	}
	moved := 0
	for si, sh := range s.shards {
		want := make([]profiler.Table, len(sh.tables))
		for w, tab := range sh.tables {
			want[w] = tab
			// Set-up's first-max pick, before the spread.
			want[w].BwProxy = 0
			for i, m := range tab.Measurements {
				if m.Bandwidth > tab.Measurements[want[w].BwProxy].Bandwidth {
					want[w].BwProxy = i
				}
			}
			if want[w].BwProxy != tab.BwProxy {
				moved++
			}
		}
		mapSpreadBwProxies(want)
		got := sh.tables
		if si == 0 {
			got = s.Tables()
		}
		// The spread moves only BwProxy; the rest is copied above.
		for w := range want {
			if got[w].BwProxy != want[w].BwProxy {
				t.Errorf("shard %d worker %d: BwProxy %d, map spread picks %d", si, w, got[w].BwProxy, want[w].BwProxy)
			}
		}
	}
	if moved == 0 {
		t.Fatal("the spread moved no pick: the machine exercises no tie")
	}
}
