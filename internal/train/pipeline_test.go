package train_test

// Integration suite for the sharded-layout pipeline driver: every
// synchronization strategy must complete 1F1B schedules under
// pipeline-, tensor- and expert-parallel layouts on a multi-rack
// generated machine, reproduce byte-identically across repeated runs,
// and respect the communication conservation laws the parallelism
// plan promises — each layer's gradient volume is paid exactly once
// per reduction tree, and everything the trainer reports as payload
// shows up (with collective fan-out) as bytes carried on the fabric.

import (
	"fmt"
	"reflect"
	"testing"

	"coarse/internal/core"
	"coarse/internal/model"
	"coarse/internal/parallel"
	"coarse/internal/paramserver"
	"coarse/internal/topology"
	"coarse/internal/train"
)

// pipeSpec generates the 8-worker, 2-rack machine with rack-tier CCI
// devices (so the planner has an offload option for cross-rack trees).
func pipeSpec() topology.Spec {
	return topology.ScaleSpec{
		Racks:        2,
		NodesPerRack: 2,
		GPUsPerNode:  2,
		MemDevs:      2,
		MemDevTier:   topology.TierRack,
		Oversub:      2,
	}.Generate()
}

func pipeDense() *model.Model {
	m := &model.Model{Name: "pipesynth"}
	for i := 0; i < 4; i++ {
		m.Layers = append(m.Layers, model.Layer{
			Name:       fmt.Sprintf("dense%d", i),
			ParamElems: 64 * 1024,
			FwdFLOPs:   2.0e8,
			ActBytes:   1 << 18,
		})
	}
	return m
}

func pipeMoE() *model.Model {
	return model.MoETransformer("pipemoe", 2, 128, 256, 4, 2, 32)
}

var pipeStrategies = []struct {
	name string
	mk   func() train.Strategy
}{
	{"AllReduce", func() train.Strategy { return train.NewAllReduce() }},
	{"DENSE", func() train.Strategy { return paramserver.NewDENSE() }},
	{"CentralPS", func() train.Strategy { return paramserver.NewCentralPS() }},
	{"COARSE", func() train.Strategy { return core.New(core.DefaultOptions()) }},
}

func runPipe(t *testing.T, m *model.Model, lay parallel.Layout, mk func() train.Strategy) (*train.Result, *train.Trainer) {
	t.Helper()
	cfg := train.DefaultConfig(pipeSpec(), m, 4, 2)
	cfg.Layout = lay
	tr, err := train.New(cfg, mk())
	if err != nil {
		t.Fatalf("New(%v): %v", lay, err)
	}
	res, err := tr.Run()
	if err != nil {
		t.Fatalf("Run(%v): %v", lay, err)
	}
	return res, tr
}

// TestPipelineLayoutsAllStrategies runs every strategy under
// pipeline-, tensor-, combined- and expert-parallel layouts on the
// 8-worker machine. Each cell must finish, label its result with the
// layout, and reproduce exactly on a second identical run.
func TestPipelineLayoutsAllStrategies(t *testing.T) {
	cells := []struct {
		name   string
		model  func() *model.Model
		layout parallel.Layout
		label  string
	}{
		{"pp2", pipeDense, parallel.Layout{PP: 2}, "dp4-pp2-tp1-ep1"},
		{"tp2", pipeDense, parallel.Layout{TP: 2}, "dp4-pp1-tp2-ep1"},
		{"pp2tp2", pipeDense, parallel.Layout{PP: 2, TP: 2}, "dp2-pp2-tp2-ep1"},
		{"ep2", pipeMoE, parallel.Layout{EP: 2}, "dp4-pp1-tp1-ep2"},
		{"pp2ep2", pipeMoE, parallel.Layout{PP: 2, EP: 2}, "dp2-pp2-tp1-ep2"},
	}
	for _, s := range pipeStrategies {
		for _, c := range cells {
			t.Run(s.name+"/"+c.name, func(t *testing.T) {
				res, _ := runPipe(t, c.model(), c.layout, s.mk)
				if res.Layout != c.label {
					t.Fatalf("layout label = %q, want %q", res.Layout, c.label)
				}
				if res.IterTime <= 0 {
					t.Fatalf("non-positive iteration time: %+v", res.RunMetrics)
				}
				again, _ := runPipe(t, c.model(), c.layout, s.mk)
				if !reflect.DeepEqual(res, again) {
					t.Errorf("repeat run diverged:\nfirst  %+v\nsecond %+v", res, again)
				}
			})
		}
	}
}

// planTreeBytes sums each reduction tree's per-iteration gradient
// payload — the analytic quantity CommStats.DPReduce must equal.
func planTreeBytes(p *parallel.Plan) int64 {
	var total int64
	for gid := range p.Groups() {
		for _, l := range p.GroupLayers(gid) {
			total += p.SyncBytes(l)
		}
	}
	return total
}

// TestPipelineBytesConservation pins the two conservation laws on the
// AllReduce path at a fixed global batch, data-parallel layout
// included (its single all-worker tree pays exactly the parameter
// bytes per iteration):
//
//  1. Summed over reduction trees, a model's gradient volume is paid
//     exactly once per tree covering each layer — so the tree-payload
//     total equals the model's parameter bytes regardless of layout,
//     within per-tree ceil-rounding (each of a layer's trees rounds
//     its shard up by at most one 4-byte element).
//  2. Every byte the trainer reports as collective payload (gradient
//     trees, TP reductions, stage-boundary activations, MoE routing)
//     appears on the fabric: rings and hierarchies fan a payload of n
//     bytes into at least n carried bytes for groups of two or more,
//     so total BytesCarried across links bounds the payload sum
//     from below.
func TestPipelineBytesConservation(t *testing.T) {
	layouts := []parallel.Layout{
		{},
		{PP: 2},
		{TP: 2},
		{PP: 2, TP: 2},
	}
	m := pipeDense()
	paramBytes := m.ParamBytes()
	for _, lay := range layouts {
		t.Run(lay.String(), func(t *testing.T) {
			res, tr := runPipe(t, pipeDense(), lay, func() train.Strategy { return train.NewAllReduce() })
			plan := tr.Ctx().Plan()
			stats := tr.CommStats()

			// Law 1: tree payloads sum to the parameter bytes, within
			// rounding — one ceil per (layer, tree) pair.
			perIter := planTreeBytes(plan)
			slack := int64(4 * len(m.Layers) * len(plan.Groups()))
			if perIter < paramBytes || perIter > paramBytes+slack {
				t.Errorf("tree payload sum %d outside [%d, %d] for %v",
					perIter, paramBytes, paramBytes+slack, lay)
			}
			wantDP := perIter * int64(res.Iterations)
			if stats.DPReduce != wantDP {
				t.Errorf("DPReduce = %d, want %d (plan trees x iterations)", stats.DPReduce, wantDP)
			}

			// Law 2: fabric carried bytes bound the payload sum.
			payload := float64(stats.DPReduce + stats.TPReduce + stats.PPActs + stats.EPTokens)
			var carried float64
			for _, l := range tr.Ctx().Machine.Net.Links() {
				carried += l.Fwd().BytesCarried() + l.Rev().BytesCarried()
			}
			if carried < payload {
				t.Errorf("fabric carried %.0f bytes < reported payload %.0f", carried, payload)
			}
		})
	}
}

// TestPipelineMoEStats: expert-parallel runs must report routed token
// bytes, and the volume must be identical across repeated runs (the
// router is a pure function of the seed).
func TestPipelineMoEStats(t *testing.T) {
	_, tr := runPipe(t, pipeMoE(), parallel.Layout{EP: 2}, func() train.Strategy { return train.NewAllReduce() })
	stats := tr.CommStats()
	if stats.EPTokens <= 0 {
		t.Fatalf("EP layout routed no tokens: %+v", stats)
	}
	_, tr2 := runPipe(t, pipeMoE(), parallel.Layout{EP: 2}, func() train.Strategy { return train.NewAllReduce() })
	if got := tr2.CommStats(); got != stats {
		t.Errorf("comm stats diverged across identical runs: %+v vs %+v", got, stats)
	}
}
