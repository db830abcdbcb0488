package experiments

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"coarse/internal/chaos"
	"coarse/internal/fabric"
	"coarse/internal/metrics"
	"coarse/internal/model"
	"coarse/internal/parallel"
	"coarse/internal/runner"
	"coarse/internal/sim"
	"coarse/internal/train"
)

// TestAggregationByteIdentity is the randomized half of the
// flow-aggregation/fast-forward exactness pin (the multiplicity-k unit
// half lives in internal/fabric's aggregation tests): seeded random
// scale cells — worker count, shard count, batch, layer width, all
// four synchronization strategies — plus the sharded layouts of the
// parallelism family (MoE expert-parallel, MoE pipeline·expert and
// tensor-parallel cells, whose flow graphs split into many components),
// each with chaos on and off and each run twice, on the reference pass
// and on the default accelerated one, asserting byte identity of the
// rendered metrics table AND the sha256 of the full serialized result
// including the telemetry time-series dump. Layer widths above the
// partition size produce multi-chunk pushes whose symmetric fans
// actually aggregate, so the test fails loudly if the property ever
// becomes vacuous: no scenario aggregated anything, fast-forwarded a
// pass, or served a pass by refilling only the triggered components.
func TestAggregationByteIdentity(t *testing.T) {
	if testing.Short() {
		t.Skip("runs rack-cell simulations twice per scenario; skipped under -short")
	}
	type scenario struct {
		name   string
		spec   runner.Spec
		chaos  bool
		period sim.Time // chaos fault period
	}
	var scenarios []scenario
	rng := rand.New(rand.NewSource(0x5CA1E))
	strategies := []string{"COARSE", "DENSE", "CentralPS", "AllReduce"}
	for i := 0; i < 8; i++ {
		workers := []int{8, 16, 32}[rng.Intn(3)]
		shards := []int{1, 2, 4}[rng.Intn(3)]
		batch := 2 + 2*rng.Intn(3)
		// 8, 16 or 32 MiB layers: wide enough that a layer's per-shard
		// share spans several partition-size chunks, so the strategies
		// emit the multi-chunk symmetric fans aggregation folds.
		elems := 512 * 1024 << (2 + rng.Intn(3))
		strategy := strategies[i%len(strategies)]
		withChaos := i%2 == 1
		period := sim.Duration(time.Duration(1+rng.Intn(20)) * time.Millisecond)
		spec := scaleSpec(Config{Quick: true}, workers, shards, batch, strategy)
		spec.Key = "" // never alias cached fault-free results
		if strategy == "AllReduce" {
			spec.NewStrategy = func() train.Strategy { return train.NewAllReduce() }
		}
		m := &model.Model{Name: fmt.Sprintf("synth-e%d", elems)}
		for l := 0; l < 4; l++ {
			m.Layers = append(m.Layers, model.Layer{
				Name:       fmt.Sprintf("dense%d", l),
				ParamElems: elems,
				FwdFLOPs:   2.0e9,
				ActBytes:   1 << 20,
			})
		}
		spec.Model = m
		scenarios = append(scenarios, scenario{
			name:   fmt.Sprintf("%s/w%d/k%d/b%d/e%d/chaos=%v", strategy, workers, shards, batch, elems, withChaos),
			spec:   spec,
			chaos:  withChaos,
			period: period,
		})
	}
	sharded := []struct {
		kind     string
		m        *model.Model
		layout   parallel.Layout
		strategy string
	}{
		{"moe", parallelismMoEModel(), parallel.Layout{EP: 4}, "AllReduce"},
		{"moe", parallelismMoEModel(), parallel.Layout{PP: 2, EP: 2}, "AllReduce"},
		{"dense", parallelismDenseModel(), parallel.Layout{TP: 4}, "COARSE"},
	}
	for _, c := range sharded {
		for _, withChaos := range []bool{false, true} {
			scenarios = append(scenarios, scenario{
				name:   fmt.Sprintf("%s/%s/%s/chaos=%v", c.kind, c.layout, c.strategy, withChaos),
				spec:   parallelismSpec(Config{Quick: true}, c.kind, c.m, c.layout, c.strategy, false),
				chaos:  withChaos,
				period: sim.Duration(time.Duration(1+rng.Intn(20)) * time.Millisecond),
			})
		}
	}
	var aggregated, fastForwarded, componentPasses uint64
	for _, sc := range scenarios {
		t.Run(sc.name, func(t *testing.T) {
			spec := sc.spec
			spec.Telemetry = true
			if period := sc.period; sc.chaos {
				spec.Chaos = &chaos.Spec{Faults: []chaos.Fault{
					{Kind: chaos.WorkerStall, Start: period / 4, Duration: period / 8,
						Period: period, Repeat: 64, Target: 1},
					{Kind: chaos.LinkDegrade, Start: period / 2, Duration: period / 8,
						Period: period, Repeat: 64, Target: 2, Factor: 0.5},
				}}
			}
			run := func(accelerated bool) (string, [sha256.Size]byte) {
				defer fabric.SetReferenceFillingForTest(!accelerated)()
				s := spec
				s.Probe = func(p *runner.Probe) {
					n := p.Trainer.Ctx().Machine.Net
					if accelerated {
						aggregated += n.FlowsAggregated()
						fastForwarded += n.FastForwardPasses()
						componentPasses += n.ComponentPasses()
					} else if n.FlowsAggregated() != 0 || n.FastForwardPasses() != 0 {
						t.Errorf("reference run aggregated %d flows and fast-forwarded %d passes",
							n.FlowsAggregated(), n.FastForwardPasses())
					}
				}
				res := runner.Run(s)
				if !res.OK() {
					t.Fatalf("cell failed: %s", res.Err)
				}
				tab := metrics.NewTable("identity", "id", "iter time", "events", "gpu util")
				tab.AddRow(res.ID, res.Train.IterTime.String(), res.Train.Events, metrics.Pct(res.Train.GPUUtil))
				blob, err := json.Marshal(res)
				if err != nil {
					t.Fatalf("marshal result: %v", err)
				}
				return tab.String(), sha256.Sum256(blob)
			}
			baseTab, baseSHA := run(false)
			accTab, accSHA := run(true)
			if baseTab != accTab {
				t.Errorf("tables differ between baseline and accelerated runs:\n--- off ---\n%s--- on ---\n%s", baseTab, accTab)
			}
			if baseSHA != accSHA {
				t.Errorf("result+telemetry sha256 differs between baseline and accelerated runs:\noff %x\non  %x", baseSHA, accSHA)
			}
		})
	}
	if aggregated == 0 {
		t.Errorf("no scenario aggregated a single flow; the identity property is vacuous")
	}
	if fastForwarded == 0 {
		t.Errorf("no scenario fast-forwarded a single pass; the identity property is vacuous")
	}
	if componentPasses == 0 {
		t.Errorf("no scenario refilled only the triggered components of a pass; the identity property is vacuous")
	}
}
