package experiments

import (
	"fmt"

	"coarse/internal/core"
	"coarse/internal/metrics"
	"coarse/internal/model"
	"coarse/internal/paramserver"
	"coarse/internal/runner"
	"coarse/internal/topology"
	"coarse/internal/train"
)

// The scale family takes the paper's single-node designs to synthetic
// multi-rack machines (topology.ScaleSpec) and measures how each
// synchronization design's iteration time inflates as the worker count
// grows 8 -> 1024 (8 -> 4096 in the full, non-quick sweep). The paper's Section VI claim, extrapolated: COARSE's
// decentralized pull-based synchronization — gradients fan out across
// k sharded coherence domains, each domain spreading load over its
// pooled devices — degrades more slowly than DENSE's shared write
// ports or a central parameter server's incast + serial-apply
// bottleneck. Weak scaling holds per-worker batch constant; strong
// scaling holds the global batch constant; the shard sweep varies the
// COARSE/DENSE/CentralPS partition count at fixed machine size.

// scaleStrategies in presentation order: centralized baselines first,
// COARSE last.
var scaleStrategies = []string{"DENSE", "CentralPS", "COARSE"}

// scaleWeakWorkers is the weak-scaling worker sweep; the first entry
// is the inflation baseline. Quick mode stops at 1024 — the 4096-cell
// COARSE run alone costs tens of minutes of single-core wall clock
// (measured ~40 min; its fabric carries ~256 racks of flows through
// every reshare), which no CI lane can absorb — so the full sweep
// (plain `coarsebench`, or TestScaleOrdering4096) extends it with
// scaleWeakWorkersFull.
var scaleWeakWorkers = []int{8, 32, 128, 512, 1024}

// scaleWeakWorkersFull is the non-quick extension of the weak sweep.
var scaleWeakWorkersFull = []int{4096}

// scaleStrongWorkers is the strong-scaling sweep (global batch fixed
// at scaleStrongBatch, so per-worker batch shrinks with the machine).
var scaleStrongWorkers = []int{8, 32, 128}

// scaleShardCounts is the partition sweep at scaleShardWorkers.
var scaleShardCounts = []int{1, 2, 4}

const (
	// scaleMemDevs is the floor of the pooled CCI device count; the
	// pool grows with the machine (two devices per rack — the pool is
	// rack-attached disaggregated memory, so it scales with the fabric
	// like the paper's Section VI projection). With scaleShards
	// partitions each COARSE coherence domain spans devs/scaleShards
	// devices, so the proxy spreader splits each shard's incast across
	// its whole domain while CentralPS keeps k fixed server CPUs.
	scaleMemDevs = 8
	scaleShards  = 4
	// scaleOversub is the ToR:spine oversubscription ratio — the
	// generated machines are deliberately not full-bisection.
	scaleOversub     = 2
	scaleWeakBatch   = 4   // per-worker samples, weak scaling
	scaleStrongBatch = 512 // global samples, strong scaling
	// scaleShardWorkers is the fixed machine size of the shard sweep.
	scaleShardWorkers = 128
)

// scaleMachine generates the w-worker synthetic machine: 4 GPUs per
// node, up to 4 nodes per rack, rack count growing with the sweep, and
// the shared scaleMemDevs-device CCI pool attached at the rack tier.
func scaleMachine(workers int) topology.Spec {
	gpn := 4
	if workers < gpn {
		gpn = workers
	}
	nodes := workers / gpn
	npr := 4
	if nodes < npr {
		npr = nodes
	}
	racks := nodes / npr
	devs := 2 * racks
	if devs < scaleMemDevs {
		devs = scaleMemDevs
	}
	return topology.ScaleSpec{
		Racks:        racks,
		NodesPerRack: npr,
		GPUsPerNode:  gpn,
		MemDevs:      devs,
		MemDevTier:   topology.TierRack,
		Oversub:      scaleOversub,
	}.Generate()
}

// scaleModel is the synthetic workload: eight uniform 2 MiB dense
// layers (16 MiB of parameters — enough traffic that synchronization
// dominates once hundreds of workers share the fabric) with explicit
// per-sample FLOPs so compute time is roofline-derived, not
// layer-shape-derived.
func scaleModel() *model.Model {
	m := &model.Model{Name: "synth16M"}
	for i := 0; i < 8; i++ {
		m.Layers = append(m.Layers, model.Layer{
			Name:       fmt.Sprintf("dense%d", i),
			ParamElems: 512 * 1024, // 2 MiB
			FwdFLOPs:   2.0e9,
			ActBytes:   1 << 20,
		})
	}
	return m
}

// shardedStrategy builds a named design with k shards; AllReduce has
// none. COARSE runs its full parameter space through the memory
// devices (MFraction 1): at rack scale the per-layer tail rides the
// same shard domains as the bulk instead of a 512-wide GPU ring.
func shardedStrategy(name string, shards int) train.Strategy {
	strat := newStrategy(name)
	switch s := strat.(type) {
	case *core.Strategy:
		s.Opts.Shards = shards
		s.Opts.MFraction = 1
	case *paramserver.DENSE:
		s.Shards = shards
	case *paramserver.CentralPS:
		s.Shards = shards
	}
	return strat
}

// scaleSpec builds a cacheable runner spec for one scale cell. The key
// carries every identifying knob (worker count fixes the generated
// machine; shard count fixes the strategy partitioning), so the weak
// sweep, strong sweep and shard sweep share cells where they overlap.
func scaleSpec(cfg Config, workers, shards, batch int, strategy string) runner.Spec {
	iters := cfg.iterations()
	id := fmt.Sprintf("scale/w%d/k%d/%s/b%d/i%d", workers, shards, strategy, batch, iters)
	return runner.Spec{
		ID:          id,
		Key:         id,
		Topology:    scaleMachine(workers),
		Model:       scaleModel(),
		Batch:       batch,
		Iterations:  iters,
		NewStrategy: func() train.Strategy { return shardedStrategy(strategy, shards) },
	}
}

// scaleCell identifies one swept configuration and the run it maps to.
type scaleCell struct {
	Workers  int
	Shards   int
	Batch    int
	Strategy string
	ID       string
}

// scaleData is every cell of the family, run as one batch.
type scaleData struct {
	weak    []scaleCell
	strong  []scaleCell
	shard   []scaleCell
	got     map[string]*runner.Result
	records []metrics.Result
}

// result returns the cell's run, or nil when it failed.
func (d *scaleData) result(c scaleCell) *runner.Result {
	r := d.got[c.ID]
	if r == nil || !r.OK() {
		return nil
	}
	return r
}

// baseline returns the same strategy/shards/batch cell at the smallest
// worker count of the given sweep.
func (d *scaleData) baseline(cells []scaleCell, c scaleCell) *runner.Result {
	for _, b := range cells {
		if b.Strategy == c.Strategy && b.Shards == c.Shards && b.Workers == cells[0].Workers {
			return d.result(b)
		}
	}
	return nil
}

// Inflation is the weak-scaling figure of merit: iteration time at w
// workers over the same design's iteration time on the smallest
// machine. Perfect weak scaling is 1.0.
func scaleInflation(base, r *runner.Result) float64 {
	return r.Train.IterTime.ToSeconds() / base.Train.IterTime.ToSeconds()
}

func scaleRun(cfg Config) *scaleData {
	d, rs := scaleCells(cfg)
	d.got, d.records = rs.results(cfg)
	return d
}

// scaleCells registers every cell of the family without running it.
func scaleCells(cfg Config) (*scaleData, *runSet) {
	rs := &runSet{}
	d := &scaleData{}
	add := func(workers, shards, batch int, strategy string) scaleCell {
		s := scaleSpec(cfg, workers, shards, batch, strategy)
		return scaleCell{Workers: workers, Shards: shards, Batch: batch, Strategy: strategy, ID: rs.add(s)}
	}
	weak := scaleWeakWorkers
	if !cfg.Quick {
		weak = append(append([]int{}, weak...), scaleWeakWorkersFull...)
	}
	for _, w := range weak {
		for _, strat := range scaleStrategies {
			d.weak = append(d.weak, add(w, scaleShards, scaleWeakBatch, strat))
		}
	}
	for _, w := range scaleStrongWorkers {
		for _, strat := range scaleStrategies {
			d.strong = append(d.strong, add(w, scaleShards, scaleStrongBatch/w, strat))
		}
	}
	for _, k := range scaleShardCounts {
		for _, strat := range scaleStrategies {
			d.shard = append(d.shard, add(scaleShardWorkers, k, scaleWeakBatch, strat))
		}
	}
	return d, rs
}

// tierUtil pulls one tier's mean utilization out of a run (0 when the
// machine has no such tier).
func tierUtil(r *runner.Result, tier string) float64 {
	for _, tu := range r.Train.TierUtils {
		if tu.Tier == tier {
			return tu.Util
		}
	}
	return 0
}

// renderScaleWeak renders the weak-scaling table with the per-tier
// saturation columns that explain the inflation: the rack/spine
// network tiers and the CCI tier are where the designs part ways.
func renderScaleWeak(d *scaleData) *metrics.Table {
	tab := metrics.NewTable(
		fmt.Sprintf("Weak scaling: batch %d/worker, rack-scaled CCI pool (>= %d devices), %d shards, %gx oversubscribed",
			scaleWeakBatch, scaleMemDevs, scaleShards, float64(scaleOversub)),
		"workers", "strategy", "iter time", "inflation", "gpu util", "rack util", "spine util", "cci util")
	for _, c := range d.weak {
		r := d.result(c)
		if r == nil {
			continue
		}
		base := d.baseline(d.weak, c)
		infl := "-"
		if base != nil {
			infl = metrics.Speedup(scaleInflation(base, r))
		}
		tab.AddRow(c.Workers, c.Strategy,
			metrics.Ms(r.Train.IterTime), infl,
			metrics.Pct(r.Train.GPUUtil),
			metrics.Pct(tierUtil(r, "rack")),
			metrics.Pct(tierUtil(r, "spine")),
			metrics.Pct(tierUtil(r, "cci")))
	}
	return tab
}

// renderScaleStrong renders the strong-scaling table: fixed global
// batch, speedup vs the smallest machine, parallel efficiency.
func renderScaleStrong(d *scaleData) *metrics.Table {
	tab := metrics.NewTable(
		fmt.Sprintf("Strong scaling: global batch %d", scaleStrongBatch),
		"workers", "strategy", "batch/worker", "iter time", "speedup", "efficiency")
	for _, c := range d.strong {
		r := d.result(c)
		if r == nil {
			continue
		}
		base := d.baseline(d.strong, c)
		speed, eff := "-", "-"
		if base != nil {
			s := base.Train.IterTime.ToSeconds() / r.Train.IterTime.ToSeconds()
			ideal := float64(c.Workers) / float64(d.strong[0].Workers)
			speed = metrics.Speedup(s)
			eff = metrics.Pct(s / ideal)
		}
		tab.AddRow(c.Workers, c.Strategy, c.Batch,
			metrics.Ms(r.Train.IterTime), speed, eff)
	}
	return tab
}

// renderScaleShards renders the partition sweep at the fixed machine
// size.
func renderScaleShards(d *scaleData) *metrics.Table {
	tab := metrics.NewTable(
		fmt.Sprintf("Shard sweep at %d workers: partitions vs iteration time (batch %d/worker)",
			scaleShardWorkers, scaleWeakBatch),
		"shards", "strategy", "iter time", "cci util", "spine util")
	for _, c := range d.shard {
		r := d.result(c)
		if r == nil {
			continue
		}
		tab.AddRow(c.Shards, c.Strategy,
			metrics.Ms(r.Train.IterTime),
			metrics.Pct(tierUtil(r, "cci")),
			metrics.Pct(tierUtil(r, "spine")))
	}
	return tab
}

// Scale is the scale-out experiment family: weak and strong scaling of
// every synchronization design on generated multi-rack machines, plus
// the shard-count sweep.
func Scale() Experiment {
	return Experiment{
		ID:    "scale",
		Title: "Scale-out: weak/strong scaling on synthetic multi-rack machines",
		Paper: "Section VI extrapolated: COARSE's sharded decentralized synchronization inflates strictly less than DENSE's shared ports and a central PS's incast once workers reach rack scale (>= 128)",
		Run: func(cfg Config) *Report {
			d := scaleRun(cfg)
			rep := &Report{Records: d.records}
			rep.add(renderScaleWeak(d), renderScaleStrong(d), renderScaleShards(d))
			return rep
		},
	}
}
