package experiments

import (
	"fmt"

	"coarse/internal/metrics"
	"coarse/internal/model"
	"coarse/internal/parallel"
	"coarse/internal/runner"
	"coarse/internal/topology"
	"coarse/internal/train"
)

// The parallelism family exercises 3D (data/pipeline/tensor) and
// expert parallelism on a fixed 128-worker, 8-rack machine at a fixed
// global batch: every layout trains the same number of samples per
// iteration, so iteration-time differences are purely the layouts'
// communication/utilization trade — the quantity the topology-aware
// collective planner exists to optimize. A planner-vs-flat-ring pair
// isolates the planner's own contribution, and an analytic decision
// table records which algorithm it picks for every communicator class
// each layout creates.

const (
	// parallelismWorkers is the machine size: 8 racks x 4 nodes x 4
	// GPUs, the scale floor where cross-rack trees dominate.
	parallelismWorkers = 128
	// parallelismGlobalBatch is the fixed global batch; each cell's
	// per-worker batch is this divided by the layout's effective
	// data-parallel width.
	parallelismGlobalBatch = 256
	// parallelismGPN/NPR mirror the generated machine's shape for the
	// analytic planner table (worker w sits on node w/4, rack w/16).
	parallelismGPN = 4
	parallelismNPR = 4
)

// parallelismMachine generates the 128-worker machine with a rack-tier
// CCI pool (two devices per rack), the configuration where the planner
// has all three algorithms available.
func parallelismMachine() topology.Spec {
	return topology.ScaleSpec{
		Racks:        parallelismWorkers / (parallelismGPN * parallelismNPR),
		NodesPerRack: parallelismNPR,
		GPUsPerNode:  parallelismGPN,
		MemDevs:      2 * parallelismWorkers / (parallelismGPN * parallelismNPR),
		MemDevTier:   topology.TierRack,
		Oversub:      2,
	}.Generate()
}

// parallelismDenseModel: eight uniform 1 MiB dense layers — deep
// enough for four pipeline stages, heavy enough that synchronization
// shows.
func parallelismDenseModel() *model.Model {
	m := &model.Model{Name: "synth8M"}
	for i := 0; i < 8; i++ {
		m.Layers = append(m.Layers, model.Layer{
			Name:       fmt.Sprintf("dense%d", i),
			ParamElems: 256 * 1024, // 1 MiB
			FwdFLOPs:   2.0e9,
			ActBytes:   1 << 20,
		})
	}
	return m
}

// parallelismMoEModel: four transformer blocks whose MoE layers hold
// eight experts each, so EP in {2, 4, 8} splits them evenly.
func parallelismMoEModel() *model.Model {
	return model.MoETransformer("moe8x4", 4, 256, 512, 8, 2, 32)
}

// The dense layout sweep: pure DP, pipeline, tensor, and the combined
// grid. All at the fixed global batch.
var parallelismDenseLayouts = []parallel.Layout{
	{},
	{PP: 4},
	{TP: 4},
	{PP: 4, TP: 4},
}

// The MoE layout sweep (AllReduce): pure DP, expert parallelism, and
// pipeline+expert.
var parallelismMoELayouts = []parallel.Layout{
	{},
	{EP: 4},
	{PP: 2, EP: 2},
}

var parallelismStrategies = []string{"AllReduce", "COARSE"}

// parallelismBatch returns the per-worker batch keeping the global
// batch fixed: global / DPEff, where DPEff = world / (PP·TP·EP) (the
// leftover world always folds into data parallelism).
func parallelismBatch(l parallel.Layout) int {
	dp := l.DP
	if dp == 0 {
		dp = 1
	}
	dpEff := dp * (parallelismWorkers / l.Product())
	return parallelismGlobalBatch / dpEff
}

// parallelismSpec builds one cell. Probe pulls the sharded
// communication totals into Extra so the MoE table can show routed
// token volume (zero and absent on trivial layouts, matching the
// record convention).
func parallelismSpec(cfg Config, kind string, m *model.Model, l parallel.Layout, strategy string, flat bool) runner.Spec {
	iters := cfg.iterations()
	id := fmt.Sprintf("parallelism/%s/%s/%s/i%d", kind, l, strategy, iters)
	if flat {
		id += "/flat"
	}
	return runner.Spec{
		ID:              id,
		Topology:        parallelismMachine(),
		Model:           m,
		Batch:           parallelismBatch(l),
		Iterations:      iters,
		Layout:          l,
		FlatCollectives: flat,
		NewStrategy:     func() train.Strategy { return shardedStrategy(strategy, 4) },
		Probe: func(p *runner.Probe) {
			s := p.Trainer.CommStats()
			if s.EPTokens > 0 {
				p.Result.SetExtra("ep_routed", byteSize(s.EPTokens))
			}
			if s.PPActs > 0 {
				p.Result.SetExtra("pp_acts", byteSize(s.PPActs))
			}
		},
	}
}

type parallelismCell struct {
	Layout   parallel.Layout
	Strategy string
	Flat     bool
	ID       string
}

type parallelismData struct {
	dense   []parallelismCell
	moe     []parallelismCell
	planner []parallelismCell // AllReduce pp4: planned vs forced flat ring
	got     map[string]*runner.Result
	records []metrics.Result
}

func (d *parallelismData) result(c parallelismCell) *runner.Result {
	r := d.got[c.ID]
	if r == nil || !r.OK() {
		return nil
	}
	return r
}

func parallelismRun(cfg Config) *parallelismData {
	rs := &runSet{}
	d := &parallelismData{}
	add := func(kind string, m *model.Model, l parallel.Layout, strategy string, flat bool) parallelismCell {
		s := parallelismSpec(cfg, kind, m, l, strategy, flat)
		return parallelismCell{Layout: l, Strategy: strategy, Flat: flat, ID: rs.add(s)}
	}
	for _, l := range parallelismDenseLayouts {
		for _, strat := range parallelismStrategies {
			d.dense = append(d.dense, add("dense", parallelismDenseModel(), l, strat, false))
		}
	}
	for _, l := range parallelismMoELayouts {
		d.moe = append(d.moe, add("moe", parallelismMoEModel(), l, "AllReduce", false))
	}
	// The planner pair: same cell with the planner free vs forced flat.
	d.planner = append(d.planner,
		add("dense", parallelismDenseModel(), parallel.Layout{PP: 4}, "AllReduce", false),
		add("dense", parallelismDenseModel(), parallel.Layout{PP: 4}, "AllReduce", true),
	)
	d.got, d.records = rs.results(cfg)
	return d
}

// layoutName renders a cell's layout for tables ("dp" for the trivial
// layout, the declared factors otherwise).
func layoutName(l parallel.Layout) string {
	if l.Trivial() {
		return "dp"
	}
	return l.String()
}

func renderParallelismDense(d *parallelismData) *metrics.Table {
	tab := metrics.NewTable(
		fmt.Sprintf("3D parallelism at global batch %d: %d workers, 8 racks, rack-tier CCI pool",
			parallelismGlobalBatch, parallelismWorkers),
		"layout", "strategy", "batch/worker", "iter time", "compute", "blocked", "gpu util")
	for _, c := range d.dense {
		r := d.result(c)
		if r == nil {
			continue
		}
		tab.AddRow(layoutName(c.Layout), c.Strategy, parallelismBatch(c.Layout),
			metrics.Ms(r.Train.IterTime),
			metrics.Ms(r.Train.ComputeTime),
			metrics.Ms(r.Train.BlockedComm),
			metrics.Pct(r.Train.GPUUtil))
	}
	return tab
}

func renderParallelismMoE(d *parallelismData) *metrics.Table {
	tab := metrics.NewTable(
		fmt.Sprintf("Expert parallelism (MoE, AllReduce) at global batch %d: seeded top-2 routing over 8 experts",
			parallelismGlobalBatch),
		"layout", "iter time", "gpu util", "routed", "spine util")
	for _, c := range d.moe {
		r := d.result(c)
		if r == nil {
			continue
		}
		routed := "-"
		if v, ok := r.Extra["ep_routed"]; ok {
			routed = v
		}
		tab.AddRow(layoutName(c.Layout),
			metrics.Ms(r.Train.IterTime),
			metrics.Pct(r.Train.GPUUtil),
			routed,
			metrics.Pct(tierUtil(r, "spine")))
	}
	return tab
}

func renderParallelismPlannerPair(d *parallelismData) *metrics.Table {
	tab := metrics.NewTable(
		"Collective planner vs forced flat ring (AllReduce, pp4): topology-aware trees vs topology-blind baseline",
		"collectives", "iter time", "blocked", "slowdown")
	var base *runner.Result
	for _, c := range d.planner {
		r := d.result(c)
		if r == nil {
			continue
		}
		name := "planned"
		if c.Flat {
			name = "flat ring"
		}
		speed := "-"
		if c.Flat && base != nil {
			speed = metrics.Speedup(r.Train.IterTime.ToSeconds() / base.Train.IterTime.ToSeconds())
		} else if !c.Flat {
			base = r
			speed = metrics.Speedup(1)
		}
		tab.AddRow(name, metrics.Ms(r.Train.IterTime), metrics.Ms(r.Train.BlockedComm), speed)
	}
	return tab
}

// parallelismTopo is the analytic placement oracle of the generated
// machine: worker w sits on node w/4 and rack w/16.
func parallelismTopo() parallel.CommTopo {
	return parallel.CommTopo{
		Node:     func(w int) int { return w / parallelismGPN },
		Rack:     func(w int) int { return w / (parallelismGPN * parallelismNPR) },
		RackDevs: true,
	}
}

// renderParallelismPlan is the planner decision table: for every
// layout in the sweeps, the communicator classes its plan creates,
// their sizes, and the algorithm the planner picks. Closed-form — no
// simulation — so it doubles as readable documentation of the
// planner's policy.
func renderParallelismPlan() *metrics.Table {
	tab := metrics.NewTable(
		fmt.Sprintf("Planner decisions on the %d-worker machine (ring within node, hier within rack or without rack devices, offload across racks)",
			parallelismWorkers),
		"layout", "communicator", "members", "algorithm")
	topo := parallelismTopo()
	row := func(l parallel.Layout, m *model.Model) {
		p, err := parallel.NewPlan(l, parallelismWorkers, m)
		if err != nil {
			tab.AddRow(layoutName(l), "error", 0, err.Error())
			return
		}
		// One representative per class: the first gradient tree that
		// reduces layers, worker 0's TP and EP groups.
		for gid := range p.Groups() {
			if len(p.GroupLayers(gid)) == 0 {
				continue
			}
			members := p.GroupMembers(gid)
			tab.AddRow(layoutName(l), "grad tree", len(members),
				parallel.Choose(members, topo).String())
			break
		}
		if p.TP > 1 {
			g := p.TPGroup(0)
			tab.AddRow(layoutName(l), "tp group", len(g), parallel.Choose(g, topo).String())
		}
		if p.EP > 1 {
			g := p.EPGroup(0)
			tab.AddRow(layoutName(l), "ep group", len(g), parallel.Choose(g, topo).String())
		}
	}
	for _, l := range parallelismDenseLayouts {
		row(l, parallelismDenseModel())
	}
	for _, l := range parallelismMoELayouts {
		if !l.Trivial() {
			row(l, parallelismMoEModel())
		}
	}
	return tab
}

// Parallelism is the 3D-parallelism + MoE experiment family.
func Parallelism() Experiment {
	return Experiment{
		ID:    "parallelism",
		Title: "3D parallelism + MoE: layouts at fixed global batch with the topology-aware collective planner",
		Paper: "Beyond the paper's data-parallel designs: pipeline/tensor/expert layouts over the same CCI fabric, with gradient trees planned per communicator (ring/hierarchical/COARSE offload) and a flat-ring baseline isolating the planner's contribution",
		Run: func(cfg Config) *Report {
			d := parallelismRun(cfg)
			rep := &Report{Records: d.records}
			rep.add(renderParallelismDense(d), renderParallelismMoE(d),
				renderParallelismPlannerPair(d), renderParallelismPlan())
			return rep
		},
	}
}
