package experiments

import (
	"fmt"

	"coarse/internal/cci"
	"coarse/internal/core"
	"coarse/internal/metrics"
	"coarse/internal/model"
	"coarse/internal/runner"
	"coarse/internal/topology"
	"coarse/internal/train"
)

// throughputCell formats a throughput table cell.
func throughputCell(res *runner.Result) string {
	return fmt.Sprintf("%.1f samples/s", res.Train.Throughput())
}

// Fig16 reproduces the training-speedup panels: (a-d) speedup over
// DENSE per machine and model, (e) single-node BERT-Large batch scaling
// against AllReduce, (f) two-node training.
func Fig16() Experiment {
	return Experiment{
		ID:    "fig16",
		Title: "Figure 16: DL training speedup",
		Paper: "COARSE 3.3-4.3x (ResNet) / 10.8-13.8x (BERT) over DENSE; 48.3% over AllReduce at batch 4; 42.7% multi-node",
		Run: func(cfg Config) *Report {
			rs := &runSet{}
			// Panels a-d: speedup normalized to DENSE, plus the paper's
			// additional 2:1 configuration (each memory device shared by
			// two workers).
			type panelIDs struct {
				p      panel
				m      *model.Model
				strats []string
				twoOne string
			}
			var panels []panelIDs
			for _, p := range singleNodePanels() {
				m := evalModel(p.model)
				ids := panelIDs{p: p, m: m}
				for _, strat := range strategyNames {
					ids.strats = append(ids.strats, rs.add(stdSpec(cfg, p.spec, m, p.batch, strat)))
				}
				ids.twoOne = rs.add(stdSpec(cfg, topology.TwoToOne(p.spec), m, p.batch, "COARSE"))
				panels = append(panels, ids)
			}
			efPanels := fig16efPanels(cfg, rs)

			got, records := rs.results(cfg)
			rep := &Report{Records: records}
			for _, ids := range panels {
				tab := metrics.NewTable(
					fmt.Sprintf("Figure 16%s: %s %s batch %d (speedup vs DENSE)", ids.p.id, ids.p.spec.Label, ids.m.Name, ids.p.batch),
					"strategy", "iter time", "throughput", "speedup")
				var denseIter float64
				for i, strat := range strategyNames {
					res := got[ids.strats[i]]
					if !res.OK() {
						status, detail := failCells(res, "OOM")
						tab.AddRow(strat, status, detail, "-")
						continue
					}
					if strat == "DENSE" {
						denseIter = res.Train.IterTime.ToSeconds()
					}
					tab.AddRow(strat, metrics.Ms(res.Train.IterTime), throughputCell(res),
						metrics.Speedup(denseIter/res.Train.IterTime.ToSeconds()))
				}
				if res := got[ids.twoOne]; res.OK() {
					tab.AddRow("COARSE 2:1", metrics.Ms(res.Train.IterTime), throughputCell(res),
						metrics.Speedup(denseIter/res.Train.IterTime.ToSeconds()))
				}
				rep.add(tab)
			}
			rep.add(renderFig16ef(efPanels, got)...)
			return rep
		},
	}
}

// efRow is one row of the BERT-Large batch-scaling panels.
type efRow struct {
	spec  topology.Spec
	strat string
	batch int
	id    string
}

type efPanel struct {
	title string
	rows  []efRow
	base  int // index of the normalization row
}

// fig16efPanels registers the BERT-Large batch-scaling runs. DENSE is
// not a baseline here ("DENSE does not assume a multi-node system");
// speedups normalize to AllReduce at its feasible batch.
func fig16efPanels(cfg Config, rs *runSet) []efPanel {
	bert := evalModel("bert-large")
	panels := []efPanel{
		{
			title: "Figure 16e: single-node BERT-Large (vs AllReduce b2)",
			rows: []efRow{
				{spec: topology.AWSV100(), strat: "AllReduce", batch: 2},
				{spec: topology.AWSV100(), strat: "AllReduce", batch: 4},
				{spec: topology.AWSV100(), strat: "COARSE", batch: 2},
				{spec: topology.AWSV100(), strat: "COARSE", batch: 4},
			},
		},
		{
			title: "Figure 16f: two-node BERT-Large (vs 2-node AllReduce b2)",
			rows: []efRow{
				{spec: topology.MultiNodeV100(2), strat: "AllReduce", batch: 2},
				{spec: topology.MultiNodeV100(2), strat: "AllReduce", batch: 4},
				{spec: topology.MultiNodeV100(2), strat: "COARSE", batch: 4},
				{spec: topology.AWSV100(), strat: "COARSE", batch: 4}, // single-node comparison row
			},
		},
	}
	for pi := range panels {
		for ri := range panels[pi].rows {
			r := &panels[pi].rows[ri]
			r.id = rs.add(stdSpec(cfg, r.spec, bert, r.batch, r.strat))
		}
	}
	return panels
}

// failCells fills the two cells after a failed run's labels: oom and
// "-" when the configuration does not fit device memory, which is a
// result, and ERR with the error for any other failure.
func failCells(res *runner.Result, oom string) (status, detail string) {
	if res.OOM {
		return oom, "-"
	}
	return "ERR", res.Err
}

// renderFig16ef renders the registered batch-scaling panels.
func renderFig16ef(panels []efPanel, got map[string]*runner.Result) []*metrics.Table {
	var tables []*metrics.Table
	for _, p := range panels {
		tab := metrics.NewTable(p.title,
			"machine", "strategy", "batch", "iter time", "throughput", "vs baseline")
		var base float64
		for i, r := range p.rows {
			res := got[r.id]
			if !res.OK() {
				status, detail := failCells(res, "OOM (replica does not fit)")
				tab.AddRow(r.spec.Label, r.strat, r.batch, status, detail, "-")
				continue
			}
			if i == p.base {
				base = res.Train.Throughput()
			}
			tab.AddRow(r.spec.Label, r.strat, r.batch, metrics.Ms(res.Train.IterTime),
				throughputCell(res), metrics.Pct(res.Train.Throughput()/base-1))
		}
		tables = append(tables, tab)
	}
	return tables
}

// Fig17 reproduces the blocked-communication-time breakdown: panels a-d
// normalized to DENSE's blocked time, panels e-f normalized to
// AllReduce's. Its runs share cache keys with Figure 16, so rendering
// both figures costs one set of simulations.
func Fig17() Experiment {
	return Experiment{
		ID:    "fig17",
		Title: "Figure 17: blocked communication time",
		Paper: "AllReduce and COARSE block <10% of DENSE; COARSE 20-42% below AllReduce on V100/P100 BERT, 18-20% above on T4",
		Run: func(cfg Config) *Report {
			rs := &runSet{}
			type panelIDs struct {
				p      panel
				m      *model.Model
				strats []string
			}
			var panels []panelIDs
			for _, p := range singleNodePanels() {
				m := evalModel(p.model)
				ids := panelIDs{p: p, m: m}
				for _, strat := range strategyNames {
					ids.strats = append(ids.strats, rs.add(stdSpec(cfg, p.spec, m, p.batch, strat)))
				}
				panels = append(panels, ids)
			}
			// Panels e-f: BERT-Large, normalized to AllReduce.
			bert := evalModel("bert-large")
			type efIDs struct {
				spec   topology.Spec
				ar     string
				coarse []string // per batch 2, 4
			}
			var efs []efIDs
			for _, spec := range []topology.Spec{topology.AWSV100(), topology.MultiNodeV100(2)} {
				ids := efIDs{spec: spec, ar: rs.add(stdSpec(cfg, spec, bert, 2, "AllReduce"))}
				for _, batch := range []int{2, 4} {
					ids.coarse = append(ids.coarse, rs.add(stdSpec(cfg, spec, bert, batch, "COARSE")))
				}
				efs = append(efs, ids)
			}

			got, records := rs.results(cfg)
			rep := &Report{Records: records}
			for _, ids := range panels {
				tab := metrics.NewTable(
					fmt.Sprintf("Figure 17%s: %s %s blocked communication (normalized to DENSE)", ids.p.id, ids.p.spec.Label, ids.m.Name),
					"strategy", "blocked/iter", "normalized", "GPU util")
				var dense float64
				for i, strat := range strategyNames {
					res := got[ids.strats[i]]
					if !res.OK() {
						status, detail := failCells(res, "OOM")
						tab.AddRow(strat, status, detail, "-")
						continue
					}
					if strat == "DENSE" {
						dense = res.Train.BlockedComm.ToSeconds()
					}
					tab.AddRow(strat, metrics.Ms(res.Train.BlockedComm),
						metrics.Pct(res.Train.BlockedComm.ToSeconds()/dense),
						metrics.Pct(res.Train.GPUUtil))
				}
				rep.add(tab)
			}
			for _, ids := range efs {
				ar := got[ids.ar]
				if !ar.OK() {
					continue
				}
				tab := metrics.NewTable(
					fmt.Sprintf("Figure 17e/f: %s BERT-Large blocked communication (normalized to AllReduce)", ids.spec.Label),
					"strategy", "batch", "blocked/iter", "normalized")
				tab.AddRow("AllReduce", 2, metrics.Ms(ar.Train.BlockedComm), metrics.Pct(1))
				for i, batch := range []int{2, 4} {
					res := got[ids.coarse[i]]
					if !res.OK() {
						status, detail := failCells(res, "OOM")
						tab.AddRow("COARSE", batch, status, detail)
						continue
					}
					tab.AddRow("COARSE", batch, metrics.Ms(res.Train.BlockedComm),
						metrics.Pct(res.Train.BlockedComm.ToSeconds()/ar.Train.BlockedComm.ToSeconds()))
				}
				rep.add(tab)
			}
			return rep
		},
	}
}

// Fig10 demonstrates the FCFS synchronization deadlock and its
// queue-based avoidance on the 2:1 shared-proxy machine.
func Fig10() Experiment {
	return Experiment{
		ID:    "fig10",
		Title: "Figure 10: FCFS deadlock vs queue-based synchronization",
		Paper: "FCFS deadlocks when a proxy is shared; per-client queues avoid it",
		Run: func(cfg Config) *Report {
			rs := &runSet{}
			m := model.MLP("crossed", 1024, 1024, 1024, 1024)
			type row struct{ name, id string }
			var rows []row
			for _, sched := range []core.Scheduler{core.FCFS, core.QueueBased} {
				name := "queue-based"
				if sched == core.FCFS {
					name = "FCFS"
				}
				rows = append(rows, row{name, rs.add(runner.Spec{
					ID:         "fig10/" + name,
					Topology:   topology.AWSV100TwoToOne(),
					Model:      m,
					Batch:      2,
					Iterations: 2,
					NewStrategy: func() train.Strategy {
						opts := core.DefaultOptions()
						opts.Scheduler = sched
						opts.ReprofileEvery = 0
						opts.MFraction = 1.0 // everything through the proxies
						return core.New(opts)
					},
				})})
			}
			got, records := rs.results(cfg)
			tab := metrics.NewTable("Figure 10: proxy scheduling on the 2:1 machine",
				"scheduler", "outcome", "iterations done")
			for _, r := range rows {
				res := got[r.id]
				if !res.OK() {
					tab.AddRow(r.name, "DEADLOCK: "+res.Err, 0)
					continue
				}
				tab.AddRow(r.name, "completed in "+metrics.Ms(res.Train.TotalTime), res.Train.Iterations)
			}
			return &Report{Tables: []*metrics.Table{tab}, Records: records}
		},
	}
}

// coarseVariantSpec builds an uncached runner spec for a COARSE run
// with custom options (ablations bypass the shared cache since options
// differ); probe pulls strategy counters into the result.
func coarseVariantSpec(cfg Config, id string, spec topology.Spec, m *model.Model, batch int, opts core.Options, probe func(*core.Strategy, *runner.Result)) runner.Spec {
	return runner.Spec{
		ID:          id,
		Topology:    spec,
		Model:       m,
		Batch:       batch,
		Iterations:  cfg.iterations(),
		NewStrategy: func() train.Strategy { return core.New(opts) },
		Probe: func(p *runner.Probe) {
			if probe != nil {
				probe(p.Strategy.(*core.Strategy), p.Result)
			}
		},
	}
}

// AblationRouting compares bandwidth-aware routing against always-local
// routing on the anti-local machine.
func AblationRouting() Experiment {
	return Experiment{
		ID:    "ablation-routing",
		Title: "Ablation: tensor routing",
		Paper: "routing exploits anti-locality; disabling it forfeits the remote-bandwidth win",
		Run: func(cfg Config) *Report {
			rs := &runSet{}
			var ids []string
			routings := []bool{true, false}
			for _, routing := range routings {
				opts := core.DefaultOptions()
				opts.Routing = routing
				// Proxy everything so the routed path carries the full
				// synchronization load and the mechanism's effect is
				// visible in isolation.
				opts.MFraction = 1.0
				ids = append(ids, rs.add(coarseVariantSpec(cfg,
					fmt.Sprintf("ablation-routing/%v", routing),
					topology.AWSV100(), evalModel("bert-base"), 2, opts,
					func(s *core.Strategy, res *runner.Result) {
						res.SetExtra("pushed_to_bw", byteSize(s.PushedToBw))
					})))
			}
			got, records := rs.results(cfg)
			tab := metrics.NewTable("Ablation: routing on AWS V100, BERT batch 2 (all tensors proxied)",
				"routing", "iter time", "blocked/iter", "bytes to remote proxies")
			for i, routing := range routings {
				res := got[ids[i]]
				if !res.OK() {
					tab.AddRow(fmt.Sprint(routing), "ERR", res.Err, "-")
					continue
				}
				tab.AddRow(fmt.Sprint(routing), metrics.Ms(res.Train.IterTime),
					metrics.Ms(res.Train.BlockedComm), res.Extra["pushed_to_bw"])
			}
			return &Report{Tables: []*metrics.Table{tab}, Records: records}
		},
	}
}

// AblationPartitioning compares shard partitioning against whole-tensor
// pushes.
func AblationPartitioning() Experiment {
	return Experiment{
		ID:    "ablation-partition",
		Title: "Ablation: tensor partitioning",
		Paper: "partitioning pipelines push/pull and keeps both bus directions busy",
		Run: func(cfg Config) *Report {
			rs := &runSet{}
			var ids []string
			parts := []bool{true, false}
			for _, part := range parts {
				opts := core.DefaultOptions()
				opts.Partitioning = part
				opts.MFraction = 1.0
				ids = append(ids, rs.add(coarseVariantSpec(cfg,
					fmt.Sprintf("ablation-partition/%v", part),
					topology.AWSV100(), evalModel("bert-base"), 2, opts, nil)))
			}
			got, records := rs.results(cfg)
			tab := metrics.NewTable("Ablation: partitioning on AWS V100, BERT batch 2 (all tensors proxied)",
				"partitioning", "iter time", "blocked/iter")
			for i, part := range parts {
				res := got[ids[i]]
				if !res.OK() {
					tab.AddRow(fmt.Sprint(part), "ERR", res.Err)
					continue
				}
				tab.AddRow(fmt.Sprint(part), metrics.Ms(res.Train.IterTime), metrics.Ms(res.Train.BlockedComm))
			}
			return &Report{Tables: []*metrics.Table{tab}, Records: records}
		},
	}
}

// AblationDualSync sweeps the dual-synchronization split m.
func AblationDualSync() Experiment {
	return Experiment{
		ID:    "ablation-dual",
		Title: "Ablation: dual synchronization split",
		Paper: "Equation (1): balancing GPU and proxy paths beats either extreme",
		Run: func(cfg Config) *Report {
			rs := &runSet{}
			var ids []string
			fractions := []float64{-1, 0, 0.25, 0.5, 0.75, 1.0}
			for _, mf := range fractions {
				opts := core.DefaultOptions()
				opts.MFraction = mf
				ids = append(ids, rs.add(coarseVariantSpec(cfg,
					fmt.Sprintf("ablation-dual/%g", mf),
					topology.AWSV100(), evalModel("bert-base"), 2, opts,
					func(s *core.Strategy, res *runner.Result) {
						res.SetExtra("m_bytes", byteSize(s.MBytes()))
					})))
			}
			got, records := rs.results(cfg)
			tab := metrics.NewTable("Ablation: dual-sync split on AWS V100, BERT batch 2",
				"m fraction", "m", "iter time", "blocked/iter")
			for i, mf := range fractions {
				res := got[ids[i]]
				if !res.OK() {
					tab.AddRow(fmt.Sprint(mf), "-", "ERR", res.Err)
					continue
				}
				label := fmt.Sprintf("%.2f", mf)
				if mf < 0 {
					label = "auto (planner)"
				}
				tab.AddRow(label, res.Extra["m_bytes"], metrics.Ms(res.Train.IterTime), metrics.Ms(res.Train.BlockedComm))
			}
			return &Report{Tables: []*metrics.Table{tab}, Records: records}
		},
	}
}

// AblationSharing shows DENSE's coherence penalty growing with sharers
// — the scalability argument for decentralization (Section III-D).
func AblationSharing() Experiment {
	return Experiment{
		ID:    "ablation-sharing",
		Title: "Ablation: DENSE coherence sharing penalty",
		Paper: "coherence traffic grows with sharers, shrinking payload bandwidth",
		Run: func(cfg Config) *Report {
			tab := metrics.NewTable("Ablation: DENSE port bandwidth vs sharers",
				"sharers", "effective read bw", "effective write bw")
			cciP := cci.DefaultParams()
			type row struct{ read, write float64 }
			rows := runner.Map(cfg.Parallel, 8, func(i int) row {
				sharers := i + 1
				return row{
					read:  cciP.SharingPenalty(cciP.LoadStoreBandwidth(false), sharers),
					write: cciP.SharingPenalty(cciP.LoadStoreBandwidth(true), sharers),
				}
			})
			for i, r := range rows {
				tab.AddRow(i+1, metrics.GBps(r.read), metrics.GBps(r.write))
			}
			return &Report{Tables: []*metrics.Table{tab}}
		},
	}
}
