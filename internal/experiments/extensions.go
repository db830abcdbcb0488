package experiments

import (
	"fmt"

	"coarse/internal/core"
	"coarse/internal/metrics"
	"coarse/internal/runner"
	"coarse/internal/sim"
	"coarse/internal/topology"
	"coarse/internal/train"
)

// ExtStraggler quantifies the straggler sensitivity the paper motivates
// COARSE with (Section II-B: synchronous communication "forces the
// faster workers to wait for the slower ones"): per-worker compute skew
// is swept and each strategy's iteration time and blocked time
// reported.
func ExtStraggler() Experiment {
	return Experiment{
		ID:    "ext-straggler",
		Title: "Extension: straggler sensitivity",
		Paper: "Section II-B motivation: synchronous schemes block fast workers on slow ones",
		Run: func(cfg Config) *Report {
			rs := &runSet{}
			type cell struct {
				jitter float64
				strat  string
				id     string
			}
			var cells []cell
			for _, jitter := range []float64{0, 0.15, 0.30} {
				for _, strat := range []string{"AllReduce", "COARSE"} {
					id := rs.add(runner.Spec{
						ID:          fmt.Sprintf("ext-straggler/j%.2f/%s", jitter, strat),
						Topology:    topology.AWSV100(),
						Model:       evalModel("bert-base"),
						Batch:       2,
						Iterations:  cfg.iterations(),
						NewStrategy: func() train.Strategy { return newStrategy(strat) },
						Configure:   func(c *train.Config) { c.ComputeJitter = jitter },
					})
					cells = append(cells, cell{jitter, strat, id})
				}
			}
			got, records := rs.results(cfg)
			tab := metrics.NewTable("Extension: compute jitter on AWS V100, BERT batch 2",
				"jitter", "strategy", "iter time", "blocked/iter")
			for _, c := range cells {
				res := got[c.id]
				if !res.OK() {
					tab.AddRow(metrics.Pct(c.jitter), c.strat, "ERR", res.Err)
					continue
				}
				tab.AddRow(metrics.Pct(c.jitter), c.strat, metrics.Ms(res.Train.IterTime), metrics.Ms(res.Train.BlockedComm))
			}
			return &Report{Tables: []*metrics.Table{tab}, Records: records}
		},
	}
}

// ExtNVLink runs the evaluation's V100 BERT panel with the NVLink mesh
// enabled — beyond the paper's setup, where the profiler disables
// NVLink. It shows how much of COARSE's advantage is specific to
// PCIe-class fabrics.
func ExtNVLink() Experiment {
	return Experiment{
		ID:    "ext-nvlink",
		Title: "Extension: NVLink-enabled AllReduce baseline",
		Paper: "beyond the paper: COARSE's win presumes PCIe-class worker interconnect",
		Run: func(cfg Config) *Report {
			rs := &runSet{}
			type cell struct {
				spec  topology.Spec
				strat string
				id    string
			}
			var cells []cell
			for _, spec := range []topology.Spec{topology.AWSV100(), topology.AWSV100NVLink()} {
				for _, strat := range []string{"AllReduce", "COARSE"} {
					cells = append(cells, cell{spec, strat,
						rs.add(stdSpec(cfg, spec, evalModel("bert-base"), 2, strat))})
				}
			}
			got, records := rs.results(cfg)
			tab := metrics.NewTable("Extension: V100 BERT batch 2, PCIe vs NVLink mesh",
				"machine", "strategy", "iter time", "blocked/iter")
			for _, c := range cells {
				res := got[c.id]
				if !res.OK() {
					tab.AddRow(c.spec.Label, c.strat, "ERR", res.Err)
					continue
				}
				tab.AddRow(c.spec.Label, c.strat, metrics.Ms(res.Train.IterTime), metrics.Ms(res.Train.BlockedComm))
			}
			return &Report{Tables: []*metrics.Table{tab}, Records: records}
		},
	}
}

// ExtHierarchical compares the flat ring AllReduce against a two-level
// hierarchical collective on the two-node machine, with COARSE for
// reference: the hierarchical baseline narrows but does not close the
// gap to COARSE's larger-batch training.
func ExtHierarchical() Experiment {
	return Experiment{
		ID:    "ext-hierarchical",
		Title: "Extension: hierarchical AllReduce on two nodes",
		Paper: "beyond the paper: a stronger multi-node baseline vs COARSE batch 4",
		Run: func(cfg Config) *Report {
			bert := evalModel("bert-large")
			spec := topology.MultiNodeV100(2)
			runs := []struct {
				label string
				batch int
				build func() train.Strategy
			}{
				{"AllReduce (flat ring)", 2, func() train.Strategy { return newStrategy("AllReduce") }},
				{"AllReduce (hierarchical)", 2, func() train.Strategy {
					a := newStrategy("AllReduce").(*train.AllReduce)
					a.Hierarchical = true
					return a
				}},
				{"COARSE", 4, func() train.Strategy { return newStrategy("COARSE") }},
			}
			rs := &runSet{}
			var ids []string
			for _, r := range runs {
				ids = append(ids, rs.add(runner.Spec{
					ID:          "ext-hierarchical/" + r.label + fmt.Sprintf("/b%d", r.batch),
					Topology:    spec,
					Model:       bert,
					Batch:       r.batch,
					Iterations:  cfg.iterations(),
					NewStrategy: r.build,
				}))
			}
			got, records := rs.results(cfg)
			tab := metrics.NewTable("Extension: 2-node BERT-Large, flat vs hierarchical AllReduce vs COARSE",
				"strategy", "batch", "iter time", "throughput")
			for i, r := range runs {
				res := got[ids[i]]
				if !res.OK() {
					tab.AddRow(r.label, r.batch, "ERR", res.Err)
					continue
				}
				tab.AddRow(r.label, r.batch, metrics.Ms(res.Train.IterTime), throughputCell(res))
			}
			return &Report{Tables: []*metrics.Table{tab}, Records: records}
		},
	}
}

// ExtSensitivity sweeps the anti-locality ratio — the remote (uplink)
// path's bandwidth relative to the local (switch-peer) path — on a
// V100-like machine and reports COARSE's blocked time against
// AllReduce's. The paper's claim is that routing exploits non-uniform
// bandwidth; the sweep shows where that advantage turns on.
func ExtSensitivity() Experiment {
	return Experiment{
		ID:    "ext-sensitivity",
		Title: "Extension: non-uniform bandwidth sensitivity",
		Paper: "beyond the paper: COARSE vs AllReduce as remote/local bandwidth ratio varies",
		Run: func(cfg Config) *Report {
			rs := &runSet{}
			uplinks := []float64{6, 8, 11, 14, 17}
			strats := []string{"AllReduce", "COARSE"}
			ids := make(map[float64][2]string)
			for _, upGB := range uplinks {
				spec := topology.AWSV100()
				spec.UpBW = upGB * topology.GB
				spec.Label = fmt.Sprintf("V100 up=%g", upGB)
				var pair [2]string
				for i, strat := range strats {
					pair[i] = rs.add(runner.Spec{
						ID:          fmt.Sprintf("ext-sensitivity/up%g/%s", upGB, strat),
						Topology:    spec,
						Model:       evalModel("bert-base"),
						Batch:       2,
						Iterations:  cfg.iterations(),
						NewStrategy: func() train.Strategy { return newStrategy(strat) },
					})
				}
				ids[upGB] = pair
			}
			got, records := rs.results(cfg)
			tab := metrics.NewTable("Extension: BERT batch 2 vs uplink bandwidth (local peer fixed at 8 GB/s)",
				"uplink", "ratio", "AllReduce blocked", "COARSE blocked", "COARSE vs AllReduce")
			for _, upGB := range uplinks {
				var blocked [2]float64
				failed := false
				for i := range strats {
					res := got[ids[upGB][i]]
					if !res.OK() {
						tab.AddRow(fmt.Sprintf("%g GB/s", upGB), "-", "ERR", res.Err, "-")
						failed = true
						break
					}
					blocked[i] = res.Train.BlockedComm.ToSeconds()
				}
				if failed {
					continue
				}
				tab.AddRow(fmt.Sprintf("%g GB/s", upGB),
					fmt.Sprintf("%.2f", upGB/8),
					metrics.Ms(sim.Seconds(blocked[0])), metrics.Ms(sim.Seconds(blocked[1])),
					metrics.Pct(blocked[1]/blocked[0]-1))
			}
			return &Report{Tables: []*metrics.Table{tab}, Records: records}
		},
	}
}

// ExtDynamic demonstrates dynamic profiling end to end (Section III-E):
// mid-run, the machine's switch uplinks degrade from 11 to 3 GB/s —
// anti-locality flips to locality — and COARSE with periodic
// re-profiling re-routes onto the now-better local proxies while the
// static configuration stays on the degraded remote paths.
func ExtDynamic() Experiment {
	return Experiment{
		ID:    "ext-dynamic",
		Title: "Extension: dynamic re-profiling under link degradation",
		Paper: "Section III-E dynamic profiling: periodic re-profiles adapt routing to changed bandwidth",
		Run: func(cfg Config) *Report {
			rs := &runSet{}
			const iters = 8
			everies := []int{0, 2}
			var ids []string
			for _, every := range everies {
				ids = append(ids, rs.add(runner.Spec{
					ID:         fmt.Sprintf("ext-dynamic/reprofile%d", every),
					Topology:   topology.AWSV100(),
					Model:      evalModel("bert-base"),
					Batch:      2,
					Iterations: iters,
					NewStrategy: func() train.Strategy {
						opts := core.DefaultOptions()
						opts.ReprofileEvery = every
						return core.New(opts)
					},
					Configure: func(c *train.Config) {
						c.OnStart = degradeUplinksAfter(sim.Seconds(0.2))
					},
				}))
			}
			got, records := rs.results(cfg)
			tab := metrics.NewTable(
				"Extension: V100 BERT batch 2; uplinks degrade 11->3 GB/s mid-run",
				"re-profiling", "iter time (mean)", "blocked/iter")
			for i, every := range everies {
				res := got[ids[i]]
				if !res.OK() {
					tab.AddRow(fmt.Sprint(every), "ERR", res.Err)
					continue
				}
				label := "off"
				if every > 0 {
					label = fmt.Sprintf("every %d iterations", every)
				}
				tab.AddRow(label, metrics.Ms(res.Train.IterTime), metrics.Ms(res.Train.BlockedComm))
			}
			return &Report{Tables: []*metrics.Table{tab}, Records: records}
		},
	}
}

// degradeUplinksAfter schedules a mid-run degradation of every switch
// uplink to 3 GB/s.
func degradeUplinksAfter(at sim.Time) func(*train.Ctx) {
	return func(ctx *train.Ctx) {
		ctx.Eng.Schedule(at, func() {
			for _, l := range ctx.Machine.LinksBetween(topology.KindSwitchUp, topology.KindHostBridge) {
				ctx.Machine.SetLinkCapacity(l, 3*topology.GB, 3*topology.GB)
			}
		})
	}
}
