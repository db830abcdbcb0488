package experiments

import (
	"fmt"

	"coarse/internal/chaos"
	"coarse/internal/metrics"
	"coarse/internal/runner"
	"coarse/internal/sim"
	"coarse/internal/topology"
)

// The resilience family quantifies the paper's Section II-B fragility
// argument from the other side: instead of showing that synchronous
// data-parallel training is hostage to its slowest participant, it
// injects transient faults (internal/chaos) and measures how much each
// synchronization design's completion time inflates. COARSE's
// queue-based decentralized synchronization should degrade gracefully
// — a silent worker only defers its own pulls while the sync cores
// keep draining everyone else's shards — whereas DENSE's single shared
// CCI port serializes every worker behind the faulted one.

// resilienceStrategies in presentation order: the centralized/
// synchronous baselines first, COARSE last.
var resilienceStrategies = []string{"DENSE", "CentralPS", "AllReduce", "COARSE"}

// resilienceDuties are the injected stall duty cycles: the fraction of
// each iteration period the faulted worker spends silent. The sweep
// starts at 15%: below roughly 10% the single-port FIFO's queueing
// amplification has not kicked in yet and every design degrades by
// about the raw duty.
var resilienceDuties = []float64{0.15, 0.25, 0.35}

// resilienceMixedDuty is the duty cycle of the mixed link/CCI fault
// table.
const resilienceMixedDuty = 0.20

// resilienceStallFaults builds a worker-stall plan scaled to one
// strategy's own fault-free iteration period. Scaling per strategy is
// what makes intensities comparable: an absolute window that silences
// a COARSE worker for a whole 80 ms iteration would be invisible
// inside one 4 s DENSE iteration. The window repeats every period far
// past the fault-free run length so inflation cannot push the run out
// of the faulted region.
func resilienceStallFaults(period sim.Time, duty float64, iters int) []chaos.Fault {
	return []chaos.Fault{{
		Kind:     chaos.WorkerStall,
		Start:    period / 4,
		Duration: sim.Time(duty * float64(period)),
		Period:   period,
		Repeat:   8 * (iters + 1),
		Target:   1,
	}}
}

// resilienceMixedFaults adds bandwidth faults on top of the same
// per-period scaling: a worker edge link flapping to 35% capacity and
// a memory device's CCI port browning out to 50% protocol efficiency,
// staggered within each period.
func resilienceMixedFaults(period sim.Time, duty float64, iters int) []chaos.Fault {
	dur := sim.Time(duty * float64(period))
	n := 8 * (iters + 1)
	return []chaos.Fault{
		{Kind: chaos.LinkDegrade, Start: period / 4, Duration: dur, Period: period, Repeat: n, Target: 1, Factor: 0.35},
		{Kind: chaos.CCIBrownout, Start: period / 2, Duration: dur, Period: period, Repeat: n, Target: 0, Factor: 0.5},
	}
}

// resilienceOutcome is one faulted run compared against its fault-free
// baseline; the determinism tests assert on these, the experiment
// renders them.
type resilienceOutcome struct {
	Strategy string
	Duty     float64
	Base     *runner.Result
	Faulted  *runner.Result
}

// Inflation is the completion-time ratio faulted/baseline (>= 1 in
// practice; exactly the Section II-B cost of the injected faults).
func (o resilienceOutcome) Inflation() float64 {
	return o.Faulted.Train.TotalTime.ToSeconds() / o.Base.Train.TotalTime.ToSeconds()
}

// StallFraction is the chaos-attributed stall (compute paused plus
// synchronization deferred, summed over workers) normalized by total
// worker-time of the faulted run.
func (o resilienceOutcome) StallFraction() float64 {
	t := o.Faulted.Train
	return t.ChaosStall.ToSeconds() / (t.TotalTime.ToSeconds() * float64(t.Workers))
}

// resilienceData runs both phases: fault-free baselines (cache keys
// shared with Figures 16/17), then the faulted cells whose plans are
// derived from the measured baselines.
type resilienceData struct {
	stall   []resilienceOutcome
	mixed   []resilienceOutcome
	records []metrics.Result
}

func resilienceRun(cfg Config) *resilienceData {
	spec := topology.AWSV100()
	m := evalModel("bert-base")
	const batch = 2
	iters := cfg.iterations()

	// Phase 1: baselines.
	base := &runSet{}
	baseIDs := make(map[string]string)
	for _, strat := range resilienceStrategies {
		baseIDs[strat] = base.add(stdSpec(cfg, spec, m, batch, strat))
	}
	baseGot, baseRecords := base.results(cfg)

	// Phase 2: faulted cells. Chaos cells carry no cache key: the
	// fault plan is not part of stdSpec's key, and a faulted run must
	// never alias a fault-free cached result.
	faulted := &runSet{}
	type cell struct {
		strat string
		duty  float64
		id    string
	}
	var stallCells, mixedCells []cell
	addFaulted := func(strat string, duty float64, tag string, faults []chaos.Fault) cell {
		s := stdSpec(cfg, spec, m, batch, strat)
		s.ID = fmt.Sprintf("resilience/%s/%s%.0f/i%d", strat, tag, duty*100, iters)
		s.Key = ""
		s.Chaos = &chaos.Spec{Faults: faults}
		return cell{strat: strat, duty: duty, id: faulted.add(s)}
	}
	for _, duty := range resilienceDuties {
		for _, strat := range resilienceStrategies {
			bres := baseGot[baseIDs[strat]]
			if !bres.OK() {
				continue
			}
			period := bres.Train.IterTime
			stallCells = append(stallCells,
				addFaulted(strat, duty, "stall", resilienceStallFaults(period, duty, iters)))
		}
	}
	for _, strat := range resilienceStrategies {
		bres := baseGot[baseIDs[strat]]
		if !bres.OK() {
			continue
		}
		period := bres.Train.IterTime
		mixedCells = append(mixedCells,
			addFaulted(strat, resilienceMixedDuty, "mixed", resilienceMixedFaults(period, resilienceMixedDuty, iters)))
	}
	faultGot, faultRecords := faulted.results(cfg)

	data := &resilienceData{records: append(baseRecords, faultRecords...)}
	collect := func(cells []cell) []resilienceOutcome {
		var out []resilienceOutcome
		for _, c := range cells {
			fres := faultGot[c.id]
			if !fres.OK() {
				continue
			}
			out = append(out, resilienceOutcome{
				Strategy: c.strat,
				Duty:     c.duty,
				Base:     baseGot[baseIDs[c.strat]],
				Faulted:  fres,
			})
		}
		return out
	}
	data.stall = collect(stallCells)
	data.mixed = collect(mixedCells)
	return data
}

// renderResilience renders one fault family's outcome table.
func renderResilience(title string, outs []resilienceOutcome) *metrics.Table {
	tab := metrics.NewTable(title,
		"stall duty", "strategy", "base total", "faulted total", "inflation", "stall frac", "faults")
	for _, o := range outs {
		tab.AddRow(
			metrics.Pct(o.Duty),
			o.Strategy,
			metrics.Ms(o.Base.Train.TotalTime),
			metrics.Ms(o.Faulted.Train.TotalTime),
			metrics.Speedup(o.Inflation()),
			metrics.Pct(o.StallFraction()),
			o.Faulted.Train.ChaosFaults,
		)
	}
	return tab
}

// Resilience is the fault-injection experiment family: completion-time
// inflation and stall fraction versus fault intensity for every
// synchronization design, on the paper's AWS V100 BERT configuration.
func Resilience() Experiment {
	return Experiment{
		ID:    "resilience",
		Title: "Resilience: completion-time inflation under transient faults",
		Paper: "Section II-B motivation inverted: synchronous designs are hostage to one faulted participant; COARSE's decentralized queues inflate strictly less than DENSE's single shared port at every stall intensity",
		Run: func(cfg Config) *Report {
			data := resilienceRun(cfg)
			rep := &Report{Records: data.records}
			rep.add(renderResilience(
				"Resilience: worker-stall faults, duty-scaled per strategy (V100 BERT batch 2)", data.stall))
			rep.add(renderResilience(
				fmt.Sprintf("Resilience: mixed link-flap %d%% + CCI-brownout %d%% faults at %.0f%% duty (V100 BERT batch 2)",
					35, 50, resilienceMixedDuty*100), data.mixed))
			return rep
		},
	}
}
