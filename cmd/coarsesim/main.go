// Command coarsesim runs a single simulation: a training run (one
// machine, one model, one batch size, one or more synchronization
// strategies) or, with -workload serve, an inference-serving run (an
// open-loop request stream through continuous-batching prefill/decode
// pools with local or CCI-pooled KV caches).
//
// Machine, model and strategy names resolve through internal/config,
// the same table the -config JSON reader uses. A -config scenario
// replaces the training flags, so it cannot be combined with them.
//
// Usage:
//
//	coarsesim -machine v100 -model bert-base -batch 2 -iters 4
//	coarsesim -machine sdsc -model resnet50 -batch 64 -strategy COARSE
//	coarsesim -workload serve -rate 28 -requests 144 -kv pooled
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"strings"

	"coarse/internal/chaos"
	"coarse/internal/config"
	"coarse/internal/parallel"
	"coarse/internal/runner"
	"coarse/internal/serve"
	"coarse/internal/sim"
	"coarse/internal/telemetry"
	"coarse/internal/trace"
	"coarse/internal/train"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the command: it parses args, writes the report to stdout and
// diagnostics to stderr, and returns the exit status. Rejected input
// of any kind exits 1 with the reason on stderr; only a configuration
// that does not fit GPU memory is reported as a table row, because
// that OOM is a result (Figure 16e's AllReduce at batch 4).
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("coarsesim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	machine := fs.String("machine", "v100", "machine preset: "+strings.Join(config.MachineNames(), ", "))
	modelName := fs.String("model", "bert-base", "model: "+strings.Join(config.ModelNames(), ", ")+", or mlp:IN,HIDDEN...,OUT")
	batch := fs.Int("batch", 2, "per-GPU batch size")
	iters := fs.Int("iters", 4, "training iterations")
	strategy := fs.String("strategy", "all", strings.Join(config.Strategies(), ", ")+", or all")
	jitter := fs.Float64("jitter", 0, "per-worker compute skew (0.3 = slowest worker 30% slower)")
	traceFile := fs.String("trace", "", "write a Perfetto/chrome://tracing timeline with telemetry counter tracks per strategy, to PATH (minus .json) plus .<strategy>.json")
	telemetryFile := fs.String("telemetry", "", "write the sampled time-series telemetry dump (JSON) to this exact path; single-strategy")
	configFile := fs.String("config", "", "load a JSON training scenario in place of -machine, -model, -batch, -iters, -strategy and -jitter")
	hotPath := fs.Bool("telemetry-hot-path", false, "include the simulator's own hot-path counters (reshare coalescing, event-queue tombstones) in telemetry output; changes dump bytes")
	chaosIntensity := fs.Float64("chaos-intensity", 0, "transient-fault duty cycle in (0,1]; 0 disables the seed-deterministic chaos profile")
	chaosKinds := fs.String("chaos-kinds", "link,cci,stall", "comma-separated fault kinds to inject: link, cci, stall")
	chaosFaults := fs.Int("chaos-faults", 2, "fault windows per kind in the chaos profile")
	chaosHorizon := fs.Float64("chaos-horizon", 1.0, "virtual-time span (seconds) the chaos windows spread over")
	pp := fs.Int("pp", 0, "pipeline-parallel stages (0/1 = off); pp*tp*ep must divide the worker count")
	tp := fs.Int("tp", 0, "tensor-parallel group size (0/1 = off)")
	ep := fs.Int("ep", 0, "expert-parallel group size (0/1 = off; needs an MoE model)")
	micro := fs.Int("micro", 0, "microbatches per pipeline round (0 = one per stage)")
	workload := fs.String("workload", "train", "workload family: train or serve")
	arrival := fs.String("arrival", "poisson", "serve: arrival process (poisson, diurnal, bursty)")
	rate := fs.Float64("rate", 28, "serve: offered load, requests/sec")
	requests := fs.Int("requests", 144, "serve: total request count")
	kvPlacement := fs.String("kv", "pooled", "serve: KV-cache placement (local, pooled)")
	prefetch := fs.Bool("prefetch", false, "serve: prefetch the next decode step's pooled KV pages under compute")
	promptMean := fs.Int("prompt-mean", 0, "serve: mean prompt tokens (0 = default)")
	outputMean := fs.Int("output-mean", 0, "serve: mean output tokens (0 = default)")
	seed := fs.Int64("seed", 1, "serve: trace/chaos seed")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	var chaosSpec *chaos.Spec
	if err := checkChaos(*chaosIntensity, *chaosHorizon, *chaosFaults); err != nil {
		return fail(stderr, err)
	}
	if *chaosIntensity > 0 {
		kinds, err := chaos.ParseKinds(*chaosKinds)
		if err != nil {
			return fail(stderr, err)
		}
		chaosSpec = &chaos.Spec{Profile: &chaos.Profile{
			Intensity:     *chaosIntensity,
			Horizon:       sim.Seconds(*chaosHorizon),
			Kinds:         kinds,
			FaultsPerKind: *chaosFaults,
		}}
	}

	if *workload == "serve" {
		if *configFile != "" {
			return fail(stderr, errors.New("-config is a training scenario; -workload serve takes flags only"))
		}
		spec, err := config.Machine(*machine, 0)
		if err != nil {
			return fail(stderr, err)
		}
		mdl, err := config.Model(*modelName)
		if err != nil {
			return fail(stderr, err)
		}
		if err := checkServe(*requests, *rate, *promptMean, *outputMean); err != nil {
			return fail(stderr, err)
		}
		kind, err := serve.ParseArrival(*arrival)
		if err != nil {
			return fail(stderr, err)
		}
		placement, err := serve.ParseKVPlacement(*kvPlacement)
		if err != nil {
			return fail(stderr, err)
		}
		out := runner.Run(runner.Spec{
			ID:       "serve",
			Topology: spec,
			Model:    mdl,
			Workload: &serve.Workload{
				Arrival:    kind,
				RatePerSec: *rate,
				Requests:   *requests,
				PromptMean: *promptMean,
				OutputMean: *outputMean,
			},
			Seed: *seed,
			ConfigureServe: func(cfg *serve.Config) {
				cfg.KVPlacement = placement
				cfg.Prefetch = *prefetch
				// Spec.Seed 0 means "derive one"; -seed 0 means seed 0.
				cfg.Seed = *seed
			},
			Chaos:     chaosSpec,
			Telemetry: *telemetryFile != "",
		})
		return printServe(out, *telemetryFile, stdout, stderr)
	}
	if *workload != "train" {
		return fail(stderr, fmt.Errorf("unknown workload %q (train, serve)", *workload))
	}

	scn := &config.Scenario{Machine: *machine, Model: *modelName, Batch: *batch, Iterations: *iters, ComputeJitter: *jitter}
	if *strategy != "all" {
		scn.Strategies = []string{*strategy}
	}
	scn, err := loadScenario(fs, *configFile, scn)
	if err != nil {
		return fail(stderr, err)
	}
	spec := scn.BuildSpec()
	m, err := scn.BuildModel()
	if err != nil {
		return fail(stderr, err)
	}
	strategies := scn.StrategyNames()
	if *telemetryFile != "" && len(strategies) > 1 {
		// The telemetry dump is one file per run; pick the paper's
		// strategy rather than overwrite it three times.
		fmt.Fprintln(stderr, "coarsesim: -telemetry is a single-strategy output; selecting COARSE (pass -strategy to choose)")
		strategies = []string{"COARSE"}
	}
	lay := parallel.Layout{PP: *pp, TP: *tp, EP: *ep, Micro: *micro}
	fmt.Fprintf(stdout, "machine=%s model=%s (%.1fM params) batch=%d iters=%d",
		spec.Label, m.Name, float64(m.ParamElems())/1e6, scn.Batch, scn.Iterations)
	if !lay.Trivial() {
		fmt.Fprintf(stdout, " layout=%s", lay.String())
	}
	fmt.Fprintf(stdout, "\n\n")
	fmt.Fprintf(stdout, "%-10s %14s %14s %14s %8s %14s %10s %10s\n",
		"strategy", "iter time", "compute", "blocked comm", "util", "throughput", "edge bus", "cci bus")
	for _, s := range strategies {
		strat, err := config.Strategy(s)
		if err != nil {
			return fail(stderr, err)
		}
		var rec *trace.Recorder
		if *traceFile != "" {
			rec = trace.New()
		}
		out := runner.Run(runner.Spec{
			ID:          s,
			Topology:    spec,
			Model:       m,
			Batch:       scn.Batch,
			Iterations:  scn.Iterations,
			Seed:        1,
			NewStrategy: func() train.Strategy { return strat },
			Configure: func(cfg *train.Config) {
				cfg.ComputeJitter = scn.ComputeJitter
				cfg.Trace = rec
				cfg.TelemetryHotPath = *hotPath
			},
			Layout:    lay,
			Chaos:     chaosSpec,
			Telemetry: *telemetryFile != "" || *traceFile != "",
		})
		if !out.OK() {
			if !out.OOM {
				return fail(stderr, fmt.Errorf("%s: %s", s, out.Err))
			}
			fmt.Fprintf(stdout, "%-10s %s\n", s, out.Err)
			continue
		}
		res := out.Train
		fmt.Fprintf(stdout, "%-10s %14v %14v %14v %7.1f%% %10.1f s/s %9.1f%% %9.1f%%\n",
			s, res.IterTime, res.ComputeTime, res.BlockedComm, 100*res.GPUUtil, res.Throughput(),
			100*res.EdgeBusUtil, 100*res.CCIBusUtil)
		if res.ChaosFaults > 0 {
			fmt.Fprintf(stdout, "           chaos: %d fault windows, %v attributed stall\n",
				res.ChaosFaults, res.ChaosStall)
		}
		dump := out.Telemetry
		if *telemetryFile != "" {
			if err := writeFile(*telemetryFile, dump.WriteJSON); err != nil {
				return fail(stderr, err)
			}
			fmt.Fprintf(stdout, "           telemetry: %d series, %d samples -> %s\n",
				len(dump.Series), len(dump.TimesNS), *telemetryFile)
		}
		if *traceFile != "" {
			// Span timeline plus counter tracks for the curves worth
			// eyeballing: instantaneous per-link utilization, per-worker
			// running totals, and queue/backlog depths. The full series
			// set stays in the -telemetry dump.
			dump.EmitTraceCounters(rec, telemetry.DefaultTraceFilter)
			path := fmt.Sprintf("%s.%s.json", strings.TrimSuffix(*traceFile, ".json"), s)
			if err := writeFile(path, rec.WriteChrome); err != nil {
				return fail(stderr, err)
			}
			fmt.Fprintf(stdout, "           trace: %d events -> %s\n", rec.Len(), path)
		}
	}
	return 0
}

// loadScenario returns the training scenario to run: the one the flags
// filled in, or the -config file at path, which replaces it. Either
// way the scenario has passed config's Validate. A training flag set
// next to -config is rejected rather than silently ignored.
func loadScenario(fs *flag.FlagSet, path string, flags *config.Scenario) (*config.Scenario, error) {
	if path == "" {
		return flags, flags.Validate()
	}
	var set []string
	fs.Visit(func(f *flag.Flag) {
		switch f.Name {
		case "machine", "model", "batch", "iters", "strategy", "jitter":
			set = append(set, "-"+f.Name)
		}
	})
	if len(set) > 0 {
		return nil, fmt.Errorf("-config replaces the training flags; drop %s or the file", strings.Join(set, ", "))
	}
	return config.Load(path)
}

// fail reports err on stderr and returns the exit status for rejected
// input.
func fail(stderr io.Writer, err error) int {
	fmt.Fprintln(stderr, "coarsesim:", err)
	return 1
}

// checkServe rejects serve flags the simulator would otherwise read as
// "no traffic" or silently replace with a default.
func checkServe(requests int, rate float64, promptMean, outputMean int) error {
	switch {
	case requests < 1:
		return fmt.Errorf("-requests %d: want at least 1", requests)
	case !(rate > 0) || math.IsInf(rate, 1):
		return fmt.Errorf("-rate %v: want a finite rate above 0", rate)
	case promptMean < 0:
		return fmt.Errorf("-prompt-mean %d: want 0 (default) or more", promptMean)
	case outputMean < 0:
		return fmt.Errorf("-output-mean %d: want 0 (default) or more", outputMean)
	}
	return nil
}

// checkChaos rejects chaos flags outside the ranges their help states,
// instead of clamping them or quietly running without chaos.
func checkChaos(intensity, horizon float64, faults int) error {
	switch {
	case !(intensity >= 0 && intensity <= 1):
		return fmt.Errorf("-chaos-intensity %v: want a duty cycle in (0,1], or 0 for no chaos", intensity)
	case intensity == 0:
		return nil
	case !(horizon > 0) || math.IsInf(horizon, 1):
		return fmt.Errorf("-chaos-horizon %v: want a finite span above 0 seconds", horizon)
	case faults < 1 || faults > maxChaosFaults:
		return fmt.Errorf("-chaos-faults %d: want 1..%d", faults, maxChaosFaults)
	}
	return nil
}

// maxChaosFaults bounds -chaos-faults. The profile compiles into one
// fault record per window and kind before the run starts, and each
// window schedules its own events, so a count near math.MaxInt
// exhausts host memory up front. 65,536 windows per kind is already
// far denser than the chaos studies' few per run.
const maxChaosFaults = 1 << 16

// printServe prints a serving run's summary: goodput, SLO attainment,
// and the TTFT/TPOT percentile rows.
func printServe(out *runner.Result, telemetryFile string, stdout, stderr io.Writer) int {
	if !out.OK() {
		return fail(stderr, errors.New(out.Err))
	}
	res := out.Serve
	fmt.Fprintf(stdout, "machine=%s model=%s workload=serve arrival=%s kv=%s prefetch=%v\n",
		res.Machine, res.Model, res.Arrival, res.Placement, res.Prefetch)
	fmt.Fprintf(stdout, "pools: %d prefill + %d decode workers\n\n", res.PrefillWorkers, res.DecodeWorkers)
	fmt.Fprintf(stdout, "requests: %d offered @ %.1f rps -> %d completed in %v\n",
		res.Requests, res.OfferedRPS, res.Completed, res.TotalTime)
	fmt.Fprintf(stdout, "achieved %.1f rps, goodput %.1f rps (SLO attainment %.1f%%), mean decode batch %.2f\n\n",
		res.AchievedRPS, res.GoodputRPS, 100*res.SLOAttainment, res.MeanBatch)
	fmt.Fprintf(stdout, "%-6s %14s %14s %14s\n", "", "p50", "p99", "p99.9")
	fmt.Fprintf(stdout, "%-6s %14v %14v %14v\n", "ttft", res.TTFT.P50, res.TTFT.P99, res.TTFT.P999)
	fmt.Fprintf(stdout, "%-6s %14v %14v %14v\n", "tpot", res.TPOT.P50, res.TPOT.P99, res.TPOT.P999)
	fmt.Fprintf(stdout, "\nfabric: %.1f MB KV, %.1f MB params; edge bus %.1f%%, cci ports %.1f%%\n",
		float64(res.KVFabricBytes)/1e6, float64(res.ParamFabricBytes)/1e6,
		100*res.EdgeBusUtil, 100*res.CCIBusUtil)
	if res.ChaosFaults > 0 {
		fmt.Fprintf(stdout, "chaos: %d fault windows, %v attributed stall\n", res.ChaosFaults, res.ChaosStall)
	}
	if telemetryFile != "" {
		dump := out.Telemetry
		if err := writeFile(telemetryFile, dump.WriteJSON); err != nil {
			return fail(stderr, err)
		}
		fmt.Fprintf(stdout, "telemetry: %d series, %d samples -> %s\n",
			len(dump.Series), len(dump.TimesNS), telemetryFile)
	}
	return 0
}

// writeFile creates path and fills it with write.
func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = write(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
