// Command coarsesim runs a single simulation: a training run (one
// machine, one model, one batch size, one or more synchronization
// strategies) or, with -workload serve, an inference-serving run (an
// open-loop request stream through continuous-batching prefill/decode
// pools with local or CCI-pooled KV caches).
//
// Usage:
//
//	coarsesim -machine v100 -model bert-base -batch 2 -iters 4
//	coarsesim -machine sdsc -model resnet50 -batch 64 -strategy COARSE
//	coarsesim -workload serve -rate 28 -requests 144 -kv pooled
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	coarse "coarse"
	"coarse/internal/chaos"
	"coarse/internal/config"
	"coarse/internal/core"
	"coarse/internal/parallel"
	"coarse/internal/paramserver"
	"coarse/internal/serve"
	"coarse/internal/sim"
	"coarse/internal/telemetry"
	"coarse/internal/trace"
	"coarse/internal/train"
)

var machines = map[string]func() coarse.MachineSpec{
	"t4":        coarse.AWST4,
	"sdsc":      coarse.SDSCP100,
	"v100":      coarse.AWSV100,
	"v100-2to1": coarse.AWSV100TwoToOne,
	"multi":     func() coarse.MachineSpec { return coarse.MultiNodeV100(2) },
}

var models = map[string]func() *coarse.Model{
	"resnet50":   coarse.ResNet50,
	"bert-base":  coarse.BERTBase,
	"bert-large": coarse.BERTLarge,
	"vgg16":      coarse.VGG16,
	"mlp":        func() *coarse.Model { return coarse.MLP("mlp", 1024, 512, 256, 10) },
}

func keys[V any](m map[string]V) string {
	var ks []string
	for k := range m {
		ks = append(ks, k)
	}
	return strings.Join(ks, ", ")
}

func main() {
	machine := flag.String("machine", "v100", "machine preset: "+keys(machines))
	modelName := flag.String("model", "bert-base", "model: "+keys(models))
	batch := flag.Int("batch", 2, "per-GPU batch size")
	iters := flag.Int("iters", 4, "training iterations")
	strategy := flag.String("strategy", "all", "DENSE, AllReduce, COARSE, CentralPS, or all")
	jitter := flag.Float64("jitter", 0, "per-worker compute skew (0.3 = slowest worker 30% slower)")
	traceFile := flag.String("trace", "", "write a chrome://tracing JSON timeline to this file (single-strategy runs)")
	telemetryFile := flag.String("telemetry", "", "write the sampled time-series telemetry dump (JSON) to this exact path; single-strategy")
	traceOut := flag.String("trace-out", "", "write a Perfetto trace with telemetry counter tracks to this exact path; single-strategy")
	configFile := flag.String("config", "", "load a JSON scenario (overrides the other flags)")
	hotPath := flag.Bool("telemetry-hot-path", false, "include the simulator's own hot-path counters (reshare coalescing, event-queue tombstones) in telemetry output; changes dump bytes")
	chaosIntensity := flag.Float64("chaos-intensity", 0, "transient-fault duty cycle in (0,1]; 0 disables the seed-deterministic chaos profile")
	chaosKinds := flag.String("chaos-kinds", "link,cci,stall", "comma-separated fault kinds to inject: link, cci, stall")
	chaosFaults := flag.Int("chaos-faults", 2, "fault windows per kind in the chaos profile")
	chaosHorizon := flag.Float64("chaos-horizon", 1.0, "virtual-time span (seconds) the chaos windows spread over")
	pp := flag.Int("pp", 0, "pipeline-parallel stages (0/1 = off); pp*tp*ep must divide the worker count")
	tp := flag.Int("tp", 0, "tensor-parallel group size (0/1 = off)")
	ep := flag.Int("ep", 0, "expert-parallel group size (0/1 = off; needs an MoE model)")
	micro := flag.Int("micro", 0, "microbatches per pipeline round (0 = one per stage)")
	workload := flag.String("workload", "train", "workload family: train or serve")
	arrival := flag.String("arrival", "poisson", "serve: arrival process (poisson, diurnal, bursty)")
	rate := flag.Float64("rate", 28, "serve: offered load, requests/sec")
	requests := flag.Int("requests", 144, "serve: total request count")
	kvPlacement := flag.String("kv", "pooled", "serve: KV-cache placement (local, pooled)")
	prefetch := flag.Bool("prefetch", false, "serve: prefetch the next decode step's pooled KV pages under compute")
	promptMean := flag.Int("prompt-mean", 0, "serve: mean prompt tokens (0 = default)")
	outputMean := flag.Int("output-mean", 0, "serve: mean output tokens (0 = default)")
	seed := flag.Int64("seed", 1, "serve: trace/chaos seed")
	flag.Parse()

	if _, err := sim.DefaultQueueKind(); err != nil {
		fmt.Fprintln(os.Stderr, "coarsesim:", err)
		os.Exit(1)
	}
	var chaosSpec *chaos.Spec
	if *chaosIntensity > 0 {
		kinds, err := chaos.ParseKinds(*chaosKinds)
		if err != nil {
			fmt.Fprintln(os.Stderr, "coarsesim:", err)
			os.Exit(1)
		}
		chaosSpec = &chaos.Spec{Profile: &chaos.Profile{
			Intensity:     *chaosIntensity,
			Horizon:       sim.Seconds(*chaosHorizon),
			Kinds:         kinds,
			FaultsPerKind: *chaosFaults,
		}}
	}

	if *workload == "serve" {
		mk, ok := machines[*machine]
		if !ok {
			fmt.Fprintf(os.Stderr, "coarsesim: unknown machine %q (have %s)\n", *machine, keys(machines))
			os.Exit(1)
		}
		mdl, ok := models[*modelName]
		if !ok {
			fmt.Fprintf(os.Stderr, "coarsesim: unknown model %q (have %s)\n", *modelName, keys(models))
			os.Exit(1)
		}
		serveMain(mk(), mdl(), serveFlags{
			arrival:    *arrival,
			rate:       *rate,
			requests:   *requests,
			placement:  *kvPlacement,
			prefetch:   *prefetch,
			promptMean: *promptMean,
			outputMean: *outputMean,
			seed:       *seed,
			chaos:      chaosSpec,
			telemetry:  *telemetryFile,
		})
		return
	}
	if *workload != "train" {
		fmt.Fprintf(os.Stderr, "coarsesim: unknown workload %q (train, serve)\n", *workload)
		os.Exit(1)
	}

	var spec coarse.MachineSpec
	var m *coarse.Model
	var strategies []coarse.Strategy

	if *configFile != "" {
		scn, err := config.Load(*configFile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "coarsesim:", err)
			os.Exit(1)
		}
		spec = scn.BuildSpec()
		m, err = scn.BuildModel()
		if err != nil {
			fmt.Fprintln(os.Stderr, "coarsesim:", err)
			os.Exit(1)
		}
		*batch = scn.Batch
		*iters = scn.Iterations
		*jitter = scn.ComputeJitter
		for _, s := range scn.StrategyNames() {
			strategies = append(strategies, coarse.Strategy(s))
		}
	} else {
		mk, ok := machines[*machine]
		if !ok {
			fmt.Fprintf(os.Stderr, "coarsesim: unknown machine %q (have %s)\n", *machine, keys(machines))
			os.Exit(1)
		}
		mdl, ok := models[*modelName]
		if !ok {
			fmt.Fprintf(os.Stderr, "coarsesim: unknown model %q (have %s)\n", *modelName, keys(models))
			os.Exit(1)
		}
		spec = mk()
		m = mdl()
		if *strategy == "all" {
			strategies = coarse.Strategies()
		} else {
			strategies = []coarse.Strategy{coarse.Strategy(*strategy)}
		}
	}
	if (*telemetryFile != "" || *traceOut != "") && len(strategies) > 1 {
		// Telemetry/trace output is one file per run; pick the paper's
		// strategy rather than overwrite it three times.
		fmt.Fprintln(os.Stderr, "coarsesim: -telemetry/-trace-out are single-strategy outputs; selecting COARSE (pass -strategy to choose)")
		strategies = []coarse.Strategy{coarse.StrategyCOARSE}
	}
	lay := parallel.Layout{PP: *pp, TP: *tp, EP: *ep, Micro: *micro}
	fmt.Printf("machine=%s model=%s (%.1fM params) batch=%d iters=%d",
		spec.Label, m.Name, float64(m.ParamElems())/1e6, *batch, *iters)
	if !lay.Trivial() {
		fmt.Printf(" layout=%s", lay.String())
	}
	fmt.Printf("\n\n")
	fmt.Printf("%-10s %14s %14s %14s %8s %14s %10s %10s\n",
		"strategy", "iter time", "compute", "blocked comm", "util", "throughput", "edge bus", "cci bus")
	for _, s := range strategies {
		cfg := train.DefaultConfig(spec, m, *batch, *iters)
		cfg.ComputeJitter = *jitter
		cfg.Chaos = chaosSpec
		cfg.Layout = lay
		var rec *trace.Recorder
		if *traceFile != "" || *traceOut != "" {
			rec = trace.New()
			cfg.Trace = rec
		}
		if *telemetryFile != "" || *traceOut != "" {
			cfg.Telemetry = telemetry.NewRegistry()
			cfg.TelemetryHotPath = *hotPath
		}
		var strat train.Strategy
		switch s {
		case coarse.StrategyDENSE:
			strat = paramserver.NewDENSE()
		case coarse.StrategyCentralPS:
			strat = paramserver.NewCentralPS()
		case coarse.StrategyAllReduce:
			strat = train.NewAllReduce()
		case coarse.StrategyCOARSE:
			strat = core.New(core.DefaultOptions())
		default:
			fmt.Fprintf(os.Stderr, "coarsesim: unknown strategy %q\n", s)
			os.Exit(1)
		}
		tr, err := train.New(cfg, strat)
		if err != nil {
			fmt.Printf("%-10s %s\n", s, err)
			continue
		}
		res, err := tr.Run()
		if err != nil {
			fmt.Printf("%-10s %s\n", s, err)
			continue
		}
		fmt.Printf("%-10s %14v %14v %14v %7.1f%% %10.1f s/s %9.1f%% %9.1f%%\n",
			s, res.IterTime, res.ComputeTime, res.BlockedComm, 100*res.GPUUtil, res.Throughput(),
			100*res.EdgeBusUtil, 100*res.CCIBusUtil)
		if res.ChaosFaults > 0 {
			fmt.Printf("           chaos: %d fault windows, %v attributed stall\n",
				res.ChaosFaults, res.ChaosStall)
		}
		if *traceFile != "" {
			// Per-strategy span timeline (no counter tracks).
			if err := writeTrace(fmt.Sprintf("%s.%s.json", strings.TrimSuffix(*traceFile, ".json"), s), rec); err != nil {
				fmt.Fprintln(os.Stderr, "coarsesim:", err)
				os.Exit(1)
			}
			fmt.Printf("           trace: %d events written\n", rec.Len())
		}
		dump := tr.TelemetryDump()
		if *telemetryFile != "" {
			f, err := os.Create(*telemetryFile)
			if err != nil {
				fmt.Fprintln(os.Stderr, "coarsesim:", err)
				os.Exit(1)
			}
			err = dump.WriteJSON(f)
			f.Close()
			if err != nil {
				fmt.Fprintln(os.Stderr, "coarsesim:", err)
				os.Exit(1)
			}
			fmt.Printf("           telemetry: %d series, %d samples -> %s\n",
				len(dump.Series), len(dump.TimesNS), *telemetryFile)
		}
		if *traceOut != "" {
			// Span timeline plus counter tracks for the curves worth
			// eyeballing: instantaneous per-link utilization, per-worker
			// running totals, and queue/backlog depths. The full series
			// set stays in the -telemetry dump.
			dump.EmitTraceCounters(rec, telemetry.DefaultTraceFilter)
			if err := writeTrace(*traceOut, rec); err != nil {
				fmt.Fprintln(os.Stderr, "coarsesim:", err)
				os.Exit(1)
			}
			fmt.Printf("           perfetto trace: %d events -> %s\n", rec.Len(), *traceOut)
		}
	}
}

// serveFlags carries the serve-mode flag values.
type serveFlags struct {
	arrival    string
	rate       float64
	requests   int
	placement  string
	prefetch   bool
	promptMean int
	outputMean int
	seed       int64
	chaos      *chaos.Spec
	telemetry  string
}

// serveMain runs one inference-serving simulation and prints its
// summary: goodput, SLO attainment, and the TTFT/TPOT percentile rows.
func serveMain(spec coarse.MachineSpec, m *coarse.Model, f serveFlags) {
	kind, err := serve.ParseArrival(f.arrival)
	if err != nil {
		fmt.Fprintln(os.Stderr, "coarsesim:", err)
		os.Exit(1)
	}
	placement, err := serve.ParseKVPlacement(f.placement)
	if err != nil {
		fmt.Fprintln(os.Stderr, "coarsesim:", err)
		os.Exit(1)
	}
	cfg := serve.DefaultConfig(spec, m, serve.Workload{
		Arrival:    kind,
		RatePerSec: f.rate,
		Requests:   f.requests,
		PromptMean: f.promptMean,
		OutputMean: f.outputMean,
	})
	cfg.KVPlacement = placement
	cfg.Prefetch = f.prefetch
	cfg.Seed = f.seed
	cfg.Chaos = f.chaos
	if f.telemetry != "" {
		cfg.Telemetry = telemetry.NewRegistry()
	}
	sv, err := serve.New(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "coarsesim:", err)
		os.Exit(1)
	}
	res, err := sv.Run()
	if err != nil {
		fmt.Fprintln(os.Stderr, "coarsesim:", err)
		os.Exit(1)
	}
	fmt.Printf("machine=%s model=%s workload=serve arrival=%s kv=%s prefetch=%v\n",
		res.Machine, res.Model, res.Arrival, res.Placement, res.Prefetch)
	fmt.Printf("pools: %d prefill + %d decode workers\n\n", res.PrefillWorkers, res.DecodeWorkers)
	fmt.Printf("requests: %d offered @ %.1f rps -> %d completed in %v\n",
		res.Requests, res.OfferedRPS, res.Completed, res.TotalTime)
	fmt.Printf("achieved %.1f rps, goodput %.1f rps (SLO attainment %.1f%%), mean decode batch %.2f\n\n",
		res.AchievedRPS, res.GoodputRPS, 100*res.SLOAttainment, res.MeanBatch)
	fmt.Printf("%-6s %14s %14s %14s\n", "", "p50", "p99", "p99.9")
	fmt.Printf("%-6s %14v %14v %14v\n", "ttft", res.TTFT.P50, res.TTFT.P99, res.TTFT.P999)
	fmt.Printf("%-6s %14v %14v %14v\n", "tpot", res.TPOT.P50, res.TPOT.P99, res.TPOT.P999)
	fmt.Printf("\nfabric: %.1f MB KV, %.1f MB params; edge bus %.1f%%, cci ports %.1f%%\n",
		float64(res.KVFabricBytes)/1e6, float64(res.ParamFabricBytes)/1e6,
		100*res.EdgeBusUtil, 100*res.CCIBusUtil)
	if res.ChaosFaults > 0 {
		fmt.Printf("chaos: %d fault windows, %v attributed stall\n", res.ChaosFaults, res.ChaosStall)
	}
	if f.telemetry != "" {
		dump := sv.TelemetryDump()
		out, err := os.Create(f.telemetry)
		if err != nil {
			fmt.Fprintln(os.Stderr, "coarsesim:", err)
			os.Exit(1)
		}
		err = dump.WriteJSON(out)
		if cerr := out.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "coarsesim:", err)
			os.Exit(1)
		}
		fmt.Printf("telemetry: %d series, %d samples -> %s\n",
			len(dump.Series), len(dump.TimesNS), f.telemetry)
	}
}

// writeTrace serializes a recorder to path in Chrome trace-event format.
func writeTrace(path string, rec *trace.Recorder) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := rec.WriteChrome(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
