// Command coarsebench regenerates the paper's evaluation: every figure
// and table of Section V plus the design ablations and the
// inference-serving extension (KV-cache pooling over the CCI memory
// pool, -only serve), printed as aligned text tables or
// machine-readable JSON.
//
// Independent simulation cells fan out across a worker pool
// (internal/runner); output is byte-identical at any -parallel setting,
// so regenerated artifacts diff cleanly while the suite uses every
// core.
//
// Usage:
//
//	coarsebench               # run everything, full configuration
//	coarsebench -quick        # trimmed iteration counts
//	coarsebench -only fig16   # one experiment
//	coarsebench -list         # list experiment ids
//	coarsebench -parallel 1   # force serial execution
//	coarsebench -json         # tables + structured per-run records
//	coarsebench -timing       # include wall-clock timing (not byte-stable)
//	coarsebench -cpuprofile cpu.pprof -memprofile mem.pprof
//	                          # pprof profiles of the run (go tool pprof)
//
// A panicking experiment is reported to stderr with its id and the
// remaining experiments still run; the exit status is non-zero when any
// experiment failed. A malformed invocation (an unknown flag, a
// positional argument, -parallel below 1) exits 2 before running
// anything.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"syscall"
	"time"

	"coarse/internal/experiments"
	"coarse/internal/metrics"
	"coarse/internal/telemetry/serve"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the command: it parses args, writes the tables to stdout and
// diagnostics to stderr, and returns the exit status.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("coarsebench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	quick := fs.Bool("quick", false, "trim iteration counts for a fast pass")
	only := fs.String("only", "", "run a single experiment id (see -list)")
	list := fs.Bool("list", false, "list experiment ids and exit")
	asJSON := fs.Bool("json", false, "emit results as a JSON array instead of text tables")
	parallel := fs.Int("parallel", runtime.GOMAXPROCS(0),
		"worker goroutines for independent simulation cells (1 = serial; output is identical at any setting)")
	timing := fs.Bool("timing", false,
		"include per-experiment wall time in output (wall time varies run to run, so output is no longer byte-stable)")
	traceDir := fs.String("trace-dir", "",
		"write per-cell telemetry dumps (<id>.telemetry.json) and Perfetto traces (<id>.trace.json) into this directory")
	serveAddr := fs.String("serve", "",
		"serve live cell status and telemetry snapshots over HTTP on this address (e.g. :8080) while the grid runs; "+
			"keeps serving after the run until SIGINT/SIGTERM. Read-only: stdout stays byte-identical")
	cpuProfile := fs.String("cpuprofile", "",
		"write a pprof CPU profile of the whole run to this file (inspect with 'go tool pprof')")
	memProfile := fs.String("memprofile", "",
		"write a pprof allocation profile (inuse + alloc space) to this file at exit")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "coarsebench: unexpected argument %q; select an experiment with -only\n", fs.Arg(0))
		return 2
	}
	if *parallel < 1 {
		fmt.Fprintf(stderr, "coarsebench: -parallel %d < 1\n", *parallel)
		return 2
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintln(stderr, "coarsebench: -cpuprofile:", err)
			return 1
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			fmt.Fprintln(stderr, "coarsebench: -cpuprofile:", err)
			return 1
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintln(stderr, "coarsebench: -memprofile:", err)
				return
			}
			defer f.Close()
			runtime.GC() // settle the heap so inuse numbers are meaningful
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(stderr, "coarsebench: -memprofile:", err)
			}
		}()
	}

	if *list {
		for _, e := range experiments.All() {
			fmt.Fprintf(stdout, "%-20s %s\n", e.ID, e.Title)
		}
		return 0
	}

	cfg := experiments.Config{Quick: *quick, Parallel: *parallel, TraceDir: *traceDir}
	if *traceDir != "" {
		if err := os.MkdirAll(*traceDir, 0o755); err != nil {
			fmt.Fprintln(stderr, "coarsebench:", err)
			return 1
		}
	}

	// Live serving: the server observes the runner pools (read-only,
	// outside the simulations) and forces per-cell telemetry snapshots;
	// results and stdout stay byte-identical with the server attached.
	var srv *serve.Server
	if *serveAddr != "" {
		srv = serve.New()
		if err := srv.Start(*serveAddr); err != nil {
			fmt.Fprintln(stderr, "coarsebench: -serve:", err)
			return 1
		}
		fmt.Fprintf(stderr, "# serving live status on http://%s/ (endpoints: /cells /telemetry/ /bench)\n", srv.Addr())
		cfg.Observer = srv
		cfg.Telemetry = true
	}
	todo := experiments.All()
	if *only != "" {
		e, ok := experiments.ByID(*only)
		if !ok {
			fmt.Fprintf(stderr, "coarsebench: unknown experiment %q; try -list\n", *only)
			return 1
		}
		todo = []experiments.Experiment{e}
	}

	suiteStart := time.Now()
	failed := 0

	if *asJSON {
		type jsonExp struct {
			ID      string           `json:"id"`
			Title   string           `json:"title"`
			Paper   string           `json:"paper"`
			Error   string           `json:"error,omitempty"`
			Tables  []*metrics.Table `json:"tables"`
			Records []metrics.Result `json:"records,omitempty"`
			// WallMS is per-experiment regeneration wall time; only
			// populated under -timing so default output stays
			// byte-identical across runs and -parallel settings.
			WallMS float64 `json:"wall_ms,omitempty"`
		}
		var out []jsonExp
		for _, e := range todo {
			start := time.Now()
			if srv != nil {
				srv.ExperimentStarted(e.ID, e.Title)
			}
			rep, err := runExperiment(e, cfg)
			if srv != nil {
				srv.ExperimentFinished(e.ID, tableStrings(rep), errText(err))
			}
			je := jsonExp{ID: e.ID, Title: e.Title, Paper: e.Paper}
			if err != nil {
				fmt.Fprintf(stderr, "coarsebench: %v\n", err)
				je.Error = err.Error()
				failed++
			} else {
				je.Tables = rep.Tables
				je.Records = rep.Records
			}
			if *timing {
				je.WallMS = float64(time.Since(start).Microseconds()) / 1000
			}
			out = append(out, je)
		}
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(out); err != nil {
			fmt.Fprintln(stderr, "coarsebench:", err)
			return 1
		}
	} else {
		for _, e := range todo {
			start := time.Now()
			fmt.Fprintf(stdout, "\n################ %s\n", e.Title)
			fmt.Fprintf(stdout, "# paper: %s\n\n", e.Paper)
			if srv != nil {
				srv.ExperimentStarted(e.ID, e.Title)
			}
			rep, err := runExperiment(e, cfg)
			if srv != nil {
				srv.ExperimentFinished(e.ID, tableStrings(rep), errText(err))
			}
			if err != nil {
				// Keep stdout byte-stable: failures go to stderr and the
				// run continues with the next experiment.
				fmt.Fprintf(stderr, "coarsebench: %v\n", err)
				failed++
				continue
			}
			for _, tab := range rep.Tables {
				fmt.Fprintln(stdout, tab.String())
			}
			// Wall time is nondeterministic, so it never lands on stdout.
			fmt.Fprintf(stderr, "# (%s regenerated in %.1fs)\n", e.ID, time.Since(start).Seconds())
		}
	}

	if *timing {
		fmt.Fprintf(stderr, "# suite: %d experiments in %.1fs (parallel=%d)\n",
			len(todo), time.Since(suiteStart).Seconds(), *parallel)
	}
	status := 0
	if failed > 0 {
		fmt.Fprintf(stderr, "coarsebench: %d experiment(s) failed\n", failed)
		status = 1
	}

	// With -serve, keep the dashboard up after the grid so results stay
	// inspectable; SIGINT/SIGTERM triggers a graceful shutdown.
	if srv != nil {
		fmt.Fprintf(stderr, "# grid complete; still serving on http://%s/ — Ctrl-C to exit\n", srv.Addr())
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
		<-sig
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			fmt.Fprintln(stderr, "coarsebench: shutdown:", err)
			if status == 0 {
				status = 1
			}
		}
	}
	return status
}

// tableStrings renders a report's tables for the live /bench endpoint;
// nil-safe for failed experiments.
func tableStrings(rep *experiments.Report) []string {
	if rep == nil {
		return nil
	}
	out := make([]string, 0, len(rep.Tables))
	for _, tab := range rep.Tables {
		out = append(out, tab.String())
	}
	return out
}

func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// runExperiment regenerates one experiment, converting a panic anywhere
// in its pipeline into an error so one bad experiment cannot kill a
// whole regeneration run.
func runExperiment(e experiments.Experiment, cfg experiments.Config) (rep *experiments.Report, err error) {
	defer func() {
		if v := recover(); v != nil {
			rep = nil
			err = fmt.Errorf("experiment %s panicked: %v", e.ID, v)
		}
	}()
	rep = e.Run(cfg)
	if rep == nil {
		return nil, fmt.Errorf("experiment %s produced no report", e.ID)
	}
	return rep, nil
}
