// Command benchjson runs a microbenchmark set and records the results
// as machine-readable JSON committed at the repo root, so the
// performance trajectory is tracked PR over PR. Two sets exist:
//
//   - "fabric" (default): the fabric/sim microbenchmarks plus the
//     quick-suite wall-clock measurement → BENCH_fabric.json;
//   - "core": the engine event-queue microbenchmarks (cancel churn
//     and plain dispatch) plus the whole-cell scale and serving
//     benchmarks → BENCH_core.json.
//
// The output file has three parts:
//
//   - "context": goos/goarch/cpu/go version, so numbers are only ever
//     compared against a matching environment;
//   - "benchmarks": one entry per `go test -bench` line (ns/op, B/op,
//     allocs/op) from internal/fabric and internal/sim;
//   - "suite": wall-clock seconds for `coarsebench -quick -parallel 1`,
//     the end-to-end number the microbenchmarks exist to improve;
//   - "reference": a block benchjson itself never writes, only
//     preserves. It pins the numbers a PR wants future runs compared
//     against (e.g. the pre-optimization eager-reshare measurements
//     recorded when this file was introduced).
//
// On top of the snapshot files sits the measurement history
// (BENCH_history.jsonl by default): every measuring run also appends
// one JSONL record stamped with the git SHA, so the repo carries the
// full trajectory, not just the latest point. The history powers two
// things (see internal/benchhist):
//
//   - `-trend` renders the per-benchmark ns/op trajectory across
//     commits;
//   - `-compare` derives noise-aware per-benchmark tolerance bands
//     from the history's repeated-run variance — a benchmark whose
//     history swings ±30% gets a wide band, one that repeats within 2%
//     gets a tight one — with separate warn (::warning::, advisory)
//     and fail (::error::, non-zero exit) bands. ns/op, B/op and
//     allocs/op are each judged with their own thresholds. Fail-band
//     enforcement requires history measured in the candidate's own
//     environment (goarch/cpus/go all matching); with no matching
//     history the old flat warn-only threshold against the committed
//     snapshot stands, and context mismatches are reported with both
//     context blocks so cross-machine numbers are never silently
//     conflated.
//
// Usage:
//
//	go run ./cmd/benchjson                # full run, rewrites BENCH_fabric.json + appends history
//	go run ./cmd/benchjson -set core      # engine/queue set, rewrites BENCH_core.json
//	go run ./cmd/benchjson -benchtime 1x -skip-suite -history "" -out /dev/null
//	go run ./cmd/benchjson -compare bench-ci.json
//	go run ./cmd/benchjson -trend
//
// The third form is the CI smoke invocation: it proves every benchmark
// still compiles and runs without spending CI minutes on stable
// numbers. The fourth is the CI regression guard.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"

	"coarse/internal/benchhist"
)

const defaultHistory = "BENCH_history.jsonl"

func main() {
	benchtime := flag.String("benchtime", "100x", "value passed to go test -benchtime")
	set := flag.String("set", "fabric", "benchmark set to run: fabric or core")
	out := flag.String("out", "", "output path ('-' for stdout); in -compare mode, the baseline; default is the set's committed file")
	skipSuite := flag.Bool("skip-suite", false, "skip the quick-suite wall-clock measurement")
	history := flag.String("history", defaultHistory, "JSONL measurement history: measuring runs append to it, -compare derives noise bands from it, -trend renders it ('' disables)")
	trend := flag.Bool("trend", false, "render the per-benchmark trajectory across the history's records and exit")
	compare := flag.String("compare", "", "compare the candidate JSON at this path against the baseline at -out (plus the history's noise bands) instead of measuring; exits non-zero only for fail-band regressions backed by same-environment history")
	threshold := flag.Float64("threshold", 0, "override the flat warn-band ns/op margin in -compare mode (e.g. 3 = warn at 3x; 0 keeps the defaults)")
	flag.Parse()

	bs, ok := benchSets[*set]
	if !ok {
		fmt.Fprintf(os.Stderr, "benchjson: unknown -set %q (want fabric or core)\n", *set)
		os.Exit(2)
	}
	if *out == "" {
		*out = bs.out
	}

	switch {
	case *trend:
		os.Exit(runTrend(*history, *set))
	case *compare != "":
		os.Exit(runCompare(*out, *compare, *history, *set, *threshold))
	default:
		os.Exit(runMeasure(bs, *set, *out, *history, *benchtime, *skipSuite))
	}
}

// benchSet describes one committed benchmark record: which package
// runs to measure, whether the end-to-end suite timing belongs in it,
// and the default output file.
type benchSet struct {
	runs  []benchRun
	suite bool
	out   string
}

// benchRun is one `go test -bench` invocation of a set: a package, a
// -bench filter, and an optional fixed benchtime. Most runs leave
// benchtime empty and take the -benchtime flag; the end-to-end scale
// cells pin a small count — a single op simulates a full rack-scale
// training cell (seconds, not nanoseconds), so the microbenchmark
// counts that stabilize BenchmarkEngine* would turn a measurement into
// an hour.
type benchRun struct {
	pkg       string
	pattern   string
	benchtime string
}

var benchSets = map[string]benchSet{
	"fabric": {
		runs: []benchRun{
			{pkg: "./internal/fabric", pattern: "."},
			{pkg: "./internal/sim", pattern: "."},
		},
		suite: true,
		out:   "BENCH_fabric.json",
	},
	// The engine-core record: the BenchmarkEngine* event-queue churn
	// set, plus the end-to-end
	// BenchmarkScaleCell* rack-scale COARSE cells, which time the
	// fabric reallocation path with flow aggregation and steady-state
	// fast-forward, and the BenchmarkServeCell* pair timing the
	// inference-serving hot path under both KV placements (local
	// compute-bound, pooled fabric-bound).
	"core": {
		runs: []benchRun{
			{pkg: "./internal/sim", pattern: "^BenchmarkEngine"},
			{pkg: "./internal/experiments", pattern: "^BenchmarkScaleCell", benchtime: "3x"},
			{pkg: "./internal/experiments", pattern: "^BenchmarkServeCell", benchtime: "3x"},
		},
		out: "BENCH_core.json",
	},
}

func runMeasure(bs benchSet, set, out, history, benchtime string, skipSuite bool) int {
	rep := &benchhist.Report{
		Schema: 1,
		Context: map[string]string{
			"goos":   runtime.GOOS,
			"goarch": runtime.GOARCH,
			"go":     runtime.Version(),
			"cpus":   strconv.Itoa(runtime.NumCPU()),
		},
	}
	// Preserve the pinned reference block across regenerations.
	if prev, err := os.ReadFile(out); err == nil {
		var old benchhist.Report
		if unmarshalJSON(prev, &old) == nil && len(old.Reference) > 0 {
			rep.Reference = old.Reference
		}
	}

	for _, br := range bs.runs {
		bt := benchtime
		if br.benchtime != "" {
			bt = br.benchtime
		}
		results, err := runBench(br.pkg, br.pattern, bt)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchjson: %s: %v\n", br.pkg, err)
			return 1
		}
		rep.Benchmarks = append(rep.Benchmarks, results...)
	}

	if !skipSuite && bs.suite {
		s, err := runSuite()
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchjson: suite: %v\n", err)
			return 1
		}
		rep.Suite = s
	}

	enc, err := marshalIndentJSON(rep)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		return 1
	}
	if out == "-" {
		os.Stdout.Write(enc)
	} else {
		if err := os.WriteFile(out, enc, 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "benchjson:", err)
			return 1
		}
		fmt.Fprintf(os.Stderr, "benchjson: wrote %d benchmark(s) to %s\n", len(rep.Benchmarks), out)
	}

	// Every real measurement also extends the trajectory, unless the
	// caller opted out (-history ""). The record is stamped with the
	// current commit so -trend can label the x axis.
	if history != "" {
		rec := rep.ToRecord(set, gitSHA(), time.Now().Unix())
		if err := benchhist.Append(history, rec); err != nil {
			fmt.Fprintln(os.Stderr, "benchjson: history:", err)
			return 1
		}
		fmt.Fprintf(os.Stderr, "benchjson: appended %s record @%s to %s\n", set, shortSHA(rec.SHA), history)
	}
	return 0
}

func runTrend(history, set string) int {
	if history == "" {
		history = defaultHistory
	}
	recs, err := benchhist.ReadFile(history)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		return 1
	}
	if len(recs) == 0 {
		fmt.Fprintf(os.Stderr, "benchjson: no history at %s (run a measurement first)\n", history)
		return 1
	}
	if err := benchhist.WriteTrend(os.Stdout, recs, set); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		return 1
	}
	return 0
}

// runCompare loads the committed baseline, the candidate, and the
// measurement history, and judges every overlapping measurement with
// benchhist's noise-aware bands. Warn-band findings annotate the run
// (::warning::); fail-band findings — only reachable with enough
// same-environment history — annotate as ::error:: and make the exit
// status non-zero, so a genuine regression against a quiet trajectory
// gates the build while cross-machine or noisy numbers stay advisory.
func runCompare(basePath, candPath, historyPath, set string, threshold float64) int {
	base, err := loadReport(basePath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		return 1
	}
	cand, err := loadReport(candPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		return 1
	}
	var history []benchhist.Record
	if historyPath != "" {
		history, err = benchhist.ReadFile(historyPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchjson:", err)
			return 1
		}
	}

	opt := benchhist.Options{}
	if threshold > 1 {
		opt.Time = benchhist.Band{WarnMargin: threshold - 1, FailMargin: 2 * (threshold - 1)}
	}
	res := benchhist.Compare(base, cand, history, set, opt)

	if res.ContextMismatch {
		// The full context blocks, not just a "differs" note: which
		// axis differs (cpu count? go version? arch?) decides how much
		// the baseline numbers are worth.
		fmt.Printf("benchjson: baseline %s measured in a different environment than the candidate; baseline-sourced findings are advisory\n", basePath)
		fmt.Printf("  baseline context:  %s\n", formatContext(base.Context))
		fmt.Printf("  candidate context: %s\n", formatContext(cand.Context))
	}

	fails := 0
	for _, f := range res.Findings {
		switch f.Level {
		case benchhist.LevelFail:
			fails++
			fmt.Printf("::error title=bench regression (fail band)::%s %s: observed %.4g vs %s noise band %.4g ± %.0f%% (allowed <= %.4g, i.e. %.2fx; observed %.2fx, noise ±%.0f%%); if intentional, refresh %s and the history with 'make bench' and explain in the PR\n",
				f.Key, f.Metric, f.Value, f.Source, f.Center, 100*(f.Limit-1), f.Center*f.Limit, f.Limit, f.Ratio, 100*f.Noise, basePath)
		case benchhist.LevelWarn:
			fmt.Printf("::warning title=bench regression (advisory)::%s %s: observed %.4g vs %s noise band %.4g ± %.0f%% (allowed <= %.4g, i.e. %.2fx; observed %.2fx); refresh %s with 'make bench' on a quiet machine if intentional\n",
				f.Key, f.Metric, f.Value, f.Source, f.Center, 100*(f.Limit-1), f.Center*f.Limit, f.Limit, f.Ratio, basePath)
		}
	}
	fmt.Printf("benchjson: compared %d measurement(s) for set %q (%d same-environment history record(s)): %d warn, %d fail\n",
		res.Compared, set, res.HistoryUsed, len(res.Findings)-fails, fails)
	if res.Compared == 0 {
		fmt.Printf("::warning title=bench guard::no overlapping measurements between %s and %s; guard is vacuous\n",
			basePath, candPath)
	}
	if fails > 0 {
		return 1
	}
	return 0
}

func unmarshalJSON(data []byte, v any) error { return json.Unmarshal(data, v) }

func marshalIndentJSON(v any) ([]byte, error) {
	enc, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(enc, '\n'), nil
}

func loadReport(path string) (*benchhist.Report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r benchhist.Report
	if err := unmarshalJSON(data, &r); err != nil {
		return nil, fmt.Errorf("%s: %v", path, err)
	}
	return &r, nil
}

// formatContext renders a context map with sorted keys, stable enough
// to read in CI logs.
func formatContext(ctx map[string]string) string {
	keys := []string{"goos", "goarch", "cpus", "go"}
	var parts []string
	for _, k := range keys {
		if v, ok := ctx[k]; ok {
			parts = append(parts, k+"="+v)
		}
	}
	for k, v := range ctx {
		known := false
		for _, kk := range keys {
			if k == kk {
				known = true
			}
		}
		if !known {
			parts = append(parts, k+"="+v)
		}
	}
	return strings.Join(parts, " ")
}

// gitSHA returns the current commit, or "unknown" outside a git
// checkout — history records stay useful either way.
func gitSHA() string {
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

func shortSHA(sha string) string {
	if len(sha) > 12 {
		return sha[:12]
	}
	return sha
}

// runBench executes `go test -bench` for one package and parses the
// standard benchmark output lines.
func runBench(pkg, pattern, benchtime string) ([]benchhist.Bench, error) {
	cmd := exec.Command("go", "test", "-run", "^$", "-bench", pattern,
		"-benchtime", benchtime, "-benchmem", "-count", "1", pkg)
	var buf bytes.Buffer
	cmd.Stdout = &buf
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("%v\n%s", err, buf.String())
	}
	var out []benchhist.Bench
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "Benchmark") {
			continue
		}
		f := strings.Fields(line)
		// BenchmarkName-8  100  223615 ns/op  82128 B/op  1585 allocs/op
		if len(f) < 4 || f[3] != "ns/op" {
			continue
		}
		r := benchhist.Bench{Pkg: strings.TrimPrefix(pkg, "./")}
		r.Name = strings.SplitN(f[0], "-", 2)[0]
		r.Iterations, _ = strconv.ParseInt(f[1], 10, 64)
		r.NsPerOp, _ = strconv.ParseFloat(f[2], 64)
		for i := 4; i+1 < len(f); i += 2 {
			switch f[i+1] {
			case "B/op":
				r.BytesPerOp, _ = strconv.ParseInt(f[i], 10, 64)
			case "allocs/op":
				r.AllocsPerOp, _ = strconv.ParseInt(f[i], 10, 64)
			}
		}
		out = append(out, r)
	}
	return out, sc.Err()
}

// runSuite builds coarsebench and times one serial quick pass — the
// end-to-end wall-clock number the ROADMAP's "as fast as the hardware
// allows" goal is tracked by.
func runSuite() (*benchhist.Suite, error) {
	tmp, err := os.MkdirTemp("", "benchjson-*")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmp)
	bin := filepath.Join(tmp, "coarsebench")
	build := exec.Command("go", "build", "-o", bin, "./cmd/coarsebench")
	build.Stderr = os.Stderr
	if err := build.Run(); err != nil {
		return nil, fmt.Errorf("build coarsebench: %v", err)
	}
	run := exec.Command(bin, "-quick", "-parallel", "1")
	run.Stdout = nil // tables discarded; only the wall clock matters here
	run.Stderr = os.Stderr
	start := time.Now()
	if err := run.Run(); err != nil {
		return nil, fmt.Errorf("coarsebench -quick: %v", err)
	}
	return &benchhist.Suite{
		Command:     "coarsebench -quick -parallel 1",
		WallSeconds: time.Since(start).Seconds(),
	}, nil
}
