// Package experiments regenerates every table and figure in the paper's
// evaluation (Section V). Each experiment runs the actual simulated
// machinery — the same fabric, protocol models and strategies the unit
// tests exercise — and renders the rows or series the paper plots.
//
// Every experiment routes its simulation cells through internal/runner:
// it builds []runner.Spec, the runner fans the independent cells out
// across a worker pool (byte-identical to serial execution), and the
// experiment renders tables from the structured []runner.Result. The
// raw records ride along in Report.Records for machine consumption.
//
// Absolute numbers differ from the paper's testbed; the experiments
// exist to reproduce the *shape*: which scheme wins, by what rough
// factor, and where the crossovers fall. EXPERIMENTS.md records the
// paper-vs-measured comparison for each entry.
package experiments

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"coarse/internal/config"
	"coarse/internal/metrics"
	"coarse/internal/model"
	"coarse/internal/runner"
	"coarse/internal/telemetry"
	"coarse/internal/topology"
	"coarse/internal/trace"
	"coarse/internal/train"
)

// Config controls experiment scale and execution.
type Config struct {
	// Quick trims iteration counts so the full suite runs in seconds;
	// the harness default runs the full configuration.
	Quick bool
	// Parallel is the worker-goroutine count for independent simulation
	// cells; <= 0 means GOMAXPROCS, 1 forces serial execution. Output
	// is byte-identical at any setting.
	Parallel int
	// TraceDir, when non-empty, writes one telemetry dump
	// (<id>.telemetry.json) and one Perfetto trace with span timelines
	// and counter tracks (<id>.trace.json) per simulation cell into the
	// directory; '/' in cell IDs becomes '_'. Tracing bypasses the
	// cross-experiment memoization cache, and because sampling rides
	// daemon events the rendered tables stay byte-identical.
	TraceDir string
	// Observer, when non-nil, receives cell lifecycle notifications
	// from every runner pool the experiments build (coarsebench -serve
	// streams them over HTTP). Observation is read-only and happens
	// outside the simulations, so it never changes an output byte.
	Observer runner.Observer
	// Telemetry forces the virtual-time metrics layer on for every
	// cell, so observers see telemetry snapshots without a TraceDir's
	// file writes. Like tracing it bypasses the memoization cache;
	// sampling rides daemon events, so tables stay byte-identical.
	Telemetry bool
}

func (c Config) iterations() int {
	if c.Quick {
		return 2
	}
	return 4
}

func (c Config) pool() *runner.Pool {
	return &runner.Pool{Parallel: c.Parallel, Observer: c.Observer}
}

// Report is one experiment's output: rendered tables plus the
// machine-readable per-run records they were rendered from.
type Report struct {
	Tables []*metrics.Table `json:"tables"`
	// Records holds one structured record per simulation cell the
	// experiment ran through the runner (empty for closed-form
	// experiments that compute rows analytically).
	Records []metrics.Result `json:"records,omitempty"`
}

func (r *Report) add(tabs ...*metrics.Table) { r.Tables = append(r.Tables, tabs...) }

// Experiment is one regenerable paper artifact.
type Experiment struct {
	ID    string // "fig16", "tab1", "ablation-routing", ...
	Title string
	// Paper summarizes what the paper reports for this artifact.
	Paper string
	Run   func(cfg Config) *Report
}

// All returns every experiment in paper order, ablations last.
func All() []Experiment {
	return []Experiment{
		Fig3(), Fig8(), Fig9(), Fig10(), Fig13(), Fig14(), Fig15(),
		Fig16(), Fig17(), Table1(),
		AblationRouting(), AblationPartitioning(), AblationDualSync(), AblationSharing(),
		ExtStraggler(), ExtNVLink(), ExtHierarchical(), ExtSensitivity(), ExtDynamic(),
		Resilience(), Scale(), Serve(), Parallelism(),
	}
}

// ByID returns the experiment with the given id.
func ByID(id string) (Experiment, bool) {
	for _, e := range All() {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// IDs lists all experiment ids.
func IDs() []string {
	var ids []string
	for _, e := range All() {
		ids = append(ids, e.ID)
	}
	return ids
}

// --- shared training-run infrastructure -----------------------------

// strategyNames in figure order.
var strategyNames = []string{"DENSE", "AllReduce", "COARSE"}

// newStrategy builds a named strategy with its default options.
func newStrategy(name string) train.Strategy { return must(config.Strategy(name)) }

// must unwraps a name-table lookup; the experiments name only entries
// the table has.
func must[T any](v T, err error) T {
	if err != nil {
		panic("experiments: " + err.Error())
	}
	return v
}

// stdSpec builds a cacheable runner spec for a named-strategy training
// run. The cache key spans experiments: Figure 16, Figure 17 and the
// NVLink extension render different views of the same runs and pay for
// each once.
func stdSpec(cfg Config, spec topology.Spec, m *model.Model, batch int, strategy string) runner.Spec {
	iters := cfg.iterations()
	id := fmt.Sprintf("%s/%s/b%d/%s/i%d", spec.Label, m.Name, batch, strategy, iters)
	return runner.Spec{
		ID:          id,
		Key:         id,
		Topology:    spec,
		Model:       m,
		Batch:       batch,
		Iterations:  iters,
		NewStrategy: func() train.Strategy { return newStrategy(strategy) },
	}
}

// runSet accumulates specs (dedup by ID) and executes them as one
// parallel batch; experiments look results up by spec ID when
// rendering.
type runSet struct {
	specs []runner.Spec
	index map[string]int
}

// add registers a spec (first registration wins on duplicate IDs) and
// returns its ID for later lookup.
func (rs *runSet) add(s runner.Spec) string {
	if rs.index == nil {
		rs.index = make(map[string]int)
	}
	if _, dup := rs.index[s.ID]; !dup {
		rs.index[s.ID] = len(rs.specs)
		rs.specs = append(rs.specs, s)
	}
	return s.ID
}

// results runs every accumulated spec through the pool and returns the
// lookup-by-ID view plus the records in registration order.
func (rs *runSet) results(cfg Config) (map[string]*runner.Result, []metrics.Result) {
	specs := rs.specs
	if cfg.TraceDir != "" || cfg.Telemetry {
		specs = make([]runner.Spec, len(rs.specs))
		for i, s := range rs.specs {
			if cfg.Telemetry {
				s.Telemetry = true
			}
			if cfg.TraceDir != "" {
				s = withTracing(s, cfg.TraceDir)
			}
			specs[i] = s
		}
	}
	out := cfg.pool().Run(specs)
	byID := make(map[string]*runner.Result, len(out))
	for i, r := range out {
		byID[rs.specs[i].ID] = r
	}
	return byID, runner.Records(out)
}

// withTracing wraps a spec so its run records telemetry and, for a
// training cell, a span trace, written to dir after a successful run.
// Serving cells have no span recorder, so they write the telemetry
// dump only. File writes happen inside the cell (each cell owns unique
// paths), so the batch stays safe under the parallel pool; write
// errors go to stderr rather than failing the run.
func withTracing(s runner.Spec, dir string) runner.Spec {
	s.Telemetry = true
	var rec *trace.Recorder
	if s.Workload == nil {
		rec = trace.New()
		prevConfigure := s.Configure
		s.Configure = func(c *train.Config) {
			if prevConfigure != nil {
				prevConfigure(c)
			}
			c.Trace = rec
		}
	}
	prevProbe := s.Probe
	s.Probe = func(p *runner.Probe) {
		if prevProbe != nil {
			prevProbe(p)
		}
		base := filepath.Join(dir, strings.ReplaceAll(s.ID, "/", "_"))
		d := p.Result.Telemetry
		if d != nil {
			writeFileOrWarn(base+".telemetry.json", d.WriteJSON)
		}
		if rec != nil {
			if d != nil {
				d.EmitTraceCounters(rec, telemetry.DefaultTraceFilter)
			}
			writeFileOrWarn(base+".trace.json", rec.WriteChrome)
		}
	}
	return s
}

func writeFileOrWarn(path string, write func(io.Writer) error) {
	f, err := os.Create(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, "experiments: trace-dir:", err)
		return
	}
	err = write(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "experiments: trace-dir:", err)
	}
}

// evalModel returns a fresh instance of a named evaluation model.
func evalModel(name string) *model.Model { return must(config.Model(name)) }

// singleNodePanels are Figure 16/17's per-machine panels (a-d).
type panel struct {
	id       string
	spec     topology.Spec
	model    string
	batch    int
	paperTag string
}

func singleNodePanels() []panel {
	return []panel{
		{"a", topology.AWST4(), "resnet50", 64, "T4 ResNet50"},
		{"b", topology.AWST4(), "bert-base", 2, "T4 BERT"},
		{"c", topology.SDSCP100(), "bert-base", 2, "P100 BERT"},
		{"d", topology.AWSV100(), "bert-base", 2, "V100 BERT"},
	}
}
