package experiments

import (
	"encoding/json"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"coarse/internal/runner"
)

var quick = Config{Quick: true}

func runExperiment(t *testing.T, id string) []string {
	t.Helper()
	e, ok := ByID(id)
	if !ok {
		t.Fatalf("experiment %q not registered", id)
	}
	rep := e.Run(quick)
	if rep == nil || len(rep.Tables) == 0 {
		t.Fatalf("%s produced no tables", id)
	}
	var out []string
	for _, tab := range rep.Tables {
		s := tab.String()
		if !strings.Contains(s, "==") {
			t.Fatalf("%s produced an untitled table", id)
		}
		out = append(out, s)
	}
	return out
}

func TestRegistryComplete(t *testing.T) {
	want := []string{
		"fig3", "fig8", "fig9", "fig10", "fig13", "fig14", "fig15",
		"fig16", "fig17", "tab1",
		"ablation-routing", "ablation-partition", "ablation-dual", "ablation-sharing",
		"ext-straggler", "ext-nvlink", "ext-hierarchical", "ext-sensitivity", "ext-dynamic",
		"resilience", "scale", "serve", "parallelism",
	}
	ids := IDs()
	if len(ids) != len(want) {
		t.Fatalf("registry has %d experiments, want %d", len(ids), len(want))
	}
	for _, id := range want {
		if _, ok := ByID(id); !ok {
			t.Errorf("missing experiment %q", id)
		}
	}
	if _, ok := ByID("nope"); ok {
		t.Error("ByID accepted unknown id")
	}
	for _, e := range All() {
		if e.Title == "" || e.Paper == "" {
			t.Errorf("%s lacks title or paper summary", e.ID)
		}
	}
}

// extractSpeedup parses "NN.NNx" out of a table dump's row containing
// the given substring.
func extractSpeedup(t *testing.T, table, rowContains string) float64 {
	t.Helper()
	for _, line := range strings.Split(table, "\n") {
		if !strings.Contains(line, rowContains) {
			continue
		}
		fields := strings.Fields(line)
		for _, f := range fields {
			if strings.HasSuffix(f, "x") {
				v, err := strconv.ParseFloat(strings.TrimSuffix(f, "x"), 64)
				if err == nil {
					return v
				}
			}
		}
	}
	t.Fatalf("no speedup found for row %q in:\n%s", rowContains, table)
	return 0
}

func TestFig3Shape(t *testing.T) {
	tables := runExperiment(t, "fig3")
	direct := extractSpeedup(t, tables[0], "GPU Direct")
	if direct < 9 || direct > 20 {
		t.Fatalf("GPU Direct read speedup %.1fx outside the paper's 9-17x band", direct)
	}
}

func TestFig8Shape(t *testing.T) {
	tables := runExperiment(t, "fig8")
	// Table 0 is AWS V100 (anti-local), table 1 SDSC (local).
	if !strings.Contains(tables[0], "AWS V100") || !strings.Contains(tables[1], "SDSC") {
		t.Fatalf("unexpected table order")
	}
	checkOrdering := func(table string, wantLocalFaster bool) {
		localMin, remoteMax := 1e18, 0.0
		for _, line := range strings.Split(table, "\n") {
			fields := strings.Fields(line)
			if len(fields) < 4 || !strings.Contains(line, "GB/s") {
				continue
			}
			bw, err := strconv.ParseFloat(fields[len(fields)-2], 64)
			if err != nil {
				continue
			}
			if strings.Contains(line, " local ") {
				if bw < localMin {
					localMin = bw
				}
			} else if strings.Contains(line, " remote ") {
				if bw > remoteMax {
					remoteMax = bw
				}
			}
		}
		if wantLocalFaster && localMin <= remoteMax {
			t.Fatalf("expected locality (local %v > remote %v):\n%s", localMin, remoteMax, table)
		}
		if !wantLocalFaster && localMin >= remoteMax {
			t.Fatalf("expected anti-locality (remote %v > local %v):\n%s", remoteMax, localMin, table)
		}
	}
	checkOrdering(tables[0], false)
	checkOrdering(tables[1], true)
}

func TestFig9Shape(t *testing.T) {
	tables := runExperiment(t, "fig9")
	speedup := extractSpeedup(t, tables[0], "speedup")
	if speedup <= 1.2 {
		t.Fatalf("partitioning speedup %.2fx, want > 1.2x", speedup)
	}
}

func TestFig10Shape(t *testing.T) {
	tables := runExperiment(t, "fig10")
	out := tables[0]
	if !strings.Contains(out, "DEADLOCK") {
		t.Fatalf("FCFS row does not show a deadlock:\n%s", out)
	}
	if !strings.Contains(out, "completed") {
		t.Fatalf("queue-based row did not complete:\n%s", out)
	}
}

func TestFig14Shape(t *testing.T) {
	tables := runExperiment(t, "fig14")
	if !strings.Contains(tables[0], "2MiB") {
		t.Fatalf("saturation row missing 2MiB:\n%s", tables[0])
	}
}

func TestFig15Shape(t *testing.T) {
	tables := runExperiment(t, "fig15")
	if len(tables) != 3 {
		t.Fatalf("fig15 should profile 3 machines, got %d", len(tables))
	}
	// On the V100 machine, large transfers must favor the remote proxy.
	v100 := tables[2]
	if !strings.Contains(v100, "AWS V100") {
		t.Fatalf("expected V100 table last")
	}
	lines := strings.Split(strings.TrimSpace(v100), "\n")
	lastSizeRow := ""
	for _, l := range lines {
		if strings.Contains(l, "MiB") && strings.Contains(l, "ms") {
			lastSizeRow = l
		}
	}
	if !strings.Contains(lastSizeRow, "remote") {
		t.Fatalf("largest V100 probe should favor remote proxy: %q", lastSizeRow)
	}
	// On SDSC, every probe favors local.
	if strings.Contains(tables[1], "\tremote\n") {
		t.Fatalf("SDSC probe favored a remote proxy:\n%s", tables[1])
	}
}

func TestFig16Shape(t *testing.T) {
	tables := runExperiment(t, "fig16")
	if len(tables) != 6 {
		t.Fatalf("fig16 should emit 6 panels, got %d", len(tables))
	}
	// Panel d (V100 BERT): COARSE speedup over DENSE must be large and
	// exceed AllReduce's.
	d := tables[3]
	coarse := extractSpeedup(t, d, "COARSE")
	ar := extractSpeedup(t, d, "AllReduce")
	if coarse < 5 {
		t.Fatalf("V100 BERT COARSE speedup %.1fx over DENSE, want >5x", coarse)
	}
	if coarse <= ar {
		t.Fatalf("V100 BERT: COARSE (%.1fx) should beat AllReduce (%.1fx)", coarse, ar)
	}
	// Panel b (T4 BERT): COARSE at or slightly below AllReduce.
	b := tables[1]
	coarseT4 := extractSpeedup(t, b, "COARSE")
	arT4 := extractSpeedup(t, b, "AllReduce")
	if coarseT4 > arT4*1.1 {
		t.Fatalf("T4 BERT: COARSE (%.1fx) should not beat AllReduce (%.1fx) clearly", coarseT4, arT4)
	}
	// Panel e: AllReduce b4 OOMs, COARSE b4 runs and wins.
	e := tables[4]
	if !strings.Contains(e, "OOM") {
		t.Fatalf("fig16e must show the AllReduce batch-4 OOM:\n%s", e)
	}
}

func TestFig17Shape(t *testing.T) {
	tables := runExperiment(t, "fig17")
	// Panel d: both decentralized schemes block far less than DENSE.
	d := tables[3]
	for _, line := range strings.Split(d, "\n") {
		if strings.Contains(line, "AllReduce") || strings.Contains(line, "COARSE") {
			fields := strings.Fields(line)
			for _, f := range fields {
				if strings.HasSuffix(f, "%") && !strings.Contains(line, "util") {
					v, err := strconv.ParseFloat(strings.TrimSuffix(f, "%"), 64)
					if err == nil && v > 10 {
						t.Fatalf("decentralized blocked time %s%% of DENSE, want <10%%: %q", f, line)
					}
					break
				}
			}
		}
	}
}

func TestTable1Shape(t *testing.T) {
	tables := runExperiment(t, "tab1")
	for _, want := range []string{"T4", "P100", "V100", "2:1", "x2"} {
		if !strings.Contains(tables[0], want) {
			t.Fatalf("Table I missing %q:\n%s", want, tables[0])
		}
	}
}

func TestAblationShapes(t *testing.T) {
	routing := runExperiment(t, "ablation-routing")[0]
	if !strings.Contains(routing, "true") || !strings.Contains(routing, "false") {
		t.Fatalf("routing ablation incomplete:\n%s", routing)
	}
	dual := runExperiment(t, "ablation-dual")[0]
	if !strings.Contains(dual, "auto (planner)") {
		t.Fatalf("dual ablation missing planner row:\n%s", dual)
	}
	sharing := runExperiment(t, "ablation-sharing")[0]
	lines := strings.Split(strings.TrimSpace(sharing), "\n")
	if len(lines) < 10 {
		t.Fatalf("sharing ablation too short:\n%s", sharing)
	}
	runExperiment(t, "ablation-partition")
}

func TestExtensionShapes(t *testing.T) {
	straggler := runExperiment(t, "ext-straggler")[0]
	if !strings.Contains(straggler, "30.0%") {
		t.Fatalf("straggler sweep incomplete:\n%s", straggler)
	}
	nvlink := runExperiment(t, "ext-nvlink")[0]
	if !strings.Contains(nvlink, "NVLink") {
		t.Fatalf("nvlink table incomplete:\n%s", nvlink)
	}
}

func TestFig13RunsAndIsMonotone(t *testing.T) {
	tables := runExperiment(t, "fig13")
	if !strings.Contains(tables[0], "4KiB") || !strings.Contains(tables[0], "64MiB") {
		t.Fatalf("fig13 sweep range wrong:\n%s", tables[0])
	}
}

func TestExperimentsDeterministic(t *testing.T) {
	// Rendering twice must be byte-identical: any map-order leak in an
	// experiment would show up here.
	for _, id := range []string{"fig3", "fig9", "fig13", "fig14", "tab1", "ablation-sharing"} {
		a := runExperiment(t, id)
		b := runExperiment(t, id)
		if len(a) != len(b) {
			t.Fatalf("%s: table counts differ", id)
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("%s: nondeterministic output:\n%s\n---\n%s", id, a[i], b[i])
			}
		}
	}
}

// TestTrainingExperimentSerialVsParallel is the harness's determinism
// regression: one training experiment run twice serially and once via
// the parallel runner must render byte-identical tables AND produce
// byte-identical JSON records. The cache is cleared between runs so
// every pass actually recomputes its cells.
func TestTrainingExperimentSerialVsParallel(t *testing.T) {
	// ext-straggler runs six genuine training cells (two strategies,
	// three jitter settings) with no cache keys, so every regeneration
	// recomputes from scratch; ClearCache guards against future keyed
	// specs sneaking in.
	regen := func(parallel int) (string, string) {
		runner.ClearCache()
		e, ok := ByID("ext-straggler")
		if !ok {
			t.Fatal("ext-straggler not registered")
		}
		rep := e.Run(Config{Quick: true, Parallel: parallel})
		var text strings.Builder
		for _, tab := range rep.Tables {
			text.WriteString(tab.String())
		}
		if len(rep.Records) == 0 {
			t.Fatal("ext-straggler produced no structured records")
		}
		js, err := json.Marshal(rep.Records)
		if err != nil {
			t.Fatalf("marshal records: %v", err)
		}
		return text.String(), string(js)
	}

	serial1, json1 := regen(1)
	serial2, json2 := regen(1)
	workers := runtime.GOMAXPROCS(0)
	if workers < 2 {
		workers = 4 // still exercises the pool path
	}
	par, jsonPar := regen(workers)

	if serial1 != serial2 {
		t.Fatalf("serial re-run not byte-identical:\n%s\n---\n%s", serial1, serial2)
	}
	if serial1 != par {
		t.Fatalf("parallel output differs from serial:\n%s\n---\n%s", serial1, par)
	}
	if json1 != json2 {
		t.Fatalf("serial JSON records not byte-identical")
	}
	if json1 != jsonPar {
		t.Fatalf("parallel JSON records differ from serial:\n%s\n---\n%s", json1, jsonPar)
	}
}

func TestExtDynamicShape(t *testing.T) {
	out := runExperiment(t, "ext-dynamic")[0]
	if !strings.Contains(out, "off") || !strings.Contains(out, "every 2 iterations") {
		t.Fatalf("dynamic experiment incomplete:\n%s", out)
	}
}
