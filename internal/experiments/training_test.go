package experiments

import (
	"strings"
	"testing"

	"coarse/internal/runner"
	"coarse/internal/sim"
	"coarse/internal/topology"
	"coarse/internal/train"
)

// TestFailedCellsLabelTheirCause: only a run that ran out of device
// memory reads OOM in Figures 16 and 17. A panic or a deadlock reads
// ERR with its error, so it cannot pass for a batch-size result.
func TestFailedCellsLabelTheirCause(t *testing.T) {
	spec := topology.AWSV100()
	panel := efPanel{
		title: "fabricated",
		rows: []efRow{
			{spec: spec, strat: "AllReduce", batch: 2, id: "ok"},
			{spec: spec, strat: "AllReduce", batch: 4, id: "oom"},
			{spec: spec, strat: "COARSE", batch: 4, id: "panic"},
		},
	}
	got := map[string]*runner.Result{
		"ok":    {Train: &train.Result{Batch: 2, Workers: 8, RunMetrics: train.RunMetrics{IterTime: sim.Seconds(0.001)}}},
		"oom":   {Err: "BERT-Large replica (batch 4) does not fit: gpu: out of memory", OOM: true},
		"panic": {Err: "panic: kaboom"},
	}
	out := renderFig16ef([]efPanel{panel}, got)[0].String()
	for _, want := range []string{"OOM (replica does not fit)", "ERR", "panic: kaboom"} {
		if !strings.Contains(out, want) {
			t.Errorf("table lacks %q:\n%s", want, out)
		}
	}
	if strings.Count(out, "OOM") != 1 {
		t.Errorf("only the out-of-memory row may read OOM:\n%s", out)
	}

	for _, tc := range []struct {
		res            *runner.Result
		status, detail string
	}{
		{&runner.Result{Err: "gpu: out of memory", OOM: true}, "OOM", "-"},
		{&runner.Result{Err: "train: deadlock"}, "ERR", "train: deadlock"},
	} {
		if status, detail := failCells(tc.res, "OOM"); status != tc.status || detail != tc.detail {
			t.Errorf("failCells(%q) = %q, %q; want %q, %q", tc.res.Err, status, detail, tc.status, tc.detail)
		}
	}
}
