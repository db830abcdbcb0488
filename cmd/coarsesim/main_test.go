package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestRunRejectsBadInput: input the simulator cannot honour exits 1
// with the reason on stderr, never as a table row or an empty report on
// stdout with status 0. An out-of-memory cell is the one error that
// stays a table row: it is a result, not bad input.
func TestRunRejectsBadInput(t *testing.T) {
	for _, tc := range []struct {
		args   string
		code   int
		stderr string // substring, when code != 0
		stdout string // substring that must appear on stdout; rejected input with none prints nothing there
		config string // when set, a scenario written to a file that -config names
	}{
		{args: "-strategy COARSE -iters 0", code: 1, stderr: "iterations 0"},
		{args: "-batch -3", code: 1, stderr: "batch -3"},
		{args: "-batch 0", code: 1, stderr: "batch 0"},
		{args: "-jitter -0.5", code: 1, stderr: "jitter -0.5"},
		// Bounds that keep a run inside host memory and the simulated
		// clock: each of these once ran out of memory or wrapped.
		{args: "-iters 100000000000 -strategy AllReduce -machine sdsc -model mlp:2,2", code: 1, stderr: "iterations 100000000000: want 1..65536"},
		{args: "-iters 65537 -strategy AllReduce", code: 1, stderr: "iterations 65537"},
		{args: "-jitter 1e12", code: 1, stderr: "jitter 1e+12: want 0..1000"},
		{args: "-chaos-intensity 0.5 -chaos-faults 100000000", code: 1, stderr: "-chaos-faults 100000000: want 1..65536"},
		{config: `{"machine":"v100","model":"bert-base","batch":2,"iterations":2,"strategies":["COARSE"],"overrides":{"gpu_tflops":1e-12}}`,
			code: 1, stderr: "overrides.gpu_tflops 1e-12: want 0 (keeps the preset's) or a finite value >= 1"},
		{config: `{"machine":"v100","model":"bert-base","batch":2,"iterations":2,"strategies":["COARSE"],"overrides":{"edge_gbps":1e-300}}`,
			code: 1, stderr: "overrides.edge_gbps 1e-300: want 0 (keeps the preset's) or a finite value >= 0.01"},
		{config: `{"machine":"multi","model":"bert-base","batch":2,"iterations":2,"overrides":{"net_gbps":0.005}}`,
			code: 1, stderr: "overrides.net_gbps 0.005"},
		{config: `{"machine":"multi","nodes":128,"model":"mlp:44721,44721,10","batch":1,"iterations":1025,"strategies":["DENSE"],"overrides":{"net_gbps":0.01}}`,
			code: 1, stderr: "iterations 1025 on 128 nodes: want at most 1024 (iterations x nodes <= 131072)"},
		{args: "-workload serve -chaos-intensity 0.5 -chaos-faults 65537", code: 1, stderr: "-chaos-faults 65537"},
		{args: "-strategy bogus", code: 1, stderr: `unknown strategy "bogus"`},
		{args: "-machine nope", code: 1, stderr: `unknown machine "nope" (have multi, sdsc, t4, v100, v100-2to1, v100-nvlink)`},
		{args: "-model nope", code: 1, stderr: `unknown model "nope"`},
		{args: "-workload serve -machine nope", code: 1, stderr: `unknown machine "nope"`},
		{args: "-config s.json -machine sdsc -batch 64 -model resnet50 -jitter -0.5", code: 1, stderr: "drop -batch, -jitter, -machine, -model"},
		{args: "-workload serve -config s.json", code: 1, stderr: "-config is a training scenario"},
		// The trainer checks a layout against the machine once the
		// report header is out.
		{args: "-pp -1", code: 1, stderr: "PP -1 < 1", stdout: "machine=AWS V100"},
		{args: "-micro -2", code: 1, stderr: "Micro -2 < 0", stdout: "machine=AWS V100"},
		{args: "-workload serve -requests -5", code: 1, stderr: "-requests -5"},
		{args: "-workload serve -requests 0", code: 1, stderr: "-requests 0"},
		{args: "-workload serve -rate 0", code: 1, stderr: "-rate 0"},
		{args: "-workload serve -rate -3", code: 1, stderr: "-rate -3"},
		{args: "-workload serve -prompt-mean -1", code: 1, stderr: "-prompt-mean -1"},
		{args: "-workload serve -output-mean -1", code: 1, stderr: "-output-mean -1"},
		{args: "-chaos-intensity 2", code: 1, stderr: "-chaos-intensity 2"},
		{args: "-chaos-intensity -0.5", code: 1, stderr: "-chaos-intensity -0.5"},
		{args: "-chaos-horizon -1 -chaos-intensity 0.5", code: 1, stderr: "-chaos-horizon -1"},
		{args: "-chaos-faults 0 -chaos-intensity 0.5", code: 1, stderr: "-chaos-faults 0"},
		{args: "-workload serve -chaos-intensity 2", code: 1, stderr: "-chaos-intensity 2"},
		{args: "-workload batch", code: 1, stderr: `unknown workload "batch"`},
		{args: "-strategy Ring -iters 1", code: 1, stderr: `unknown strategy "Ring"`},
		{args: "-no-such-flag", code: 2, stderr: "no-such-flag"},
		{
			args:   "-machine v100 -model bert-large -batch 16 -iters 1 -strategy AllReduce",
			stdout: "AllReduce  BERT-Large replica (batch 16) does not fit: gpu: out of memory",
		},
		{ // every name -config accepts works on flags too
			args:   "-machine v100-nvlink -model mlp:64,32,10 -batch 4 -iters 1 -strategy DENSE",
			stdout: "machine=AWS V100 NVLink model=mlp (0.0M params) batch=4",
		},
		{ // the chaos horizon only matters when chaos is on
			args:   "-chaos-horizon -1 -strategy DENSE -iters 1",
			stdout: "DENSE   ",
		},
	} {
		args := strings.Fields(tc.args)
		if tc.config != "" {
			path := filepath.Join(t.TempDir(), "scenario.json")
			if err := os.WriteFile(path, []byte(tc.config), 0o644); err != nil {
				t.Fatal(err)
			}
			args = append(args, "-config", path)
			tc.args = "-config " + tc.config
		}
		var stdout, stderr bytes.Buffer
		code := run(args, &stdout, &stderr)
		if strings.Contains(stderr.String(), "panic:") {
			t.Errorf("%s: stderr reports a panic: %q", tc.args, stderr.String())
		}
		if code != tc.code {
			t.Errorf("%s: exit %d, want %d (stderr %q)", tc.args, code, tc.code, stderr.String())
			continue
		}
		if tc.code == 1 && tc.stdout == "" && stdout.Len() > 0 {
			t.Errorf("%s: rejected input printed a report: %q", tc.args, stdout.String())
		}
		if tc.code != 0 {
			if !strings.Contains(stderr.String(), tc.stderr) {
				t.Errorf("%s: stderr %q does not mention %q", tc.args, stderr.String(), tc.stderr)
			}
			if tc.code == 1 && strings.Contains(stdout.String(), tc.stderr) {
				t.Errorf("%s: the error also went to stdout: %q", tc.args, stdout.String())
			}
		}
		if !strings.Contains(stdout.String(), tc.stdout) {
			t.Errorf("%s: stdout %q does not contain %q", tc.args, stdout.String(), tc.stdout)
		}
	}
}

// TestTraceWritesOneFilePerStrategy: -trace writes the span timeline
// plus telemetry counter tracks for every strategy the run covers, each
// to its own file, and the retired -trace-out is an unknown flag.
func TestTraceWritesOneFilePerStrategy(t *testing.T) {
	dir := t.TempDir()
	scenario := filepath.Join(dir, "s.json")
	scn := `{"machine":"sdsc","model":"mlp:64,32,10","batch":4,"iterations":2,"strategies":["COARSE","AllReduce"]}`
	if err := os.WriteFile(scenario, []byte(scn), 0o644); err != nil {
		t.Fatal(err)
	}
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-config", scenario, "-trace", filepath.Join(dir, "run.json")}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d: %s", code, stderr.String())
	}
	for _, s := range []string{"COARSE", "AllReduce"} {
		path := filepath.Join(dir, "run."+s+".json")
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("%s: %v", s, err)
		}
		if !bytes.Contains(data, []byte(`"ph":"C"`)) {
			t.Errorf("%s: trace has no counter events", path)
		}
		if !strings.Contains(stdout.String(), "-> "+path) {
			t.Errorf("stdout does not name %s: %q", path, stdout.String())
		}
	}

	stderr.Reset()
	if code := run([]string{"-trace-out", filepath.Join(dir, "x.trace")}, &stdout, &stderr); code != 2 {
		t.Fatalf("-trace-out exit %d, want 2 (unknown flag)", code)
	}
	if !strings.Contains(stderr.String(), "trace-out") {
		t.Fatalf("stderr %q does not name the unknown flag", stderr.String())
	}
}
