package main

import (
	"bytes"
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
		stdout string // substring that must appear on stdout
	}{
		{args: "-strategy COARSE -iters 0", code: 1, stderr: "COARSE: train: iterations 0"},
		{args: "-batch -3", code: 1, stderr: "train: iterations 4, batch -3"},
		{args: "-pp -1", code: 1, stderr: "PP -1 < 1"},
		{args: "-micro -2", code: 1, stderr: "Micro -2 < 0"},
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
		{ // the chaos horizon only matters when chaos is on
			args:   "-chaos-horizon -1 -strategy DENSE -iters 1",
			stdout: "DENSE   ",
		},
	} {
		var stdout, stderr bytes.Buffer
		code := run(strings.Fields(tc.args), &stdout, &stderr)
		if code != tc.code {
			t.Errorf("%s: exit %d, want %d (stderr %q)", tc.args, code, tc.code, stderr.String())
			continue
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
