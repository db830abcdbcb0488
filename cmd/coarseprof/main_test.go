package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestRun: every preset the name table lists profiles, v100-nvlink
// included; an unknown machine exits 1 with the reason on stderr and
// nothing on stdout.
func TestRun(t *testing.T) {
	for _, tc := range []struct {
		args   string
		code   int
		stdout string
		stderr string
	}{
		{args: "-machine v100-nvlink", stdout: "offline profile of AWS V100 NVLink\n\nworker 0: "},
		{args: "", stdout: "offline profile of AWS V100\n\nworker 0: "},
		{args: "-machine nope", code: 1, stderr: `coarseprof: config: unknown machine "nope" (have multi, sdsc, t4, v100, v100-2to1, v100-nvlink)`},
		{args: "-no-such-flag", code: 2, stderr: "no-such-flag"},
		{args: "-machine", code: 2, stderr: "flag needs an argument"},
	} {
		var stdout, stderr bytes.Buffer
		code := run(strings.Fields(tc.args), &stdout, &stderr)
		if code != tc.code {
			t.Errorf("%q: exit %d, want %d (stderr %q)", tc.args, code, tc.code, stderr.String())
		}
		if !strings.HasPrefix(stdout.String(), tc.stdout) || (tc.stdout == "" && stdout.Len() > 0) {
			t.Errorf("%q: stdout %q, want prefix %q", tc.args, stdout.String(), tc.stdout)
		}
		if !strings.Contains(stderr.String(), tc.stderr) {
			t.Errorf("%q: stderr %q does not mention %q", tc.args, stderr.String(), tc.stderr)
		}
	}
}
