package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestRunRejectsBadInput: a malformed invocation exits 2 with the
// reason on stderr before any experiment runs, so nothing reaches
// stdout; an unknown experiment id exits 1. Well-formed invocations
// print their tables and exit 0.
func TestRunRejectsBadInput(t *testing.T) {
	for _, tc := range []struct {
		args   string
		code   int
		stderr string // substring, when code != 0
		stdout string // substring that must appear on stdout
	}{
		{args: "-quick fig3", code: 2, stderr: `unexpected argument "fig3"`},
		{args: "-quick -only fig3 extra", code: 2, stderr: `unexpected argument "extra"`},
		{args: "-parallel 0", code: 2, stderr: "-parallel 0 < 1"},
		{args: "-parallel -4", code: 2, stderr: "-parallel -4 < 1"},
		{args: "-no-such-flag", code: 2, stderr: "no-such-flag"},
		{args: "-only nosuch", code: 1, stderr: `unknown experiment "nosuch"`},
		{args: "-list", stdout: "fig3"},
		{args: "-quick -parallel 1 -only fig3", stdout: "################"},
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
			if stdout.Len() != 0 {
				t.Errorf("%s: rejected invocation wrote to stdout: %q", tc.args, stdout.String())
			}
		}
		if !strings.Contains(stdout.String(), tc.stdout) {
			t.Errorf("%s: stdout %q does not contain %q", tc.args, stdout.String(), tc.stdout)
		}
	}
}
