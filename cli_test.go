package mellow_test

import (
	"bytes"
	"errors"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// buildCLIs builds mellowbench, mellowsim and mellowtrace from this
// checkout into a fresh directory and returns it.
func buildCLIs(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	cmd := exec.Command("go", "build", "-o", dir+string(filepath.Separator),
		"./cmd/mellowbench", "./cmd/mellowsim", "./cmd/mellowtrace")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return dir
}

// runCLI runs one built binary and returns its exit code, stdout and
// stderr.
func runCLI(t *testing.T, dir, name string, args ...string) (int, []byte, string) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	cmd := exec.Command(filepath.Join(dir, name), args...)
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	err := cmd.Run()
	var exit *exec.ExitError
	switch {
	case err == nil:
		return 0, stdout.Bytes(), stderr.String()
	case errors.As(err, &exit):
		return exit.ExitCode(), stdout.Bytes(), stderr.String()
	}
	t.Fatalf("%s: %v", name, err)
	return 0, nil, ""
}

// TestCLIRejectsBadInput is the command-line tools' negative table:
// each bad input exits with the expected code, prints nothing on
// stdout, and names the problem on the first line of stderr. Without
// -short it also pins the observed JSON report at the binary: two runs
// of the same experiment print the same bytes.
func TestCLIRejectsBadInput(t *testing.T) {
	bin := buildCLIs(t)
	missing := filepath.Join(t.TempDir(), "missing")
	for _, tc := range []struct {
		name string
		args []string
		code int
		msg  string
	}{
		{"mellowbench bad flag", []string{"mellowbench", "-bogus"}, 2, "flag provided but not defined: -bogus"},
		{"mellowsim bad flag", []string{"mellowsim", "-bogus"}, 2, "flag provided but not defined: -bogus"},
		{"mellowtrace bad flag", []string{"mellowtrace", "-bogus"}, 2, "flag provided but not defined: -bogus"},
		{"unknown experiment", []string{"mellowbench", "-exp", "fig99"}, 1,
			`mellowbench: experiments: unknown id "fig99"`},
		{"mellowbench unknown workload", []string{"mellowbench", "-exp", "fig3", "-workloads", "nosuch"}, 1,
			`mellowbench: fig3: trace: unknown workload "nosuch"`},
		{"mellowsim unknown workload", []string{"mellowsim", "-workload", "nosuch"}, 1,
			`mellowsim: trace: unknown workload "nosuch"`},
		{"mellowtrace unknown workload", []string{"mellowtrace", "-workload", "nosuch"}, 1,
			`mellowtrace: trace: unknown workload "nosuch"`},
		{"interval below the floor", []string{"mellowbench", "-exp", "fig3", "-interval", "500ns"}, 1,
			"mellowbench: -interval 500ns: interval_ns 500 below the 1000 ns (1 µs) floor"},
		{"mellowbench bad leveler", []string{"mellowbench", "-exp", "fig3", "-leveler", "bogus"}, 1,
			`mellowbench: config: unknown wear leveler "bogus"`},
		{"mellowsim bad leveler", []string{"mellowsim", "-leveler", "bogus"}, 1,
			`mellowsim: config: unknown wear leveler "bogus"`},
		{"missing scenario dir", []string{"mellowbench", "-scenario-dir", missing}, 1,
			"mellowbench: scenario: lstat " + missing},
		{"missing trace file", []string{"mellowsim", "-trace", missing}, 1,
			"mellowsim: open " + missing},
	} {
		t.Run(tc.name, func(t *testing.T) {
			code, stdout, stderr := runCLI(t, bin, tc.args[0], tc.args[1:]...)
			first, _, _ := strings.Cut(stderr, "\n")
			if code != tc.code || len(stdout) != 0 || !strings.Contains(first, tc.msg) {
				t.Errorf("%s: exit %d, %d stdout bytes, first stderr line %q; want exit %d, no stdout, %q",
					strings.Join(tc.args, " "), code, len(stdout), first, tc.code, tc.msg)
			}
		})
	}

	if testing.Short() {
		return
	}
	args := []string{"-exp", "fig18", "-quick", "-json", "-interval", "200us"}
	var first []byte
	for run := 0; run < 2; run++ {
		code, stdout, stderr := runCLI(t, bin, "mellowbench", args...)
		if code != 0 {
			t.Fatalf("mellowbench %s: exit %d: %s", strings.Join(args, " "), code, stderr)
		}
		if run == 0 {
			first = stdout
		} else if !bytes.Equal(stdout, first) {
			t.Errorf("mellowbench %s printed different reports on two runs", strings.Join(args, " "))
		}
	}
	if !bytes.Contains(first, []byte(`"variant": "4"`)) {
		t.Errorf("fig18 report carries no per-variant series")
	}
}
