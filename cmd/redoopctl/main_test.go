package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestUsageErrorsExit2: every rejected invocation exits 2 with a
// diagnostic on stderr and nothing on stdout, before any run starts.
func TestUsageErrorsExit2(t *testing.T) {
	for _, tc := range []struct {
		name string
		args []string
		want string // substring of the diagnostic
	}{
		{"unknown subcommand", []string{"bogus"}, `unknown subcommand "bogus"`},
		{"chaos with baseline", []string{"-chaos", "3", "-baseline"}, "-chaos cannot be combined with -baseline"},
		{"profile with baseline", []string{"profile", "-baseline"}, "profile needs the instrumented Redoop engine"},
		{"lineage with baseline", []string{"lineage", "-baseline"}, "lineage cannot be combined with -baseline"},
		{"stray positional", []string{"-windows", "3", "stray"}, `unexpected argument "stray"`},
		{"unknown flag", []string{"-no-such-flag"}, "flag provided but not defined"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if code := realMain(tc.args, &stdout, &stderr); code != 2 {
				t.Errorf("exit code %d, want 2", code)
			}
			if !strings.Contains(stderr.String(), tc.want) {
				t.Errorf("stderr %q lacks %q", stderr.String(), tc.want)
			}
			if stdout.Len() != 0 {
				t.Errorf("usage error wrote to stdout: %q", stdout.String())
			}
		})
	}
}

// TestRunGolden pins the per-window table and final-window report of
// the plain run on both systems and under each fault flag, on a serial
// and a 4-wide compute pool. The files under testdata/ are the stdout of
// the binary built at the commit before the run driver existed, when
// redoopctl carried its own ingest chain and recurrence loop, except
// chaos-failnode, recorded later: the injector's faults landing before
// the scripted flags' (the order every figure uses), and the explain
// rows, which pin the flight recorder's consumer: every Equation 4
// audit and the run's purge and rollback counts.
func TestRunGolden(t *testing.T) {
	for _, tc := range []struct {
		golden string
		args   []string
	}{
		{"agg", []string{"-query", "agg"}},
		{"join", []string{"-query", "join"}},
		{"baseline", []string{"-baseline"}},
		{"failnode-dropcaches", []string{"-failnode", "2", "-dropcaches"}},
		{"spikewin", []string{"-spikewin", "2"}},
		{"chaos", []string{"-chaos", "3"}},
		{"chaos-failnode", []string{"-chaos", "3", "-failnode", "2", "-dropcaches"}},
		{"explain-agg", []string{"explain", "-query", "agg"}},
		{"explain-join", []string{"explain", "-query", "join"}},
		{"explain-failnode-dropcaches", []string{"explain", "-failnode", "2", "-dropcaches"}},
	} {
		t.Run(tc.golden, func(t *testing.T) {
			want, err := os.ReadFile(filepath.Join("testdata", tc.golden+".golden"))
			if err != nil {
				t.Fatal(err)
			}
			for _, workers := range []string{"1", "4"} {
				t.Run("workers="+workers, func(t *testing.T) {
					var stdout, stderr bytes.Buffer
					args := append(tc.args, "-windows", "3", "-records", "6000", "-workers", workers)
					if code := realMain(args, &stdout, &stderr); code != 0 {
						t.Fatalf("exit code %d, stderr: %s", code, stderr.String())
					}
					if !bytes.Equal(stdout.Bytes(), want) {
						t.Errorf("stdout diverges from testdata/%s.golden\n--- got ---\n%s\n--- want ---\n%s", tc.golden, stdout.String(), want)
					}
				})
			}
		})
	}
}

// TestSidecarReportsGolden pins what the sidecars report: the costs and
// reuse subcommands' stdout, the -metrics-out exposition of both
// queries, and, as a sha256 because the file runs to megabytes, the
// lineage subcommand's -lineage-out JSON. Each repeats byte for byte
// across runs and -workers settings, so a diff means a fold changed
// what it records, not only what it costs.
func TestSidecarReportsGolden(t *testing.T) {
	dir := t.TempDir()
	for _, tc := range []struct {
		golden string
		args   []string
		file   string // the artifact compared instead of stdout, if any
		sha    bool   // compare the artifact's sha256, hex, newline-ended
	}{
		{golden: "costs", args: []string{"costs"}},
		{golden: "reuse", args: []string{"reuse"}},
		{golden: "metrics-agg", args: []string{"-query", "agg", "-metrics-out"}, file: "agg.prom"},
		{golden: "metrics-join", args: []string{"-query", "join", "-metrics-out"}, file: "join.prom"},
		{golden: "lineage-out.sha256", args: []string{"lineage", "-lineage-out"}, file: "lineage.json", sha: true},
	} {
		t.Run(tc.golden, func(t *testing.T) {
			name := tc.golden
			if !tc.sha {
				name += ".golden"
			}
			want, err := os.ReadFile(filepath.Join("testdata", name))
			if err != nil {
				t.Fatal(err)
			}
			args := tc.args
			if tc.file != "" {
				args = append(args, filepath.Join(dir, tc.file))
			}
			var stdout, stderr bytes.Buffer
			args = append(args, "-windows", "3", "-records", "6000")
			if code := realMain(args, &stdout, &stderr); code != 0 {
				t.Fatalf("exit code %d, stderr: %s", code, stderr.String())
			}
			got := stdout.Bytes()
			if tc.file != "" {
				if got, err = os.ReadFile(filepath.Join(dir, tc.file)); err != nil {
					t.Fatal(err)
				}
			}
			if tc.sha {
				sum := sha256.Sum256(got)
				got = []byte(hex.EncodeToString(sum[:]) + "\n")
			}
			if !bytes.Equal(got, want) {
				t.Errorf("output diverges from testdata/%s\n--- got ---\n%s\n--- want ---\n%s", name, got, want)
			}
		})
	}
}

// TestProfileGolden pins the profile subcommand's report at the golden
// geometry. The "parallel execution:" line measures host wall-clock, so
// it is dropped before comparing.
func TestProfileGolden(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("testdata", "profile.golden"))
	if err != nil {
		t.Fatal(err)
	}
	var stdout, stderr bytes.Buffer
	if code := realMain([]string{"profile", "-windows", "3", "-records", "6000"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit code %d, stderr: %s", code, stderr.String())
	}
	var got strings.Builder
	for _, line := range strings.SplitAfter(stdout.String(), "\n") {
		if !strings.HasPrefix(line, "parallel execution:") {
			got.WriteString(line)
		}
	}
	if got.String() != string(want) {
		t.Errorf("stdout diverges from testdata/profile.golden\n--- got ---\n%s\n--- want ---\n%s", got.String(), want)
	}
}

// TestSubcommandsMoveTableToStderr: under a subcommand the report owns
// stdout and the per-window table lands on stderr.
func TestSubcommandsMoveTableToStderr(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := realMain([]string{"health", "-windows", "3", "-records", "6000"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit code %d, stderr: %s", code, stderr.String())
	}
	if !strings.Contains(stderr.String(), "panes 10/0") {
		t.Errorf("per-window table missing from stderr: %q", stderr.String())
	}
	if !strings.HasPrefix(stdout.String(), "query") || strings.Contains(stdout.String(), "panes 10/0") {
		t.Errorf("stdout is not the health table alone: %q", stdout.String())
	}
}
