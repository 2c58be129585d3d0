package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"

	"redoop/internal/account"
	"redoop/internal/chaos"
	"redoop/internal/experiments"
	"redoop/internal/explain"
	"redoop/internal/health"
	"redoop/internal/lineage"
	"redoop/internal/obs"
	"redoop/internal/profile"
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
// rows, which pin the decision record's consumer: every Equation 4
// audit and the run's purge and rollback counts. explain-join was
// re-recorded when the decision record stopped losing the join's first
// recurrence to a full ring.
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

// TestSidecarReportsGolden pins what the sidecars report: the costs,
// reuse, lineage and health subcommands' stdout, the -metrics-out
// exposition of both queries, of a chaos run with a failed node and
// dropped caches and of the reuse subcommand (both at the default
// geometry: at three windows no forecast warms up, so neither forecast
// error nor a health anomaly shows), and, as a sha256 because the file runs to megabytes, the
// lineage subcommand's -lineage-out JSON. Each repeats byte for byte
// across runs and -workers settings, so a diff means a fold changed
// what it records, not only what it costs. The -trace-out of both
// queries and the -critpath-out overlay are pinned as sha256s too, but
// at -workers 1: a map or reduce span's "worker" arg names the host
// pool worker that computed it, which the scheduler picks, so two runs
// at a wider pool can write different trace bytes.
func TestSidecarReportsGolden(t *testing.T) {
	dir := t.TempDir()
	for _, tc := range []struct {
		golden string
		args   []string
		file   string // the artifact compared instead of stdout, if any
		sha    bool   // compare the artifact's sha256, hex, newline-ended
		full   bool   // run at the default geometry, not at three windows
	}{
		{golden: "costs", args: []string{"costs"}},
		{golden: "reuse", args: []string{"reuse"}},
		{golden: "lineage", args: []string{"lineage"}},
		{golden: "health", args: []string{"health"}},
		{golden: "metrics-agg", args: []string{"-query", "agg", "-metrics-out"}, file: "agg.prom"},
		{golden: "metrics-join", args: []string{"-query", "join", "-metrics-out"}, file: "join.prom"},
		{golden: "metrics-chaos-failnode", args: []string{"-chaos", "3", "-failnode", "2", "-dropcaches", "-metrics-out"},
			file: "chaos.prom", full: true},
		{golden: "metrics-reuse", args: []string{"reuse", "-metrics-out"}, file: "reuse.prom", full: true},
		{golden: "lineage-out.sha256", args: []string{"lineage", "-lineage-out"}, file: "lineage.json", sha: true},
		{golden: "trace-agg.sha256", args: []string{"-query", "agg", "-workers", "1", "-trace-out"}, file: "agg.trace.json", sha: true},
		{golden: "trace-join.sha256", args: []string{"-query", "join", "-workers", "1", "-trace-out"}, file: "join.trace.json", sha: true},
		{golden: "critpath-out.sha256", args: []string{"-workers", "1", "-critpath-out"}, file: "critpath.json", sha: true},
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
			if !tc.full {
				args = append(args, "-windows", "3", "-records", "6000")
			}
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

// TestProfileGolden pins the profile subcommand's whole report at the
// golden geometry: every line is virtual, so stdout repeats byte for
// byte.
func TestProfileGolden(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("testdata", "profile.golden"))
	if err != nil {
		t.Fatal(err)
	}
	var stdout, stderr bytes.Buffer
	if code := realMain([]string{"profile", "-windows", "3", "-records", "6000"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit code %d, stderr: %s", code, stderr.String())
	}
	if !bytes.Equal(stdout.Bytes(), want) {
		t.Errorf("stdout diverges from testdata/profile.golden\n--- got ---\n%s\n--- want ---\n%s", stdout.String(), want)
	}
}

// TestProfileLineageOutMatchesPlainRun: the profile subcommand runs the
// query once, so the provenance store it writes with -lineage-out holds
// the same batches, edges and rebuilds as a plain run's, to the byte.
func TestProfileLineageOutMatchesPlainRun(t *testing.T) {
	dir := t.TempDir()
	var files [][]byte
	for _, mode := range []string{"plain", "profile"} {
		path := filepath.Join(dir, mode+".json")
		args := []string{"-windows", "3", "-records", "6000", "-lineage-out", path}
		if mode == "profile" {
			args = append([]string{"profile"}, args...)
		}
		var stdout, stderr bytes.Buffer
		if code := realMain(args, &stdout, &stderr); code != 0 {
			t.Fatalf("%s: exit code %d, stderr: %s", mode, code, stderr.String())
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, data)
	}
	if !bytes.Equal(files[0], files[1]) {
		t.Errorf("profile -lineage-out differs from a plain run's (%d and %d bytes)", len(files[1]), len(files[0]))
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

// TestExplainAndProfileCoverTheSameRecurrences: explain and the
// profiler read one record, so a run longer than the record keeps lists
// the same recurrences in both — the newest 16 of 20 — and explain says
// that the earlier ones aged out.
func TestExplainAndProfileCoverTheSameRecurrences(t *testing.T) {
	critpath := filepath.Join(t.TempDir(), "critpath.json")
	var stdout, stderr bytes.Buffer
	args := []string{"explain", "-windows", "20", "-records", "6000", "-critpath-out", critpath}
	if code := realMain(args, &stdout, &stderr); code != 0 {
		t.Fatalf("exit code %d, stderr: %s", code, stderr.String())
	}
	var explained []int
	for _, line := range strings.Split(stdout.String(), "\n") {
		var r int
		if n, _ := fmt.Sscanf(line, "recurrence %d  window", &r); n == 1 {
			explained = append(explained, r)
		}
	}
	// The profiled recurrences are the spans of q1's critical-path
	// overlay track.
	data, err := os.ReadFile(critpath)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string
			Cat  string
			Ph   string
			Tid  int
			Args struct{ Name string }
		}
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	overlay := -1
	for _, ev := range doc.TraceEvents {
		if ev.Ph == "M" && ev.Name == "thread_name" && ev.Args.Name == "critical-path:q1" {
			overlay = ev.Tid
		}
	}
	var profiled []int
	for _, ev := range doc.TraceEvents {
		var r int
		if ev.Ph == "X" && ev.Tid == overlay && ev.Cat == "recurrence" {
			if n, _ := fmt.Sscanf(ev.Name, "recurrence %d", &r); n == 1 {
				profiled = append(profiled, r)
			}
		}
	}
	slices.Sort(profiled)
	var want []int
	for r := 4; r < 20; r++ {
		want = append(want, r)
	}
	if !slices.Equal(explained, want) || !slices.Equal(profiled, want) {
		t.Fatalf("explain lists recurrences %v and profile %v, want %v", explained, profiled, want)
	}
	if !strings.Contains(stdout.String(), "\nrecurrences 0..3 aged out of the record\n") {
		t.Errorf("explain does not say recurrences 0..3 aged out:\n%s", stdout.String())
	}
}

// TestExplainCountsRetries: a failed task attempt is recorded under its
// query's name, so explain's query filter keeps it and the report
// counts the retries a chaos schedule causes.
func TestExplainCountsRetries(t *testing.T) {
	var stdout, stderr bytes.Buffer
	args := []string{"explain", "-chaos", "3:mixed", "-windows", "4", "-records", "6000"}
	if code := realMain(args, &stdout, &stderr); code != 0 {
		t.Fatalf("exit code %d, stderr: %s", code, stderr.String())
	}
	var retries int
	for _, line := range strings.Split(stdout.String(), "\n") {
		fmt.Sscanf(line, "task attempts retried: %d", &retries)
	}
	if retries == 0 {
		t.Fatalf("explain reports no retried task attempt under chaos:\n%s", stdout.String())
	}
}

// TestExplainListsChaosCrashes: a node crash the chaos injector applies
// is a fault decision in the run's one record, so explain lists it on
// its "node failures injected" line like a -failnode crash.
func TestExplainListsChaosCrashes(t *testing.T) {
	const seed, windows = 4, 4
	cfg := experiments.Default()
	sched, err := chaos.Generate(seed, chaos.ProfileMixed, windows, cfg.Workers)
	if err != nil {
		t.Fatal(err)
	}
	crashed := -1 // the first scheduled crash always applies: every node is alive
	for _, a := range sched.Actions {
		if a.Kind == chaos.NodeCrash {
			crashed = a.Node % cfg.Workers
			break
		}
	}
	if crashed < 0 {
		t.Fatalf("chaos seed %d schedules no node crash: %s", seed, sched)
	}
	var stdout, stderr bytes.Buffer
	args := []string{"explain", "-chaos", strconv.Itoa(seed), "-windows", strconv.Itoa(windows), "-records", "6000"}
	if code := realMain(args, &stdout, &stderr); code != 0 {
		t.Fatalf("exit code %d, stderr: %s", code, stderr.String())
	}
	var line string
	for _, l := range strings.Split(stdout.String(), "\n") {
		if strings.HasPrefix(l, "node failures injected: ") {
			line = l
		}
	}
	nodes := strings.Fields(strings.Trim(strings.TrimPrefix(line, "node failures injected: "), "[]"))
	if !slices.Contains(nodes, strconv.Itoa(crashed)) {
		t.Fatalf("explain does not list the crash of node %d:\n%s", crashed, stdout.String())
	}
}

// errWriter fails every write, as a closed pipe or a full disk does.
type errWriter struct{}

var errClosed = errors.New("write on closed pipe")

func (errWriter) Write([]byte) (int, error) { return 0, errClosed }

// TestReportsReturnWriteErrors: each text report the subcommands print
// returns its writer's error, so a report into a closed pipe or a full
// disk fails the command instead of reporting success.
func TestReportsReturnWriteErrors(t *testing.T) {
	run := []obs.Event{{ID: 1, Cat: "recurrence", Track: obs.QueryTrack("q"), Name: "recurrence 0", End: 10}}
	cfg := experiments.Default()
	cfg.Windows, cfg.RecordsPerWindow = 3, 6000
	lin := cfg
	lin.Lineage, lin.Account = lineage.New(0), account.New()
	o := runOpts{QueryRun: experiments.QueryRun{Overlap: 0.9}, failNode: -1, spikeWin: -1}
	for _, tc := range []struct {
		name  string
		write func(io.Writer) error
	}{
		{"explain", explain.Build(nil, "q").Write},
		{"profile", func(w io.Writer) error { return profile.Analyze(run).Text(w, 0) }},
		{"costs", func(w io.Writer) error { return account.WriteReport(w, nil, 0) }},
		{"health", health.NewMonitor(health.DefaultConfig()).WriteText},
		{"lineage", func(w io.Writer) error { return runLineage(io.Discard, w, lin, o) }},
		{"reuse", func(w io.Writer) error { return runReuse(w, cfg) }},
	} {
		if err := tc.write(errWriter{}); !errors.Is(err, errClosed) {
			t.Errorf("%s report into a failing writer returned %v, want %v", tc.name, err, errClosed)
		}
	}
}
