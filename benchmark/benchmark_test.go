package main

import (
	"encoding/json"
	"flag"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"sort"
	"testing"
	"time"

	"redoop/internal/records"
	"redoop/internal/window"
)

var update = flag.Bool("update", false, "rewrite ../BENCHMARK.json from the metric tables")

// shrunk is w with 1/div of the records.
func shrunk(w spec, div int) spec {
	w.sources = append([]source(nil), w.sources...)
	for i := range w.sources {
		w.sources[i].recsPerPane /= div
	}
	return w
}

// small is w with a tenth of the records, so a pass takes a fraction of
// a second.
func small(w spec) spec { return shrunk(w, 10) }

// samplesBeyond is how many of n samples lie strictly above the
// p-quantile's rank. A percentile is only reported when at least ten
// do, which is what minSteady guarantees for p90.
func samplesBeyond(n int, p float64) int { return n - rank(n, p) }

func TestPercentiles(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3, 10, 9, 8, 7, 6}
	if got := median(xs); got != 5 {
		t.Errorf("median = %v, want 5", got)
	}
	if got := percentile(xs, 0.9); got != 9 {
		t.Errorf("p90 = %v, want 9", got)
	}
	if got := percentile(xs, 1); got != 10 {
		t.Errorf("p100 = %v, want 10", got)
	}
	if xs[0] != 5 {
		t.Error("percentile reordered its input")
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of nothing should be NaN")
	}
	// A percentile is reported only with ten samples beyond it: p90
	// needs 100, which is what every run is held to.
	if got := samplesBeyond(minSteady, 0.9); got < 10 {
		t.Errorf("p90 over minSteady=%d samples has %d beyond it, want >= 10", minSteady, got)
	}
	if got := samplesBeyond(99, 0.9); got >= 10 {
		t.Errorf("p90 over 99 samples has %d beyond it, want < 10", got)
	}
	if fixedSteady > minSteady {
		t.Errorf("fixedSteady %d exceeds minSteady %d: the deterministic metrics would depend on host speed", fixedSteady, minSteady)
	}
}

func TestPoolRestamping(t *testing.T) {
	for _, w := range []spec{small(aggHi), small(aggLo), small(joinHi)} {
		pl := newPool(w, 7)
		frame := window.FrameOf(window.NewTimeSpec(window60, w.slide))
		for src := range w.sources {
			for _, p := range []int64{0, 5, poolPanes - 1, poolPanes, 3*poolPanes + 5} {
				got := pl.batch(src, p)
				want := pl.batch(src, p%poolPanes)
				if len(got) != w.sources[src].recsPerPane || len(got) != len(want) {
					t.Fatalf("%s source %d pane %d: %d records", w.name, src, p, len(got))
				}
				if !sort.SliceIsSorted(got, func(i, j int) bool { return got[i].Ts < got[j].Ts }) {
					t.Errorf("%s source %d pane %d: batch not in timestamp order", w.name, src, p)
				}
				for i, r := range got {
					if frame.PaneOf(r.Ts) != window.PaneID(p) {
						t.Fatalf("%s source %d pane %d: record at %d lies in pane %d", w.name, src, p, r.Ts, frame.PaneOf(r.Ts))
					}
					if string(r.Data) != string(want[i].Data) {
						t.Fatalf("%s source %d pane %d: payload %d differs from its pool slot", w.name, src, p, i)
					}
				}
			}
		}
	}
}

func TestSeedReachesOnlyTheGenerators(t *testing.T) {
	a, b := newPool(small(aggHi), 42), newPool(small(aggHi), 7)
	if string(a.slots[0][0].blob) == string(b.slots[0][0].blob) {
		t.Error("seeds 42 and 7 generated the same batch")
	}
	if c := newPool(small(aggHi), 42); string(a.slots[0][3].blob) != string(c.slots[0][3].blob) {
		t.Error("seed 42 generated two different pools")
	}
}

// A toy run of each query: 18 recurrences checked against the baseline,
// 4 more against the output one pool period earlier.
func TestOutputsVerifiedAndPeriodic(t *testing.T) {
	for _, w := range workloads {
		w = shrunk(w, 40)
		res, err := run(w, runOpts{seed: 42, warm: warmRecurrences, steadyMin: 4, verify: true})
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if res.attempted != warmRecurrences+4 || res.failed != 0 {
			t.Errorf("%s: attempted %d, failed %d (%s)", w.name, res.attempted, res.failed, res.failure)
		}
		if len(res.base) != warmRecurrences {
			t.Errorf("%s: %d recurrences went through the baseline, want %d", w.name, len(res.base), warmRecurrences)
		}
	}
}

func TestDigest(t *testing.T) {
	pairs := []records.Pair{
		{Key: []byte("a"), Value: []byte("1")},
		{Key: []byte("b"), Value: []byte("2")},
		{Key: []byte("c"), Value: []byte("3")},
	}
	want := digestOf(pairs)
	if got := digestOf([]records.Pair{pairs[2], pairs[0], pairs[1]}); got != want {
		t.Error("digest depends on pair order")
	}
	flipped := append([]records.Pair(nil), pairs...)
	flipped[1] = records.Pair{Key: []byte("b"), Value: []byte("3")}
	if digestOf(flipped) == want {
		t.Error("digest missed a changed value")
	}
	if digestOf([]records.Pair{{Key: []byte("ab"), Value: []byte("c")}}) == digestOf([]records.Pair{{Key: []byte("a"), Value: []byte("bc")}}) {
		t.Error("digest ignores where the key ends")
	}
	if digestOf(pairs[:2]) == want {
		t.Error("digest missed a dropped pair")
	}
}

// The verifier must object when a single output pair is wrong, both
// while it compares against the baseline and once it compares against
// the earlier recurrence.
func TestVerificationCatchesAFlippedPair(t *testing.T) {
	w := small(aggHi)
	pl := newPool(w, 42)
	sys, err := newSystem(w)
	if err != nil {
		t.Fatal(err)
	}
	frames, err := sys.eng.Query().Frames()
	if err != nil {
		t.Fatal(err)
	}
	feed := &feeder{pl: pl, frame: frames[0]}
	ver, err := newVerifier(w, frames[0], true)
	if err != nil {
		t.Fatal(err)
	}
	// Recurrence 3 is checked against the baseline, 23 against recurrence
	// 5; 21 is right but is compared with the tampered recurrence 3, which
	// shows that the later checks chain back to verified outputs.
	tamper := map[int]bool{3: true, warmRecurrences + 5: true}
	wantFlagged := []int{3, warmRecurrences + 3, warmRecurrences + 5}
	var flagged []int
	for r := 0; r < 2*warmRecurrences; r++ {
		if r == warmRecurrences {
			ver.drv = nil
		}
		batches := feed.slide(r)
		for _, b := range batches {
			if err := sys.ingest(b.src, b.recs); err != nil {
				t.Fatal(err)
			}
		}
		out, err := sys.eng.RunNext()
		if err != nil {
			t.Fatal(err)
		}
		if tamper[r] {
			out.Output[len(out.Output)/2].Value = []byte("0")
		}
		wrong, err := ver.check(r, out.Output, batches, nil)
		if err != nil {
			t.Fatal(err)
		}
		if wrong != "" {
			flagged = append(flagged, r)
		}
	}
	if !slices.Equal(flagged, wantFlagged) {
		t.Errorf("verifier objected to recurrences %v, want %v", flagged, wantFlagged)
	}
}

// Smoke run of agg-hi-overlap at 18 + 5 recurrences (a tenth of the
// records): all end-to-end metrics come out, finite and non-zero.
func TestEndToEndSmoke(t *testing.T) {
	res, err := run(small(aggHi), runOpts{seed: 42, setups: 3, warm: warmRecurrences, steadyMin: 5, verify: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.failed != 0 {
		t.Fatalf("failed %d: %s", res.failed, res.failure)
	}
	if len(res.setupS) != 3 {
		t.Errorf("%d set-ups timed, want 3", len(res.setupS))
	}
	res.liveHeapMB = 1 // taken at steady recurrence fixedSteady, beyond this run
	got := res.endToEnd()
	for _, m := range endToEnd {
		v, ok := got[m.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) || v <= 0 {
			t.Errorf("%s = %v (present %v), want a positive number", m.name, v, ok)
		}
	}
	if len(got) != len(endToEnd) {
		t.Errorf("%d metrics computed, table has %d", len(got), len(endToEnd))
	}
}

// A traced toy pass: every layer the replay claims to time has spans,
// spans nest under their recurrence's replay span, and the trace file
// is valid JSON.
func TestTraceAndReplay(t *testing.T) {
	for _, w := range []spec{shrunk(aggLo, 40), shrunk(joinHi, 40)} {
		tr := newTracer()
		res, err := run(w, runOpts{seed: 42, warm: warmRecurrences, steadyMin: 2, verify: true, tr: tr})
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if res.failed != 0 {
			t.Fatalf("%s: failed %d: %s", w.name, res.failed, res.failure)
		}
		names := append([]string{"engine.ingest", "engine.run", "baseline.run",
			"packer.ingest", "dfs.read", "dfs.write", "colfmt.encode_records", "colfmt.decode_records", "mapreduce.group"}, inRunNext...)
		for _, name := range names {
			if tr.totalMS(name, -1) <= 0 {
				t.Errorf("%s: no time recorded for span %q", w.name, name)
			}
		}
		for i, s := range tr.spans {
			if s.end < s.start {
				t.Errorf("%s: span %d %q ends before it starts", w.name, i, s.name)
			}
			if s.parent >= 0 {
				p := tr.spans[s.parent]
				if p.recurrence != s.recurrence || s.start < p.start || s.end > p.end {
					t.Errorf("%s: span %d %q does not lie inside its parent %q", w.name, i, s.name, p.name)
				}
			}
		}
		if res.replay.pairsBytes == 0 || res.replay.mrAlloc == 0 || res.replay.packerAlloc == 0 {
			t.Errorf("%s: replay counters empty: %+v", w.name, res.replay)
		}
		path := filepath.Join(t.TempDir(), "trace.json")
		if err := tr.writeChrome(path); err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		var doc struct {
			TraceEvents []map[string]any `json:"traceEvents"`
		}
		if err := json.Unmarshal(data, &doc); err != nil || len(doc.TraceEvents) != len(tr.spans) {
			t.Errorf("%s: trace file: %v, %d events for %d spans", w.name, err, len(doc.TraceEvents), len(tr.spans))
		}
	}
}

func TestHostSpeed(t *testing.T) {
	calib := make([]time.Duration, 20)
	for i := range calib {
		calib[i] = calibRef
	}
	calib[7] = 10 * calibRef // one disturbed calibration must not move its neighbours
	for i, f := range hostSpeed(calib) {
		if f != 1 {
			t.Errorf("factor %d = %v, want 1", i, f)
		}
	}
	for i := 10; i < 20; i++ {
		calib[i] = 2 * calibRef
	}
	f := hostSpeed(calib)
	if f[2] != 1 || f[17] != 2 {
		t.Errorf("factors %v do not follow a lasting slowdown", f)
	}
	if d := calibrate(); d <= 0 {
		t.Errorf("calibrate took %v", d)
	}
}

// benchmarkJSON is the file the driver reads.
type benchmarkJSON struct {
	Command    []string     `json:"command"`
	Paths      []string     `json:"paths"`
	RunSeconds int          `json:"run_seconds"`
	Workloads  []jsonNamed  `json:"workloads"`
	EndToEnd   []jsonMetric `json:"end_to_end"`
	PerLayer   []jsonMetric `json:"per_layer"`
}

type jsonNamed struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type jsonMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

// BENCHMARK.json and the tables the harness prints from must name the
// same workloads and metrics, with the same units, directions and
// bounds, within the driver's limits. `go test -run BenchmarkJSON
// -update` rewrites the file from the tables.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	want := benchmarkJSON{
		Command:    []string{"bash", "benchmark/run.sh"},
		Paths:      []string{"benchmark"},
		RunSeconds: 10,
	}
	for _, w := range workloads {
		want.Workloads = append(want.Workloads, jsonNamed{w.name, w.why})
	}
	for _, m := range endToEnd {
		bound := m.bound
		want.EndToEnd = append(want.EndToEnd, jsonMetric{m.name, m.unit, m.better, &bound})
	}
	for _, m := range perLayer {
		want.PerLayer = append(want.PerLayer, jsonMetric{m.name, m.unit, m.better, nil})
	}
	wantBytes, err := json.MarshalIndent(want, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	wantBytes = append(wantBytes, '\n')
	const path = "../BENCHMARK.json"
	if *update {
		if err := os.WriteFile(path, wantBytes, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(wantBytes) {
		t.Errorf("%s is out of step with the tables in spec.go; run go test -run BenchmarkJSON -update", path)
	}

	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	checkName := func(n string) {
		if !name.MatchString(n) {
			t.Errorf("name %q is not 1-64 of [A-Za-z0-9_.-] starting with a letter or digit", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	for _, w := range workloads {
		checkName(w.name)
		if len(w.why) > 200 {
			t.Errorf("workload %s: why has %d characters, limit 200", w.name, len(w.why))
		}
	}
	setup := false
	for _, m := range append(append([]metric(nil), endToEnd...), perLayer...) {
		checkName(m.name)
		if !unit.MatchString(m.unit) {
			t.Errorf("metric %s: unit %q", m.name, m.unit)
		}
		if m.better != "lower" && m.better != "higher" {
			t.Errorf("metric %s: better %q", m.name, m.better)
		}
		setup = setup || (m.name == "setup_s" && m.unit == "s" && m.better == "lower")
	}
	for _, m := range endToEnd {
		if m.bound <= 0 || m.bound > 0.25 {
			t.Errorf("metric %s: bound %v outside (0, 0.25]", m.name, m.bound)
		}
	}
	if !setup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	if n := len(workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2 to 8", n)
	}
	if n := len(endToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1 to 16", n)
	}
	if n := len(perLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1 to 128", n)
	}
	if len(wantBytes) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, limit 64 KiB", len(wantBytes))
	}
}
