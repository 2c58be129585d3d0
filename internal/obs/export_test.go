package obs

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"redoop/internal/obs/eventlog"
	"redoop/internal/simtime"
)

// TestWritePrometheus checks the text exposition: TYPE lines, label
// rendering, histogram _bucket/_sum/_count series, and deterministic
// ordering.
func TestWritePrometheus(t *testing.T) {
	x := newExposition()
	x.Add("redoop_cache_lookups_total", 7, L("result", "hit"))
	x.Add("redoop_cache_lookups_total", 3, L("result", "miss"))
	x.Set("redoop_dfs_bytes", 1024)
	x.Observe("redoop_task_seconds", 0.05)
	x.Observe("redoop_task_seconds", 0.5)
	x.Observe("redoop_task_seconds", 5)

	var buf bytes.Buffer
	if err := x.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# TYPE redoop_cache_lookups_total counter",
		`redoop_cache_lookups_total{result="hit"} 7`,
		`redoop_cache_lookups_total{result="miss"} 3`,
		"# TYPE redoop_dfs_bytes gauge",
		"redoop_dfs_bytes 1024",
		"# TYPE redoop_task_seconds histogram",
		`redoop_task_seconds_bucket{le="` + promFloat(DefBuckets[8]) + `"} 1`,  // 0.066
		`redoop_task_seconds_bucket{le="` + promFloat(DefBuckets[10]) + `"} 2`, // 1.05
		`redoop_task_seconds_bucket{le="+Inf"} 3`,
		"redoop_task_seconds_sum 5.55",
		"redoop_task_seconds_count 3",
		"# TYPE redoop_task_seconds_quantile gauge",
		`redoop_task_seconds_quantile{quantile="0.5"}`,
		`redoop_task_seconds_quantile{quantile="0.9"}`,
		`redoop_task_seconds_quantile{quantile="0.99"}`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q\n---\n%s", want, out)
		}
	}
	// TYPE line appears once per metric name, not per series.
	if n := strings.Count(out, "# TYPE redoop_cache_lookups_total"); n != 1 {
		t.Errorf("TYPE line count = %d, want 1", n)
	}
	// Deterministic: a second export matches byte-for-byte.
	var buf2 bytes.Buffer
	if err := x.WritePrometheus(&buf2); err != nil {
		t.Fatal(err)
	}
	if buf2.String() != out {
		t.Error("exposition is not deterministic")
	}
}

// TestQuantileLinesOrdered checks the exposed quantile estimates are
// monotone (p50 <= p90 <= p99) and clamped to the observed range.
func TestQuantileLinesOrdered(t *testing.T) {
	h := newHistogram([]float64{1, 10, 100})
	for v := 1; v <= 1000; v++ {
		h.Observe(float64(v % 90))
	}
	p50, p90, p99 := h.Quantile(0.5), h.Quantile(0.9), h.Quantile(0.99)
	if !(p50 <= p90 && p90 <= p99) {
		t.Errorf("quantiles not monotone: %v %v %v", p50, p90, p99)
	}
	if p99 > 89 || p50 < 0 {
		t.Errorf("quantiles leave the observed range [0, 89]: p50=%v p99=%v", p50, p99)
	}
}

// TestWriteFilesAtomicCreatesDirs checks the artifact writers create
// missing parent directories and leave no temp files behind.
func TestWriteFilesAtomicCreatesDirs(t *testing.T) {
	dir := t.TempDir()
	x := newExposition()
	x.Add("c", 1)
	mpath := filepath.Join(dir, "out", "nested", "metrics.prom")
	if err := x.WriteMetricsFile(mpath); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(mpath)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "c 1") {
		t.Errorf("metrics file content = %q", data)
	}

	tr := New()
	tr.Task(TaskSpan{Kind: SpanReplicate, Track: "t", Input: "m", End: 1})
	tpath := filepath.Join(dir, "traces", "run.trace.json")
	if err := tr.WriteTraceFile(tpath); err != nil {
		t.Fatal(err)
	}
	var doc map[string]any
	raw, err := os.ReadFile(tpath)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("trace file is not valid JSON: %v", err)
	}

	for _, d := range []string{filepath.Dir(mpath), filepath.Dir(tpath)} {
		ents, err := os.ReadDir(d)
		if err != nil {
			t.Fatal(err)
		}
		if len(ents) != 1 {
			t.Errorf("%s holds %d entries, want only the artifact", d, len(ents))
		}
	}
}

// TestWriteFileAtomicFailureKeepsOld checks a failing write leaves the
// previous artifact intact.
func TestWriteFileAtomicFailureKeepsOld(t *testing.T) {
	path := filepath.Join(t.TempDir(), "art.txt")
	if err := WriteFileAtomic(path, func(w io.Writer) error {
		_, err := io.WriteString(w, "good")
		return err
	}); err != nil {
		t.Fatal(err)
	}
	wantErr := errors.New("boom")
	if err := WriteFileAtomic(path, func(w io.Writer) error {
		io.WriteString(w, "partial")
		return wantErr
	}); !errors.Is(err, wantErr) {
		t.Fatalf("err = %v, want %v", err, wantErr)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != "good" {
		t.Errorf("artifact = %q after failed rewrite, want %q", data, "good")
	}
}

// TestWriteTraceJSON checks the Chrome trace document: valid JSON,
// track metadata, complete events with microsecond ts/dur, a decision
// as an instant on its query's track, and nesting-compatible
// timestamps.
func TestWriteTraceJSON(t *testing.T) {
	tr := New()
	// recurrence span containing a phase span containing a task span,
	// all on one track — the containment Perfetto renders as nesting.
	tr.Task(TaskSpan{Kind: SpanRecurrence, Track: "query:q1", End: simtime.Time(10 * simtime.Millisecond)})
	tr.Task(TaskSpan{Kind: SpanPhase, Track: "query:q1", Input: "S1", Pane: 3,
		Start: simtime.Time(simtime.Millisecond), End: simtime.Time(4 * simtime.Millisecond)})
	tr.Task(TaskSpan{Kind: SpanMap, Track: "node:2", Input: "S1", Block: 3, Attempt: 1,
		Start: simtime.Time(simtime.Millisecond), End: simtime.Time(2 * simtime.Millisecond)})
	tr.Emit(simtime.Time(9*simtime.Millisecond), eventlog.Replan, "q1", eventlog.ReplanData{SubPanes: 2})

	var buf bytes.Buffer
	if err := tr.WriteTraceJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	// 1 process_name + 2 thread_name + 3 spans + 1 instant.
	if len(doc.TraceEvents) != 7 {
		t.Fatalf("event count = %d, want 7", len(doc.TraceEvents))
	}
	var spans, instants, meta int
	threadNames := map[string]bool{}
	for _, e := range doc.TraceEvents {
		switch e["ph"] {
		case "X":
			spans++
			if _, ok := e["dur"].(float64); !ok {
				t.Errorf("span %v has no dur", e["name"])
			}
		case "i":
			instants++
		case "M":
			meta++
			if e["name"] == "thread_name" {
				args := e["args"].(map[string]any)
				threadNames[args["name"].(string)] = true
			}
		}
	}
	if spans != 3 || instants != 1 || meta != 3 {
		t.Errorf("spans/instants/meta = %d/%d/%d", spans, instants, meta)
	}
	if !threadNames["query:q1"] || !threadNames["node:2"] {
		t.Errorf("track names missing: %v", threadNames)
	}
	// The recurrence span: ts 0, dur 10ms == 10000 µs.
	for _, e := range doc.TraceEvents {
		if e["name"] == "recurrence 0" {
			if ts := e["ts"].(float64); ts != 0 {
				t.Errorf("recurrence ts = %v", ts)
			}
			if dur := e["dur"].(float64); dur != 10000 {
				t.Errorf("recurrence dur = %v µs, want 10000", dur)
			}
		}
	}
}

// TestTraceBackwardsSpanClamped checks end<start clamps instead of
// producing a negative duration.
func TestTraceBackwardsSpanClamped(t *testing.T) {
	tr := New()
	tr.Task(TaskSpan{Kind: SpanPhase, Track: "t", Start: 100, End: 50})
	ev := tr.Events()[0]
	if ev.End != ev.Start {
		t.Errorf("span not clamped: %+v", ev)
	}
}

// TestNilExporters checks a nil tracer still produces valid, empty
// documents.
func TestNilExporters(t *testing.T) {
	var tr *Tracer
	var buf bytes.Buffer
	if err := tr.Exposition().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if buf.Len() != 0 {
		t.Errorf("nil tracer exposition = %q", buf.String())
	}
	buf.Reset()
	if err := tr.WriteTraceJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var doc map[string]any
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	if _, ok := doc["traceEvents"]; !ok {
		t.Error("nil tracer doc missing traceEvents")
	}
}

// A dropped segment's arrays take the next recurrence's spans unless
// they are more than twice what the closing one needed: a first
// recurrence ten times the size of the rest is let go once it ages
// out, not handed on for the whole run, and the steady recurrences
// after it keep recycling theirs.
func TestTracerLetsGoOfOversizedSegments(t *testing.T) {
	tr := New()
	rec := func(spans int) {
		for i := 0; i < spans; i++ {
			tr.Task(TaskSpan{Kind: SpanPhase, Track: "query:q", End: 1})
		}
		tr.Task(TaskSpan{Kind: SpanRecurrence, Track: "query:q", End: 2})
	}
	rec(1000)
	for r := 0; r < KeepRecurrences; r++ {
		rec(100)
	}
	if n := cap(tr.open.spans); n != 0 {
		t.Fatalf("the first recurrence's %d-span array was handed on", n)
	}
	for r := 0; r <= KeepRecurrences; r++ {
		rec(100)
	}
	if n := testing.AllocsPerRun(20, func() { rec(100) }); n != 0 {
		t.Fatalf("a steady recurrence allocates %v times", n)
	}
}
