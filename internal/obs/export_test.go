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
	r := NewRegistry()
	r.Counter("redoop_cache_lookups_total", L("result", "hit")).Add(7)
	r.Counter("redoop_cache_lookups_total", L("result", "miss")).Add(3)
	r.Gauge("redoop_dfs_bytes").Set(1024)
	h := r.HistogramBuckets("redoop_task_seconds", []float64{0.1, 1})
	h.Observe(0.05)
	h.Observe(0.5)
	h.Observe(5)

	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
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
		`redoop_task_seconds_bucket{le="0.1"} 1`,
		`redoop_task_seconds_bucket{le="1"} 2`,
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
	if err := r.WritePrometheus(&buf2); err != nil {
		t.Fatal(err)
	}
	if buf2.String() != out {
		t.Error("exposition is not deterministic")
	}
}

// TestQuantileLinesOrdered checks the exposed quantile estimates are
// monotone (p50 <= p90 <= p99) and clamped to the observed range.
func TestQuantileLinesOrdered(t *testing.T) {
	r := NewRegistry()
	h := r.HistogramBuckets("lat", []float64{1, 10, 100})
	for v := 1; v <= 1000; v++ {
		h.Observe(float64(v % 90))
	}
	p50, p90, p99 := h.Quantile(0.5), h.Quantile(0.9), h.Quantile(0.99)
	if !(p50 <= p90 && p90 <= p99) {
		t.Errorf("quantiles not monotone: %v %v %v", p50, p90, p99)
	}
	if p99 > h.Max() || p50 < h.Min() {
		t.Errorf("quantiles leave the observed range: p50=%v p99=%v min=%v max=%v",
			p50, p99, h.Min(), h.Max())
	}
}

// TestWriteQuantileTable checks the stderr table: header, one row per
// histogram series, nothing for an empty or nil registry.
func TestWriteQuantileTable(t *testing.T) {
	r := NewRegistry()
	r.Counter("only_counter").Inc()
	var buf bytes.Buffer
	if err := r.WriteQuantileTable(&buf); err != nil {
		t.Fatal(err)
	}
	if buf.Len() != 0 {
		t.Errorf("table with no histograms = %q", buf.String())
	}

	r.Histogram("a_seconds", L("phase", "map")).Observe(2)
	r.Histogram("a_seconds", L("phase", "reduce")).Observe(3)
	buf.Reset()
	if err := r.WriteQuantileTable(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 3 {
		t.Fatalf("table lines = %d, want header + 2 rows:\n%s", len(lines), out)
	}
	for _, want := range []string{"p50", "p90", "p99", `a_seconds{phase="map"}`, `a_seconds{phase="reduce"}`} {
		if !strings.Contains(out, want) {
			t.Errorf("table missing %q:\n%s", want, out)
		}
	}

	var nilReg *Registry
	buf.Reset()
	if err := nilReg.WriteQuantileTable(&buf); err != nil || buf.Len() != 0 {
		t.Errorf("nil registry table: err=%v out=%q", err, buf.String())
	}
}

// TestWriteFilesAtomicCreatesDirs checks the artifact writers create
// missing parent directories and leave no temp files behind.
func TestWriteFilesAtomicCreatesDirs(t *testing.T) {
	dir := t.TempDir()
	r := NewRegistry()
	r.Counter("c").Inc()
	mpath := filepath.Join(dir, "out", "nested", "metrics.prom")
	if err := r.WriteMetricsFile(mpath); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(mpath)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "c 1") {
		t.Errorf("metrics file content = %q", data)
	}

	tr := NewTracer()
	tr.Span("t", "c", "m", 0, 1)
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

// TestWriteJSONSnapshot checks the JSON exporter round-trips through
// encoding/json and carries quantiles.
func TestWriteJSONSnapshot(t *testing.T) {
	r := NewRegistry()
	r.Counter("c", L("k", "v")).Add(2)
	r.Gauge("g").Set(-3)
	h := r.HistogramBuckets("h", []float64{10, 100})
	for v := 1; v <= 100; v++ {
		h.Observe(float64(v))
	}

	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var snap Snapshot
	if err := json.Unmarshal(buf.Bytes(), &snap); err != nil {
		t.Fatalf("snapshot is not valid JSON: %v", err)
	}
	if len(snap.Counters) != 1 || snap.Counters[0].Value != 2 || snap.Counters[0].Labels["k"] != "v" {
		t.Errorf("counters = %+v", snap.Counters)
	}
	if len(snap.Gauges) != 1 || snap.Gauges[0].Value != -3 {
		t.Errorf("gauges = %+v", snap.Gauges)
	}
	if len(snap.Histograms) != 1 {
		t.Fatalf("histograms = %+v", snap.Histograms)
	}
	hs := snap.Histograms[0]
	if hs.Count != 100 || hs.Min != 1 || hs.Max != 100 {
		t.Errorf("histogram stats = %+v", hs)
	}
	if hs.P50 < 30 || hs.P50 > 70 {
		t.Errorf("p50 = %v, want ~50", hs.P50)
	}
	if hs.Buckets[len(hs.Buckets)-1].Le != "+Inf" {
		t.Errorf("last bucket le = %q", hs.Buckets[len(hs.Buckets)-1].Le)
	}
}

// TestWriteTraceJSON checks the Chrome trace document: valid JSON,
// track metadata, complete events with microsecond ts/dur, a decision
// as an instant on its query's track, and nesting-compatible
// timestamps.
func TestWriteTraceJSON(t *testing.T) {
	tr := NewTracer()
	// recurrence span containing a phase span containing a task span,
	// all on one track — the containment Perfetto renders as nesting.
	tr.Span("query:q1", "recurrence", "recurrence 0", 0, simtime.Time(10*simtime.Millisecond))
	tr.Span("query:q1", "phase", "map pane 3", simtime.Time(simtime.Millisecond), simtime.Time(4*simtime.Millisecond))
	tr.Span("node:2", "task", "map S1P3", simtime.Time(simtime.Millisecond), simtime.Time(2*simtime.Millisecond),
		L("attempt", "1"))
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
	tr := NewTracer()
	tr.Span("t", "c", "oops", 100, 50)
	ev := tr.Events()[0]
	if ev.End != ev.Start {
		t.Errorf("span not clamped: %+v", ev)
	}
}

// TestNilExporters checks nil registry/tracer still produce valid,
// empty documents.
func TestNilExporters(t *testing.T) {
	var r *Registry
	var tr *Tracer
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if buf.Len() != 0 {
		t.Errorf("nil registry exposition = %q", buf.String())
	}
	buf.Reset()
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var snap Snapshot
	if err := json.Unmarshal(buf.Bytes(), &snap); err != nil {
		t.Fatal(err)
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
