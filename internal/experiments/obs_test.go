package experiments

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"redoop/internal/obs"
)

// TestObservedRunProducesKeySeries runs a small instrumented Redoop
// series end to end and asserts the observability layer captured the
// quantities the paper's evaluation is built from: cache hits and
// misses, Equation 4 placement outcomes, shuffle bytes, and a
// Perfetto-loadable trace whose recurrence spans contain task spans.
func TestObservedRunProducesKeySeries(t *testing.T) {
	cfg := tinyConfig()
	ob := obs.New()
	cfg.Obs = ob
	if _, err := cfg.series(cfg.aggSpec("q1", 0.9), redoop("Redoop")); err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := ob.Metrics.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	exposition := buf.String()
	// The high-overlap steady state must show real cache reuse, real
	// placement decisions and real shuffle traffic — a zero here means
	// an instrumentation hook fell off.
	for _, series := range []string{
		`redoop_cache_lookups_total{result="hit"`,
		`redoop_cache_lookups_total{result="miss"`,
		`redoop_placements_total{outcome="cache-local"}`,
		`redoop_shuffle_bytes_total{locality=`,
		`redoop_map_tasks_total`,
		`redoop_recurrences_total{query="q1"`,
		`redoop_cache_registrations_total`,
		`redoop_dfs_writes_total`,
	} {
		if !strings.Contains(exposition, series) {
			t.Errorf("exposition missing series %q", series)
		}
	}

	buf.Reset()
	if err := ob.Tracer.WriteTraceJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	cats := map[string]int{}
	tracks := map[string]bool{}
	for _, e := range doc.TraceEvents {
		if c, ok := e["cat"].(string); ok {
			cats[c]++
		}
		if e["ph"] == "M" && e["name"] == "thread_name" {
			args := e["args"].(map[string]any)
			tracks[args["name"].(string)] = true
		}
	}
	for _, cat := range []string{"recurrence", "phase", "map", "reduce"} {
		if cats[cat] == 0 {
			t.Errorf("trace has no %q spans (cats: %v)", cat, cats)
		}
	}
	if !tracks["query:q1"] {
		t.Errorf("trace missing the query track (tracks: %v)", tracks)
	}
	if cats["recurrence"] != cfg.Windows {
		t.Errorf("recurrence spans = %d, want %d", cats["recurrence"], cfg.Windows)
	}
}
