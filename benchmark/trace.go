package main

import (
	"encoding/json"
	"os"
	"time"
)

// span is one timed call into a layer, recorded from outside it.
type span struct {
	name       string
	start, end time.Duration // since the tracer's epoch
	parent     int           // index of the causing span, -1 for a root
	recurrence int           // -1 for set-up work
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, so the untraced run pays two time.Now calls per span at most.
type tracer struct {
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// add records a finished span and returns its index.
func (t *tracer) add(name string, start, end time.Time, parent, recurrence int) int {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{name, start.Sub(t.epoch), end.Sub(t.epoch), parent, recurrence})
	return len(t.spans) - 1
}

// begin opens a span that finish closes; children name it as parent.
func (t *tracer) begin(name string, parent, recurrence int) int {
	now := time.Now()
	return t.add(name, now, now, parent, recurrence)
}

func (t *tracer) finish(id int) { t.spans[id].end = time.Since(t.epoch) }

// time runs fn as a span.
func (t *tracer) time(name string, parent, recurrence int, fn func()) {
	id := t.begin(name, parent, recurrence)
	fn()
	t.finish(id)
}

// totalMS sums the named spans of recurrences >= from, in milliseconds.
func (t *tracer) totalMS(name string, from int) float64 {
	var d time.Duration
	for _, s := range t.spans {
		if s.name == name && s.recurrence >= from {
			d += s.end - s.start
		}
	}
	return float64(d) / 1e6
}

// writeChrome writes the spans as Chrome trace-event JSON (load it at
// ui.perfetto.dev or chrome://tracing). Each span's row is its depth in
// the parent chain, so children sit under the span that caused them.
func (t *tracer) writeChrome(path string) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`  // µs
		Dur  float64        `json:"dur"` // µs
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]int `json:"args"`
	}
	events := make([]event, len(t.spans))
	depth := make([]int, len(t.spans))
	for i, s := range t.spans {
		if s.parent >= 0 {
			depth[i] = depth[s.parent] + 1
		}
		events[i] = event{
			Name: s.name, Ph: "X", Pid: 1, Tid: depth[i],
			Ts: float64(s.start) / 1e3, Dur: float64(s.end-s.start) / 1e3,
			Args: map[string]int{"span": i, "parent": s.parent, "recurrence": s.recurrence},
		}
	}
	data, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
