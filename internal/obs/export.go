package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"strconv"

	"redoop/internal/simtime"
)

// --- Prometheus text exposition ---

// promFloat formats a value the way the Prometheus text format expects.
func promFloat(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	default:
		return strconv.FormatFloat(v, 'g', -1, 64)
	}
}

// bucketLabels appends the `le` label to a histogram's label set.
func bucketLabels(labels []Label, ub float64) string {
	ls := append(append([]Label(nil), labels...), L("le", promFloat(ub)))
	return labelString(ls)
}

// WritePrometheus writes every registered series in the Prometheus
// text exposition format (sorted by series key; one # TYPE line per
// metric name). A nil registry writes nothing.
func (r *Registry) WritePrometheus(w io.Writer) error {
	if r == nil {
		return nil
	}
	bw := bufio.NewWriter(w)
	typed := make(map[string]bool)
	writeType := func(name, typ string) {
		if !typed[name] {
			fmt.Fprintf(bw, "# TYPE %s %s\n", name, typ)
			typed[name] = true
		}
	}
	for _, c := range r.Counters() {
		writeType(c.Name(), "counter")
		fmt.Fprintf(bw, "%s%s %s\n", c.Name(), labelString(c.Labels()), promFloat(c.Value()))
	}
	for _, g := range r.Gauges() {
		writeType(g.Name(), "gauge")
		fmt.Fprintf(bw, "%s%s %s\n", g.Name(), labelString(g.Labels()), promFloat(g.Value()))
	}
	for _, h := range r.Histograms() {
		writeType(h.Name(), "histogram")
		for _, b := range h.Buckets() {
			fmt.Fprintf(bw, "%s_bucket%s %d\n", h.Name(), bucketLabels(h.Labels(), b.UpperBound), b.Count)
		}
		fmt.Fprintf(bw, "%s_sum%s %s\n", h.Name(), labelString(h.Labels()), promFloat(h.Sum()))
		fmt.Fprintf(bw, "%s_count%s %d\n", h.Name(), labelString(h.Labels()), h.Count())
		// Pre-computed quantiles as a companion gauge series, so
		// `grep _quantile` answers latency questions without bucket
		// math. (Real Prometheus would derive these with
		// histogram_quantile; the text artifact has no query engine.)
		writeType(h.Name()+"_quantile", "gauge")
		for _, q := range exportQuantiles {
			ls := append(append([]Label(nil), h.Labels()...), L("quantile", q.label))
			fmt.Fprintf(bw, "%s_quantile%s %s\n", h.Name(), labelString(ls), promFloat(h.Quantile(q.q)))
		}
	}
	return bw.Flush()
}

// exportQuantiles are the quantiles materialized in the exposition.
var exportQuantiles = []struct {
	label string
	q     float64
}{{"0.5", 0.5}, {"0.9", 0.9}, {"0.99", 0.99}}

// --- Chrome trace-event JSON ---

// traceEventJSON is the on-the-wire Chrome trace event. Timestamps and
// durations are microseconds (fractional values carry the simulation's
// nanosecond precision).
type traceEventJSON struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  *float64       `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	S    string         `json:"s,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

// traceDoc is the JSON-object trace container Perfetto accepts.
type traceDoc struct {
	TraceEvents     []traceEventJSON `json:"traceEvents"`
	DisplayTimeUnit string           `json:"displayTimeUnit"`
}

const tracePid = 1

// ChromeTrace builds one Chrome trace document: a metadata event names
// the process and one names each track, in tid order, ahead of the
// added events. The tracer's export and the profiler's critical-path
// overlay both write through it.
type ChromeTrace struct {
	process string
	tids    map[string]int
	tracks  []string // tid order
	events  []traceEventJSON
}

// NewChromeTrace returns an empty document for the named process.
func NewChromeTrace(process string) *ChromeTrace {
	return &ChromeTrace{process: process, tids: make(map[string]int)}
}

// Track returns a track's tid, giving a new track the next one.
func (c *ChromeTrace) Track(name string) int {
	id, ok := c.tids[name]
	if !ok {
		id = len(c.tracks)
		c.tids[name] = id
		c.tracks = append(c.tracks, name)
	}
	return id
}

// Span adds a complete ("X") event on a track.
func (c *ChromeTrace) Span(track, cat, name string, start, end simtime.Time, args map[string]any) {
	dur := float64(end.Sub(start)) / 1e3
	c.events = append(c.events, traceEventJSON{Name: name, Cat: cat, Ph: "X",
		Ts: float64(start) / 1e3, Dur: &dur, Pid: tracePid, Tid: c.Track(track), Args: args})
}

// Instant adds a thread-scoped instant ("i") event on a track.
func (c *ChromeTrace) Instant(track, cat, name string, at simtime.Time, args map[string]any) {
	c.events = append(c.events, traceEventJSON{Name: name, Cat: cat, Ph: "i",
		Ts: float64(at) / 1e3, Pid: tracePid, Tid: c.Track(track), S: "t", Args: args})
}

// Encode writes the document as JSON.
func (c *ChromeTrace) Encode(w io.Writer) error {
	doc := traceDoc{TraceEvents: make([]traceEventJSON, 0, 1+len(c.tracks)+len(c.events)), DisplayTimeUnit: "ms"}
	doc.TraceEvents = append(doc.TraceEvents, traceEventJSON{
		Name: "process_name", Ph: "M", Pid: tracePid,
		Args: map[string]any{"name": c.process},
	})
	for tid, track := range c.tracks {
		doc.TraceEvents = append(doc.TraceEvents, traceEventJSON{
			Name: "thread_name", Ph: "M", Pid: tracePid, Tid: tid,
			Args: map[string]any{"name": track},
		})
	}
	doc.TraceEvents = append(doc.TraceEvents, c.events...)
	return json.NewEncoder(w).Encode(doc)
}

// WriteTraceJSON serializes the retained record as a Chrome trace
// document: every track named, every span as a complete event on its
// track, then every decision as an instant on its query's track, each
// formatted from its recorded facts here. A nil tracer writes a valid
// document with no spans or decisions.
func (t *Tracer) WriteTraceJSON(w io.Writer) error {
	doc := NewChromeTrace("redoop (virtual time)")
	if t != nil {
		t.mu.Lock()
		for _, track := range t.tracks {
			doc.Track(track)
		}
		segs := t.segments()
		for _, seg := range segs {
			for i := range seg.spans {
				e := seg.spans[i].event()
				var args map[string]any
				if len(e.Args) > 0 {
					args = make(map[string]any, len(e.Args))
					for _, a := range e.Args {
						args[a.Key] = a.Value
					}
				}
				doc.Span(e.Track, e.Cat, e.Name, e.Start, e.End, args)
			}
		}
		for _, seg := range segs {
			for i := range seg.decisions {
				d := t.decisionLocked(&seg, &seg.decisions[i])
				doc.Instant(QueryTrack(d.Query), "decision", string(d.Type), d.At, map[string]any{"data": d.Data})
			}
		}
		t.mu.Unlock()
	}
	return doc.Encode(w)
}

// --- file helpers shared by the CLIs ---

// WriteFileAtomic writes an artifact through `write` into a temp file
// next to path, then renames it into place, creating parent
// directories as needed. Readers never see a partial file and a failed
// write leaves any previous artifact untouched.
func WriteFileAtomic(path string, write func(io.Writer) error) error {
	dir := filepath.Dir(path)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.CreateTemp(dir, "."+filepath.Base(path)+".tmp-*")
	if err != nil {
		return err
	}
	tmp := f.Name()
	if err := write(f); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	return nil
}

// WriteMetricsFile writes the registry's Prometheus text exposition to
// a file, atomically, creating parent directories. A nil registry
// still produces the (empty) file, so callers can rely on the artifact
// existing.
func (r *Registry) WriteMetricsFile(path string) error {
	return WriteFileAtomic(path, r.WritePrometheus)
}

// WriteTraceFile writes the Chrome trace JSON to a file, atomically,
// creating parent directories.
func (t *Tracer) WriteTraceFile(path string) error {
	return WriteFileAtomic(path, t.WriteTraceJSON)
}
