package obs

import (
	"bufio"
	"cmp"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"

	"redoop/internal/simtime"
)

// --- Prometheus text exposition ---

// Exposition is a run's metrics as the Prometheus text exposition
// writes them: counters, gauges and histograms keyed by name and
// labels, each made at its first touch, so a series touched at 0 is
// written. It is built at export from the run's record and state
// (Tracer.Exposition), never pushed to while the run goes; not safe
// for concurrent use. A nil *Exposition writes nothing.
type Exposition struct {
	byKey map[string]*metric
}

// metric is one series: a counter's or gauge's value, or a histogram
// over DefBuckets.
type metric struct {
	key, name string
	labels    []Label
	kind      metricKind
	value     float64
	hist      Histogram
}

// metricKind orders an exposition: counters, gauges, then histograms,
// each by series key.
type metricKind uint8

const (
	counterKind metricKind = iota
	gaugeKind
	histogramKind
)

// newExposition returns an empty exposition.
func newExposition() *Exposition { return &Exposition{byKey: map[string]*metric{}} }

// metric returns the series of name and labels, making it at its first
// touch. Its key is built on the stack: only a new series allocates.
func (x *Exposition) metric(kind metricKind, name string, labels []Label) *metric {
	var buf [128]byte
	key := appendLabels(append(buf[:0], name...), labels)
	m := x.byKey[string(key)]
	if m == nil {
		m = &metric{key: string(key), name: name, labels: slices.Clone(labels), kind: kind}
		if kind == histogramKind {
			m.hist = newHistogram(nil)
		}
		x.byKey[m.key] = m
	}
	return m
}

// Add adds v to a counter; a negative v only touches it, so the counter
// stays monotone.
func (x *Exposition) Add(name string, v float64, labels ...Label) {
	if m := x.metric(counterKind, name, labels); v > 0 {
		m.value += v
	}
}

// Set sets a gauge to v.
func (x *Exposition) Set(name string, v float64, labels ...Label) {
	x.metric(gaugeKind, name, labels).value = v
}

// AddGauge moves a gauge by v, which may be negative.
func (x *Exposition) AddGauge(name string, v float64, labels ...Label) {
	x.metric(gaugeKind, name, labels).value += v
}

// Observe adds one sample to a histogram.
func (x *Exposition) Observe(name string, v float64, labels ...Label) {
	x.metric(histogramKind, name, labels).hist.Observe(v)
}

// Sum returns the sum of name's counters and gauges whose labels
// include every one of match, in exposition order: one series' value
// when match names all its labels.
func (x *Exposition) Sum(name string, match ...Label) float64 {
	var sum float64
	for _, m := range x.sorted() {
		if m.name == name && m.kind != histogramKind &&
			!slices.ContainsFunc(match, func(l Label) bool { return !slices.Contains(m.labels, l) }) {
			sum += m.value
		}
	}
	return sum
}

// clone returns a deep copy, for a reader to add to.
func (x *Exposition) clone() *Exposition {
	c := newExposition()
	for k, m := range x.byKey {
		cm := *m
		cm.hist.counts = slices.Clone(m.hist.counts)
		c.byKey[k] = &cm
	}
	return c
}

// sorted returns the series in exposition order.
func (x *Exposition) sorted() []*metric {
	if x == nil {
		return nil
	}
	out := make([]*metric, 0, len(x.byKey))
	for _, m := range x.byKey {
		out = append(out, m)
	}
	slices.SortFunc(out, func(a, b *metric) int {
		return cmp.Or(cmp.Compare(a.kind, b.kind), strings.Compare(a.key, b.key))
	})
	return out
}

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

// WritePrometheus writes every series in the Prometheus text exposition
// format, in exposition order, with one # TYPE line per metric name. A
// histogram is followed by its pre-computed quantiles as a companion
// gauge, so `grep _quantile` answers latency questions without bucket
// math (Prometheus derives them with histogram_quantile; the text
// artifact has no query engine).
func (x *Exposition) WritePrometheus(w io.Writer) error {
	bw := bufio.NewWriter(w)
	typed := make(map[string]bool)
	writeType := func(name, typ string) {
		if !typed[name] {
			fmt.Fprintf(bw, "# TYPE %s %s\n", name, typ)
			typed[name] = true
		}
	}
	for _, m := range x.sorted() {
		ls, with := labelString(m.labels), func(l Label) string { return labelString(append(slices.Clip(m.labels), l)) }
		if m.kind != histogramKind {
			writeType(m.name, [...]string{"counter", "gauge"}[m.kind])
			fmt.Fprintf(bw, "%s%s %s\n", m.name, ls, promFloat(m.value))
			continue
		}
		h := &m.hist
		writeType(m.name, "histogram")
		for _, b := range h.Buckets() {
			fmt.Fprintf(bw, "%s_bucket%s %d\n", m.name, with(L("le", promFloat(b.UpperBound))), b.Count)
		}
		fmt.Fprintf(bw, "%s_sum%s %s\n", m.name, ls, promFloat(h.sum))
		fmt.Fprintf(bw, "%s_count%s %d\n", m.name, ls, h.count)
		writeType(m.name+"_quantile", "gauge")
		for _, q := range []string{"0.5", "0.9", "0.99"} {
			v, _ := strconv.ParseFloat(q, 64)
			fmt.Fprintf(bw, "%s_quantile%s %s\n", m.name, with(L("quantile", q)), promFloat(h.Quantile(v)))
		}
	}
	return bw.Flush()
}

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

// WriteMetricsFile writes the Prometheus text exposition to a file,
// atomically, creating parent directories. A nil exposition still
// produces the (empty) file, so callers can rely on the artifact
// existing.
func (x *Exposition) WriteMetricsFile(path string) error {
	return WriteFileAtomic(path, x.WritePrometheus)
}

// WriteTraceFile writes the Chrome trace JSON to a file, atomically,
// creating parent directories.
func (t *Tracer) WriteTraceFile(path string) error {
	return WriteFileAtomic(path, t.WriteTraceJSON)
}
