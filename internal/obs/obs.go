// Package obs is the simulation-time observability layer: a
// concurrency-safe metrics registry (counters, gauges, histograms
// keyed by name + labels), a lightweight tracer that is the run's one
// record — spans and decision events, kept per recurrence — and emits
// Chrome trace-event JSON viewable in Perfetto / about:tracing, and
// exporters for a Prometheus-style text exposition and a JSON snapshot.
//
// All timestamps come from internal/simtime, so a simulated run
// produces one coherent series on the virtual clock — the quantities
// the paper's evaluation plots (per-recurrence cache hit ratios,
// shuffle volumes, Equation 4 placement decisions, Holt forecast
// error) become observable from a running system instead of living in
// ad-hoc prints.
//
// Every type in the package is nil-safe: methods on a nil *Registry,
// *Tracer, *Observer, *Counter, *Gauge or *Histogram are no-ops, so
// library code instruments unconditionally and un-configured users pay
// only a nil check (benchmark-verified in the repository root's
// bench_test.go).
package obs

import (
	"strconv"

	"redoop/internal/obs/eventlog"
	"redoop/internal/simtime"
)

// Label is one name dimension of a metric or span attribute.
type Label struct {
	Key, Value string
}

// L is shorthand for constructing a Label.
func L(key, value string) Label { return Label{Key: key, Value: value} }

// appendLabels appends labels in Prometheus form, e.g.
// `{locality="local",source="S1"}`; empty input appends nothing.
func appendLabels(b []byte, labels []Label) []byte {
	if len(labels) == 0 {
		return b
	}
	for i, l := range labels {
		sep := byte(',')
		if i == 0 {
			sep = '{'
		}
		b = append(append(append(b, sep), l.Key...), '=')
		b = strconv.AppendQuote(b, l.Value)
	}
	return append(b, '}')
}

// labelString is appendLabels as a string.
func labelString(labels []Label) string { return string(appendLabels(nil, labels)) }

// nodeTracks holds the track names of the first node IDs, so naming the
// track of a task costs an index.
var nodeTracks = func() (t [64]string) {
	for id := range t {
		t[id] = "node:" + strconv.Itoa(id)
	}
	return t
}()

// NodeTrack names the trace track of one cluster node's task slots.
func NodeTrack(id int) string {
	if id >= 0 && id < len(nodeTracks) {
		return nodeTracks[id]
	}
	return "node:" + strconv.Itoa(id)
}

// QueryTrack names the trace track of one query's recurrence/phase
// spans.
func QueryTrack(name string) string { return "query:" + name }

// Observer bundles the metrics registry and the span tracer that
// instrumented components share; the tracer is also the run's record
// of decisions (Tracer.Emit). A nil *Observer (or nil fields) disables
// the corresponding instrument with ~zero overhead.
type Observer struct {
	Metrics *Registry
	Tracer  *Tracer
}

// New returns an Observer with a fresh registry and tracer.
func New() *Observer {
	return &Observer{Metrics: NewRegistry(), Tracer: NewTracer()}
}

// Emit records a decision event via the bundled tracer; nil-safe.
func (o *Observer) Emit(at simtime.Time, typ eventlog.Type, query string, data any) {
	if o == nil {
		return
	}
	o.Tracer.Emit(at, typ, query, data)
}

// EmitEnabled reports whether decisions are recorded — emitters that
// must build a payload (e.g. the per-candidate placement breakdown)
// check it first to skip the work when recording is off.
func (o *Observer) EmitEnabled() bool {
	return o != nil && o.Tracer != nil
}

// Counter resolves a counter on the bundled registry; nil-safe.
func (o *Observer) Counter(name string, labels ...Label) *Counter {
	if o == nil {
		return nil
	}
	return o.Metrics.Counter(name, labels...)
}

// Gauge resolves a gauge on the bundled registry; nil-safe.
func (o *Observer) Gauge(name string, labels ...Label) *Gauge {
	if o == nil {
		return nil
	}
	return o.Metrics.Gauge(name, labels...)
}

// Histogram resolves a histogram on the bundled registry; nil-safe.
func (o *Observer) Histogram(name string, labels ...Label) *Histogram {
	if o == nil {
		return nil
	}
	return o.Metrics.Histogram(name, labels...)
}
