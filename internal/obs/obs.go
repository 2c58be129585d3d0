// Package obs is the simulation-time observability layer: a
// lightweight tracer that is the run's one record — spans and decision
// events, kept per recurrence — and emits Chrome trace-event JSON
// viewable in Perfetto / about:tracing, and a Prometheus-style text
// exposition of the run's metrics, folded from that record and from the
// state attached components keep (Observer.Exposition).
//
// All timestamps come from internal/simtime, so a simulated run
// produces one coherent series on the virtual clock — the quantities
// the paper's evaluation plots (per-recurrence cache hit ratios,
// shuffle volumes, Equation 4 placement decisions, Holt forecast
// error) become observable from a running system instead of living in
// ad-hoc prints.
//
// The recording types are nil-safe: methods on a nil *Tracer or
// *Observer are no-ops, so library code instruments unconditionally
// and un-configured users pay only a nil check.
package obs

import (
	"slices"
	"strconv"
	"sync"

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

// Observer is what instrumented components share: the tracer, which is
// the run's record of spans and decisions (Tracer.Emit), and the state
// components attach to be read when the metrics are exported. A nil
// *Observer (or a nil Tracer) records nothing with ~zero overhead.
type Observer struct {
	Tracer *Tracer

	mu    sync.Mutex
	state []func(*Exposition) // attached (Attach), in attach order
}

// New returns an Observer with a fresh tracer.
func New() *Observer {
	return &Observer{Tracer: NewTracer()}
}

// Attach adds state a component keeps to every later exposition: add
// is called at export, after the record is folded and after the state
// attached before it, so of two components setting one gauge the later
// attached wins. add should hold only the counts it reads, not the
// component, so the observer keeps nothing else of it alive. Nil-safe.
func (o *Observer) Attach(add func(*Exposition)) {
	if o == nil {
		return
	}
	o.mu.Lock()
	o.state = append(o.state, add)
	o.mu.Unlock()
}

// Exposition returns the run's metrics: the tracer's whole record
// folded (Tracer.Exposition), then the attached state added. Nil on a
// nil observer.
func (o *Observer) Exposition() *Exposition {
	if o == nil {
		return nil
	}
	x := o.Tracer.Exposition()
	o.mu.Lock()
	state := slices.Clone(o.state)
	o.mu.Unlock()
	for _, add := range state {
		add(x)
	}
	return x
}

// Emit records a decision event via the bundled tracer; nil-safe.
func (o *Observer) Emit(at simtime.Time, typ eventlog.Type, query string, data any) {
	if o == nil {
		return
	}
	o.Tracer.Emit(at, typ, query, data)
}

// EmitCache records a cache.* decision, its payload unboxed, via the
// bundled tracer; nil-safe.
func (o *Observer) EmitCache(at simtime.Time, typ eventlog.Type, query string, data eventlog.CacheData) {
	if o == nil {
		return
	}
	o.Tracer.EmitCache(at, typ, query, data)
}

// EmitReuse records a cache.hit on another query's cache, reused by
// mode, via the bundled tracer; nil-safe.
func (o *Observer) EmitReuse(at simtime.Time, query, mode string, data eventlog.CacheData) {
	if o == nil {
		return
	}
	o.Tracer.EmitReuse(at, query, mode, data)
}

// EmitPlacement records a placement decision, its payload unboxed, via
// the bundled tracer; nil-safe.
func (o *Observer) EmitPlacement(at simtime.Time, query string, data eventlog.PlacementData) {
	if o == nil {
		return
	}
	o.Tracer.EmitPlacement(at, query, data)
}

// EmitEnabled reports whether decisions are recorded — emitters that
// must build a payload (e.g. the per-candidate placement breakdown)
// check it first to skip the work when recording is off.
func (o *Observer) EmitEnabled() bool {
	return o != nil && o.Tracer != nil
}
