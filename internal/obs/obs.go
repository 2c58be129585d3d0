// Package obs is the simulation-time observability layer: a
// lightweight tracer that is the run's one record — spans and decision
// events, kept per recurrence — and emits Chrome trace-event JSON
// viewable in Perfetto / about:tracing, and a Prometheus-style text
// exposition of the run's metrics, folded from that record and from the
// state attached components keep (Tracer.Exposition).
//
// All timestamps come from internal/simtime, so a simulated run
// produces one coherent series on the virtual clock — the quantities
// the paper's evaluation plots (per-recurrence cache hit ratios,
// shuffle volumes, Equation 4 placement decisions, Holt forecast
// error) become observable from a running system instead of living in
// ad-hoc prints.
//
// The tracer is nil-safe: methods on a nil *Tracer are no-ops, so
// library code instruments unconditionally and un-configured users pay
// only a nil check.
package obs

import "strconv"

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

// Observer is the name instrumented components hold the tracer by
// (Config.Obs, Engine.Obs, SetObserver).
type Observer = Tracer
