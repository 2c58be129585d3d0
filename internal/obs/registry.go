package obs

import (
	"math"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
)

// Registry holds all metric instruments of one run, keyed by metric
// name plus its label set. Instruments are created lazily on first
// use and live for the registry's lifetime. All methods are safe for
// concurrent use; a nil *Registry is a valid no-op registry.
type Registry struct {
	mu       sync.RWMutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
	}
}

// appendSeries appends the map key of one (name, labels) series. A
// lookup builds it on the stack and indexes with m[string(key)], which
// does not allocate; only a series' first use makes the string.
func appendSeries(b []byte, name string, labels []Label) []byte {
	return appendLabels(append(b, name...), labels)
}

// seriesKey is appendSeries as a string.
func seriesKey(name string, labels []Label) string {
	return string(appendSeries(nil, name, labels))
}

// Counter returns the counter for (name, labels), creating it on first
// use. Returns nil (a no-op counter) on a nil registry.
func (r *Registry) Counter(name string, labels ...Label) *Counter {
	if r == nil {
		return nil
	}
	var buf [128]byte
	key := appendSeries(buf[:0], name, labels)
	r.mu.RLock()
	c := r.counters[string(key)]
	r.mu.RUnlock()
	if c != nil {
		return c
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if c = r.counters[string(key)]; c == nil {
		c = &Counter{name: name, labels: append([]Label(nil), labels...)}
		r.counters[string(key)] = c
	}
	return c
}

// Gauge returns the gauge for (name, labels), creating it on first
// use. Returns nil (a no-op gauge) on a nil registry.
func (r *Registry) Gauge(name string, labels ...Label) *Gauge {
	if r == nil {
		return nil
	}
	var buf [128]byte
	key := appendSeries(buf[:0], name, labels)
	r.mu.RLock()
	g := r.gauges[string(key)]
	r.mu.RUnlock()
	if g != nil {
		return g
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if g = r.gauges[string(key)]; g == nil {
		g = &Gauge{name: name, labels: append([]Label(nil), labels...)}
		r.gauges[string(key)] = g
	}
	return g
}

// Histogram returns the histogram for (name, labels) with the default
// exponential buckets, creating it on first use. Returns nil (a no-op
// histogram) on a nil registry.
func (r *Registry) Histogram(name string, labels ...Label) *Histogram {
	return r.HistogramBuckets(name, nil, labels...)
}

// HistogramBuckets is Histogram with explicit bucket upper bounds
// (ascending; +Inf is implicit). Bounds apply only on first creation
// of the series; nil bounds select DefBuckets.
func (r *Registry) HistogramBuckets(name string, bounds []float64, labels ...Label) *Histogram {
	if r == nil {
		return nil
	}
	var buf [128]byte
	key := appendSeries(buf[:0], name, labels)
	r.mu.RLock()
	h := r.hists[string(key)]
	r.mu.RUnlock()
	if h != nil {
		return h
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if h = r.hists[string(key)]; h == nil {
		if bounds == nil {
			bounds = DefBuckets
		}
		h = newHistogram(name, labels, bounds)
		r.hists[string(key)] = h
	}
	return h
}

// snapshot views, sorted by series key for deterministic export.

// Counters returns the registered counters sorted by series key.
func (r *Registry) Counters() []*Counter {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]*Counter, 0, len(r.counters))
	for _, c := range r.counters {
		out = append(out, c)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Series() < out[j].Series() })
	return out
}

// Gauges returns the registered gauges sorted by series key.
func (r *Registry) Gauges() []*Gauge {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]*Gauge, 0, len(r.gauges))
	for _, g := range r.gauges {
		out = append(out, g)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Series() < out[j].Series() })
	return out
}

// Histograms returns the registered histograms sorted by series key.
func (r *Registry) Histograms() []*Histogram {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]*Histogram, 0, len(r.hists))
	for _, h := range r.hists {
		out = append(out, h)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Series() < out[j].Series() })
	return out
}

// Counter is a monotonically increasing metric (task counts, byte
// volumes). Add is lock-free; a nil *Counter is a no-op.
type Counter struct {
	name   string
	labels []Label
	bits   atomic.Uint64 // float64 bits
}

// Name returns the metric name.
func (c *Counter) Name() string { return c.name }

// Labels returns the series' labels.
func (c *Counter) Labels() []Label { return c.labels }

// Series returns the full series identity, name plus label string.
func (c *Counter) Series() string { return seriesKey(c.name, c.labels) }

// Add increases the counter by v (negative deltas are ignored to keep
// the counter monotone).
func (c *Counter) Add(v float64) {
	if c == nil || v < 0 {
		return
	}
	for {
		old := c.bits.Load()
		if c.bits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

// Inc increases the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the counter's current value (0 for nil).
func (c *Counter) Value() float64 {
	if c == nil {
		return 0
	}
	return math.Float64frombits(c.bits.Load())
}

// Gauge is a point-in-time metric (current cache bytes, current
// sub-pane factor). A nil *Gauge is a no-op.
type Gauge struct {
	name   string
	labels []Label
	bits   atomic.Uint64
}

// Name returns the metric name.
func (g *Gauge) Name() string { return g.name }

// Labels returns the series' labels.
func (g *Gauge) Labels() []Label { return g.labels }

// Series returns the full series identity, name plus label string.
func (g *Gauge) Series() string { return seriesKey(g.name, g.labels) }

// Set stores the gauge's value.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Add adjusts the gauge by a (possibly negative) delta.
func (g *Gauge) Add(v float64) {
	if g == nil {
		return
	}
	for {
		old := g.bits.Load()
		if g.bits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

// Value returns the gauge's current value (0 for nil).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Series is one metric series — a Counter, Gauge or Histogram with
// default buckets — whose name and labels are fixed when it is made
// (NewSeries). On looks it up on an observer's registry at its first
// use there and keeps it, so a path that counts per event pays a
// pointer compare instead of a lookup; the series is created exactly
// when a direct lookup would create it. Not safe for concurrent use:
// keep one where its caller's calls are serial.
type Series[M Counter | Gauge | Histogram] struct {
	name   string
	labels []Label
	reg    *Registry
	m      *M
}

// NewSeries makes the series of name and labels.
func NewSeries[M Counter | Gauge | Histogram](name string, labels ...Label) Series[M] {
	return Series[M]{name: name, labels: slices.Clone(labels)}
}

// On returns the series on o's registry: nil on a nil observer or
// registry.
func (s *Series[M]) On(o *Observer) *M {
	if o == nil {
		return nil
	}
	if s.m == nil || s.reg != o.Metrics {
		s.reg = o.Metrics
		switch m := any(&s.m).(type) {
		case **Counter:
			*m = o.Metrics.Counter(s.name, s.labels...)
		case **Gauge:
			*m = o.Metrics.Gauge(s.name, s.labels...)
		case **Histogram:
			*m = o.Metrics.Histogram(s.name, s.labels...)
		}
	}
	return s.m
}

// SeriesSet is the series of one metric name whose labels follow a key:
// a key's series is made at its first use, with the labels the set's
// function gives that key. Not safe for concurrent use, as Series.
type SeriesSet[K comparable, M Counter | Gauge | Histogram] struct {
	name   string
	labels func(K) []Label
	byKey  map[K]*Series[M]
}

// NewSeriesSet makes the set of name's series labelled by labels.
func NewSeriesSet[K comparable, M Counter | Gauge | Histogram](name string, labels func(K) []Label) *SeriesSet[K, M] {
	return &SeriesSet[K, M]{name: name, labels: labels, byKey: map[K]*Series[M]{}}
}

// On returns key's series on o's registry: nil on a nil observer or
// registry.
func (s *SeriesSet[K, M]) On(o *Observer, key K) *M {
	if o == nil {
		return nil
	}
	ser := s.byKey[key]
	if ser == nil {
		made := NewSeries[M](s.name, s.labels(key)...)
		ser = &made
		s.byKey[key] = ser
	}
	return ser.On(o)
}

// LabelBy returns the labels of a SeriesSet keyed by one label's value.
func LabelBy(key string) func(string) []Label {
	return func(v string) []Label { return []Label{L(key, v)} }
}
