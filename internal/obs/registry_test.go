package obs

import (
	"fmt"
	"sync"
	"testing"

	"redoop/internal/obs/eventlog"
)

// TestRegistryConcurrency hammers one registry from many goroutines —
// repeated instrument resolution plus updates — and checks the totals.
// Run with -race to exercise the synchronization.
func TestRegistryConcurrency(t *testing.T) {
	r := NewRegistry()
	const workers = 16
	const perWorker = 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				r.Counter("hits", L("shard", "a")).Inc()
				r.Counter("hits", L("shard", "b")).Add(2)
				r.Gauge("depth").Add(1)
				r.Histogram("lat").Observe(float64(i % 10))
			}
		}(w)
	}
	wg.Wait()

	if got := r.Counter("hits", L("shard", "a")).Value(); got != workers*perWorker {
		t.Errorf("shard a = %v, want %v", got, workers*perWorker)
	}
	if got := r.Counter("hits", L("shard", "b")).Value(); got != 2*workers*perWorker {
		t.Errorf("shard b = %v, want %v", got, 2*workers*perWorker)
	}
	if got := r.Gauge("depth").Value(); got != workers*perWorker {
		t.Errorf("gauge = %v, want %v", got, workers*perWorker)
	}
	if got := r.Histogram("lat").Count(); got != workers*perWorker {
		t.Errorf("histogram count = %v, want %v", got, workers*perWorker)
	}
}

// TestLabelSeparation checks that differing label sets are independent
// series of one metric name.
func TestLabelSeparation(t *testing.T) {
	r := NewRegistry()
	r.Counter("c", L("k", "v1")).Inc()
	r.Counter("c", L("k", "v2")).Add(5)
	r.Counter("c").Add(9)
	if got := r.Counter("c", L("k", "v1")).Value(); got != 1 {
		t.Errorf("v1 = %v", got)
	}
	if got := r.Counter("c", L("k", "v2")).Value(); got != 5 {
		t.Errorf("v2 = %v", got)
	}
	if got := r.Counter("c").Value(); got != 9 {
		t.Errorf("unlabeled = %v", got)
	}
	if n := len(r.Counters()); n != 3 {
		t.Errorf("series count = %d, want 3", n)
	}
}

// TestCounterMonotone checks negative deltas are rejected.
func TestCounterMonotone(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c")
	c.Add(3)
	c.Add(-5)
	if got := c.Value(); got != 3 {
		t.Errorf("counter = %v, want 3", got)
	}
}

// TestNilSafety calls every instrument method through nil receivers —
// the no-op mode library users get without configuring observability.
func TestNilSafety(t *testing.T) {
	var r *Registry
	var o *Observer
	var tr *Tracer

	r.Counter("c", L("a", "b")).Inc()
	r.Counter("c").Add(1)
	r.Gauge("g").Set(4)
	r.Gauge("g").Add(1)
	r.Histogram("h").Observe(1)
	if r.Counter("c").Value() != 0 || r.Gauge("g").Value() != 0 || r.Histogram("h").Count() != 0 {
		t.Error("nil registry must read zero")
	}
	if r.Counters() != nil || r.Gauges() != nil || r.Histograms() != nil {
		t.Error("nil registry snapshots must be nil")
	}

	o.Counter("c").Inc()
	o.Gauge("g").Set(1)
	o.Histogram("h").Observe(1)
	o.Task(TaskSpan{Kind: SpanPhase, Track: "t", End: 10})
	o.Emit(5, eventlog.Replan, "q", nil)

	tr.Task(TaskSpan{Kind: SpanPhase, Track: "t", End: 10})
	tr.Emit(5, eventlog.Replan, "q", nil)
	if tr.Len() != 0 || tr.Events() != nil || tr.Decisions() != nil {
		t.Error("nil tracer must be empty")
	}

	// An Observer with nil fields is likewise inert.
	o2 := &Observer{}
	o2.Counter("c").Inc()
	o2.Task(TaskSpan{Kind: SpanPhase, Track: "t", End: 10})
	o2.Emit(5, eventlog.Replan, "q", nil)
	if o2.EmitEnabled() {
		t.Error("an Observer without a tracer must not ask for payloads")
	}
}

// TestGaugeSet checks last-write-wins semantics.
func TestGaugeSet(t *testing.T) {
	r := NewRegistry()
	g := r.Gauge("g", L("node", "3"))
	g.Set(7)
	g.Set(2)
	g.Add(-1)
	if got := g.Value(); got != 1 {
		t.Errorf("gauge = %v, want 1", got)
	}
}

// A series' key is built on the stack and looked up with m[string(key)]:
// resolving a registered instrument allocates nothing, whatever its kind,
// and the key is byte for byte what fmt's %q built (the exported name).
func TestSeriesLookupDoesNotAllocate(t *testing.T) {
	r := NewRegistry()
	values := []string{"hit", `quo"te\`, "new\nline", "ünï", ""}
	for _, v := range values {
		labels := []Label{L("type", "reduce-output"), L("result", v)}
		want := "redoop_cache_lookups_total" + fmt.Sprintf("{%s=%q,%s=%q}", "type", "reduce-output", "result", v)
		if got := r.Counter("redoop_cache_lookups_total", labels...).Series(); got != want {
			t.Errorf("series = %s, want %s", got, want)
		}
	}
	if got := r.Counter("plain").Series(); got != "plain" {
		t.Errorf("unlabeled series = %q", got)
	}
	r.Gauge("redoop_cache_bytes", L("node", "3"), L("type", "reduce-input"))
	r.Histogram("redoop_task_seconds", L("phase", "map"), L("query", "q1"))
	for name, lookup := range map[string]func(){
		"counter": func() {
			r.Counter("redoop_cache_lookups_total", L("type", "reduce-output"), L("result", "hit")).Inc()
		},
		"gauge":     func() { r.Gauge("redoop_cache_bytes", L("node", "3"), L("type", "reduce-input")).Set(1) },
		"histogram": func() { r.Histogram("redoop_task_seconds", L("phase", "map"), L("query", "q1")).Observe(1) },
	} {
		if n := testing.AllocsPerRun(100, lookup); n != 0 {
			t.Errorf("%s lookup of a registered series: %v allocations, want 0", name, n)
		}
	}
	if n := len(r.Counters()); n != len(values)+1 {
		t.Errorf("lookups registered new series: %d counters, want %d", n, len(values)+1)
	}
}

// TestNodeTrackDoesNotAllocate: a task span names its node's track on
// every call, so the track names of the first 64 nodes come from a
// table; a larger ID is still named, by formatting.
func TestNodeTrackDoesNotAllocate(t *testing.T) {
	for id := 0; id < 64; id++ {
		if got, want := NodeTrack(id), fmt.Sprintf("node:%d", id); got != want {
			t.Fatalf("NodeTrack(%d) = %q, want %q", id, got, want)
		}
		if n := testing.AllocsPerRun(10, func() { _ = NodeTrack(id) }); n != 0 {
			t.Fatalf("NodeTrack(%d) allocates %v times", id, n)
		}
	}
	if got := NodeTrack(1234); got != "node:1234" {
		t.Fatalf("NodeTrack(1234) = %q", got)
	}
}

// A Series is created when first used, as a direct lookup would create
// it, then returned without a lookup, and looked up again on another
// registry; a SeriesSet makes each key's series with the key's labels.
func TestSeriesResolvesOncePerRegistry(t *testing.T) {
	s := NewSeries[Counter]("c", L("k", "v"))
	if s.On(nil) != nil {
		t.Fatal("a nil observer's series is not nil")
	}
	a, b := New(), New()
	if len(a.Metrics.Counters()) != 0 {
		t.Fatal("a series exists before its first use")
	}
	c := s.On(a)
	c.Inc()
	if s.On(a) != c || a.Metrics.Counter("c", L("k", "v")).Value() != 1 {
		t.Fatal("the series is not the registry's")
	}
	if got := s.On(b); got == c || got != b.Metrics.Counter("c", L("k", "v")) {
		t.Fatal("the series kept the first registry's instrument")
	}
	if n := testing.AllocsPerRun(100, func() { s.On(b).Inc() }); n != 0 {
		t.Fatalf("a resolved series allocates %v times", n)
	}

	set := NewSeriesSet[string, Histogram]("h", LabelBy("phase"))
	set.On(a, "map").Observe(1)
	set.On(a, "reduce").Observe(2)
	set.On(a, "map").Observe(3)
	if a.Metrics.Histogram("h", L("phase", "map")).Count() != 2 || a.Metrics.Histogram("h", L("phase", "reduce")).Count() != 1 {
		t.Fatal("a series set's keys do not reach their labelled series")
	}
}
