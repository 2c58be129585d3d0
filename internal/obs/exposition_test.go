package obs

import (
	"fmt"
	"sync"
	"testing"

	"redoop/internal/obs/eventlog"
)

// TestTracerFoldsConcurrentRecords records spans into one tracer from
// many goroutines, some closing recurrences, and checks the exposition
// counts every one of them, closed segment or open. Run with -race to
// exercise the synchronization.
func TestTracerFoldsConcurrentRecords(t *testing.T) {
	o := New()
	const workers = 16
	const perWorker = 200
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			track := QueryTrack(fmt.Sprint("q", w))
			for i := 0; i < perWorker; i++ {
				o.Task(TaskSpan{Kind: SpanReduce, Track: NodeTrack(w), Start: 0, End: 1, OutBytes: 2})
				if i%10 == 9 {
					o.Task(TaskSpan{Kind: SpanRecurrence, Track: track, End: 2})
				}
			}
		}(w)
	}
	wg.Wait()

	x := o.Exposition()
	if got := x.Sum("redoop_reduce_tasks_total"); got != workers*perWorker {
		t.Errorf("reduce tasks = %v, want %v", got, workers*perWorker)
	}
	if got := x.Sum("redoop_output_bytes_total"); got != 2*workers*perWorker {
		t.Errorf("output bytes = %v, want %v", got, 2*workers*perWorker)
	}
	if got := x.byKey["redoop_reduce_task_seconds"].hist.count; got != workers*perWorker {
		t.Errorf("histogram count = %v, want %v", got, workers*perWorker)
	}
}

// TestLabelSeparation checks that differing label sets are independent
// series of one metric name.
func TestLabelSeparation(t *testing.T) {
	x := newExposition()
	x.Add("c", 1, L("k", "v1"))
	x.Add("c", 5, L("k", "v2"))
	x.Add("c", 9)
	if got := x.Sum("c", L("k", "v1")); got != 1 {
		t.Errorf("v1 = %v", got)
	}
	if got := x.Sum("c", L("k", "v2")); got != 5 {
		t.Errorf("v2 = %v", got)
	}
	if got := x.Sum("c"); got != 15 {
		t.Errorf("all of c = %v", got)
	}
	if n := len(x.sorted()); n != 3 {
		t.Errorf("series count = %d, want 3", n)
	}
}

// TestCounterMonotone checks negative deltas only touch a counter.
func TestCounterMonotone(t *testing.T) {
	x := newExposition()
	x.Add("c", 3)
	x.Add("c", -5)
	x.Add("z", -1)
	if got := x.Sum("c"); got != 3 {
		t.Errorf("counter = %v, want 3", got)
	}
	if len(x.sorted()) != 2 {
		t.Error("a counter touched with a negative delta was not made")
	}
}

// TestNilSafety calls every recording method through a nil tracer —
// the no-op mode library users get without configuring observability.
func TestNilSafety(t *testing.T) {
	var tr *Observer
	tr.Task(TaskSpan{Kind: SpanPhase, Track: "t", End: 10})
	tr.Emit(5, eventlog.Replan, "q", nil)
	tr.EmitReuse(5, "q", "exact", eventlog.CacheData{})
	tr.Attach(func(x *Exposition) { x.Add("c", 1) })
	if tr.Len() != 0 || tr.Events() != nil || tr.Decisions() != nil || tr.Exposition() != nil || tr.Reserve() != 0 {
		t.Error("nil tracer must be empty")
	}
}

// TestGaugeSet checks last-write-wins semantics, and that attached state
// is added in attach order: of two components setting one gauge the
// later wins, and their counters sum.
func TestGaugeSet(t *testing.T) {
	x := newExposition()
	x.Set("g", 7, L("node", "3"))
	x.Set("g", 2, L("node", "3"))
	x.AddGauge("g", -1, L("node", "3"))
	if got := x.Sum("g", L("node", "3")); got != 1 {
		t.Errorf("gauge = %v, want 1", got)
	}

	o := New()
	for _, v := range []float64{4, 9} {
		o.Attach(func(x *Exposition) {
			x.Set("g", v)
			x.Add("c", v)
		})
	}
	x = o.Exposition()
	if got := x.Sum("g"); got != 9 {
		t.Errorf("gauge = %v, want the later attached 9", got)
	}
	if got := x.Sum("c"); got != 13 {
		t.Errorf("counter = %v, want 13", got)
	}
}

// A series' key is built on the stack and looked up with m[string(key)]:
// touching a series that exists allocates nothing, whatever its kind,
// so a steady recurrence's fold does not; and the key is byte for byte
// what fmt's %q built (the exported name).
func TestSeriesLookupDoesNotAllocate(t *testing.T) {
	x := newExposition()
	values := []string{"hit", `quo"te\`, "new\nline", "ünï", ""}
	for _, v := range values {
		x.Add("redoop_cache_lookups_total", 1, L("type", "reduce-output"), L("result", v))
		want := "redoop_cache_lookups_total" + fmt.Sprintf("{%s=%q,%s=%q}", "type", "reduce-output", "result", v)
		if x.byKey[want] == nil {
			t.Errorf("no series %s", want)
		}
	}
	x.Add("plain", 1)
	if x.byKey["plain"] == nil {
		t.Error("no unlabeled series")
	}
	for name, touch := range map[string]func(){
		"counter":   func() { x.Add("redoop_cache_lookups_total", 1, L("type", "reduce-output"), L("result", "hit")) },
		"gauge":     func() { x.Set("redoop_cache_bytes", 1, L("node", "3"), L("type", "reduce-input")) },
		"histogram": func() { x.Observe("redoop_task_seconds", 1, L("phase", "map"), L("query", "q1")) },
	} {
		touch()
		if n := testing.AllocsPerRun(100, touch); n != 0 {
			t.Errorf("%s touch of an existing series: %v allocations, want 0", name, n)
		}
	}
	if n := len(x.sorted()); n != len(values)+3 {
		t.Errorf("touches made new series: %d series, want %d", n, len(values)+3)
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

// TestFoldKeepsDroppedSegments: retention drops a track's segments past
// KeepRecurrences, but each was folded as it closed, so the exposition
// still counts every recurrence's record; reading it twice counts the
// open segment once each time.
func TestFoldKeepsDroppedSegments(t *testing.T) {
	tr := New()
	const recs = 3 * KeepRecurrences
	for r := 0; r < recs; r++ {
		tr.Task(TaskSpan{Kind: SpanMap, Track: "node:0", End: 1, Settles: true, LocalBytes: 10, OutBytes: 3})
		tr.EmitCache(1, eventlog.CacheHit, "q", eventlog.CacheData{CacheType: "reduce-output"})
		tr.Task(TaskSpan{Kind: SpanRecurrence, Track: "query:q", End: 2, Purged: 1})
	}
	tr.Task(TaskSpan{Kind: SpanMap, Track: "node:0", End: 1, Settles: true, RemoteBytes: 7})
	for range 2 {
		x := tr.Exposition()
		if got := x.Sum("redoop_map_tasks_total"); got != recs+1 {
			t.Errorf("map tasks = %v, want %d", got, recs+1)
		}
		if got := x.Sum("redoop_map_input_bytes_total", L("locality", "local")); got != 10*recs {
			t.Errorf("local input = %v, want %d", got, 10*recs)
		}
		if got := x.Sum("redoop_map_input_bytes_total", L("locality", "remote")); got != 7 {
			t.Errorf("remote input = %v, want 7", got)
		}
		if got := x.Sum("redoop_cache_lookups_total", L("result", "hit")); got != recs {
			t.Errorf("hits = %v, want %d", got, recs)
		}
		if got := x.Sum("redoop_cache_purges_total"); got != recs {
			t.Errorf("purges = %v, want %d", got, recs)
		}
	}
}
