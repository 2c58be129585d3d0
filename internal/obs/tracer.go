package obs

import (
	"slices"
	"sync"

	"redoop/internal/obs/eventlog"
	"redoop/internal/simtime"
)

// Tracer is the run's one record: completed spans on named tracks of
// the virtual timeline, and the decision events (cache lookups,
// Equation 4 placements, re-plans) made among them. It serializes the
// record as Chrome trace-event JSON (loadable in Perfetto or
// chrome://tracing), and the profile and explain reports read it.
// Because the simulation knows every span's start and end when it is
// recorded, the API takes closed spans rather than begin/end pairs:
// one call per span, safe for concurrent use. A nil *Tracer is a
// no-op.
//
// Tracks become trace "threads" (one tid per track, named via metadata
// events); nesting inside a track follows virtual-time containment, so
// a recurrence span contains its phase spans, which contain their task
// spans when recorded on the same track.
//
// Retention is window-scoped (DESIGN.md, "Sidecar retention"): a
// segment is what is recorded up to a recurrence root, spans and
// decisions, and each track keeps the segments of its newest
// KeepRecurrences recurrences.
type Tracer struct {
	mu     sync.Mutex
	tids   map[string]int
	tracks []string  // tid order
	segs   []segment // closed segments, oldest first
	open   segment   // recorded since the last root
	nextID SpanID    // last allocated task-span ID
}

// segment is one recurrence's share of the record.
type segment struct {
	spans     []Event
	decisions []eventlog.Event
}

// KeepRecurrences is how many recurrences a Tracer keeps per track.
const KeepRecurrences = 16

// SpanID identifies one recorded task span within a Tracer. IDs are
// allocated in record order (serial accounting order), so they are
// deterministic across runs regardless of the compute pool width. The
// zero SpanID means "no span" — spans recorded through Span carry it,
// and a dependency on span 0 is never recorded.
type SpanID uint64

// Event is one recorded span.
type Event struct {
	Track string
	Cat   string
	Name  string
	Start simtime.Time
	End   simtime.Time
	Args  []Label

	// ID identifies this span for dependency edges; zero for spans
	// recorded through Span (which predate span identity).
	ID SpanID
	// Parent is the enclosing span (a recurrence root for task spans);
	// zero when the span has no recorded parent.
	Parent SpanID
	// Deps are the spans whose completion this span's readiness waited
	// on (shuffle → maps, reduce → shuffle, cache task → producing
	// tasks). An empty Deps with a non-zero ID means the span was ready
	// at its trigger — e.g. a map over a freshly ingested pane, or a
	// cache hit short-circuiting recomputation.
	Deps []SpanID
	// Ready is the instant the task became eligible to run; Start−Ready
	// is schedule wait (slot-queueing delay). Zero-valued Ready on a
	// Span-recorded event means "unknown" and profilers treat it as
	// Start.
	Ready simtime.Time
}

// TaskSpan describes one task span with identity, dependency edges and
// readiness, recorded via Tracer.Task.
type TaskSpan struct {
	Track string
	Cat   string
	Name  string
	Start simtime.Time
	End   simtime.Time
	// Ready is when the task's inputs were available; defaults to Start
	// when unset or later than Start.
	Ready simtime.Time
	// ID, when non-zero, must come from Reserve (pre-allocated roots);
	// zero lets Task allocate the next ID.
	ID     SpanID
	Parent SpanID
	Deps   []SpanID
	Args   []Label
}

// NewTracer returns an empty tracer.
func NewTracer() *Tracer {
	return &Tracer{tids: make(map[string]int)}
}

// Reserve pre-allocates a SpanID without recording an event, so a
// parent span whose extent is only known at the end (a recurrence
// root) can hand its ID to children recorded before it. A nil tracer
// returns 0.
func (t *Tracer) Reserve() SpanID {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.nextID++
	return t.nextID
}

// Task records a completed task span with identity and dependency
// edges. When ts.ID is zero a fresh SpanID is allocated; a non-zero
// ts.ID (from Reserve) records under that identity. Spans whose end
// precedes their start are clamped to zero duration; Ready is clamped
// to at most Start. Returns the span's ID (0 on a nil tracer).
func (t *Tracer) Task(ts TaskSpan) SpanID {
	if t == nil {
		return 0
	}
	if ts.End < ts.Start {
		ts.End = ts.Start
	}
	if ts.Ready == 0 || ts.Ready > ts.Start {
		ts.Ready = ts.Start
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := ts.ID
	if id == 0 {
		t.nextID++
		id = t.nextID
	}
	// Drop zero deps (a "no producing span" sentinel, e.g. a cache
	// carried over from an earlier recurrence) so consumers never see
	// edges to nowhere.
	var deps []SpanID
	for _, d := range ts.Deps {
		if d != 0 {
			if deps == nil {
				deps = make([]SpanID, 0, len(ts.Deps))
			}
			deps = append(deps, d)
		}
	}
	t.recordLocked(Event{
		Track: ts.Track, Cat: ts.Cat, Name: ts.Name,
		Start: ts.Start, End: ts.End, Ready: ts.Ready,
		ID: id, Parent: ts.Parent, Deps: deps, Args: ts.Args,
	})
	return id
}

// recordLocked gives a new track the next tid and appends ev to the
// open segment, which a recurrence root closes as its track's: the root
// and all recorded since the last one. A track's segments past
// KeepRecurrences go oldest first, their cleared arrays becoming the
// next open segment's. Caller holds t.mu.
func (t *Tracer) recordLocked(ev Event) {
	if _, ok := t.tids[ev.Track]; !ok {
		t.tids[ev.Track] = len(t.tracks)
		t.tracks = append(t.tracks, ev.Track)
	}
	t.open.spans = append(t.open.spans, ev)
	if ev.Cat != "recurrence" {
		return
	}
	t.segs, t.open = append(t.segs, t.open), segment{}
	oldest, owned := 0, 0
	for i := len(t.segs) - 1; i >= 0; i-- {
		if spans := t.segs[i].spans; spans[len(spans)-1].Track == ev.Track {
			oldest, owned = i, owned+1
		}
	}
	if owned > KeepRecurrences {
		old := t.segs[oldest]
		clear(old.spans)
		clear(old.decisions)
		t.open = segment{old.spans[:0], old.decisions[:0]}
		t.segs = slices.Delete(t.segs, oldest, oldest+1)
	}
}

// Emit records a decision event in the open segment, so it is kept
// and dropped with the recurrence it belongs to.
func (t *Tracer) Emit(at simtime.Time, typ eventlog.Type, query string, data any) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.open.decisions = append(t.open.decisions, eventlog.Event{At: at, Type: typ, Query: query, Data: data})
	t.mu.Unlock()
}

// Span records a completed span on a track. Spans whose end precedes
// their start are clamped to zero duration rather than dropped, so
// bookkeeping bugs stay visible in the trace.
func (t *Tracer) Span(track, cat, name string, start, end simtime.Time, args ...Label) {
	if t == nil {
		return
	}
	if end < start {
		end = start
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.recordLocked(Event{
		Track: track, Cat: cat, Name: name,
		Start: start, End: end, Args: args,
	})
}

// Len returns the number of retained spans.
func (t *Tracer) Len() int { return len(t.Events()) }

// Events returns a snapshot of the retained spans in record order.
func (t *Tracer) Events() []Event {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []Event
	for _, seg := range t.segments() {
		out = append(out, seg.spans...)
	}
	return out
}

// Decisions returns a snapshot of the retained decision events in
// record order.
func (t *Tracer) Decisions() []eventlog.Event {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []eventlog.Event
	for _, seg := range t.segments() {
		out = append(out, seg.decisions...)
	}
	return out
}

// segments returns the closed segments and the open one, oldest first.
// Caller holds t.mu.
func (t *Tracer) segments() []segment {
	return append(t.segs[:len(t.segs):len(t.segs)], t.open)
}

// Span records a completed span via the bundled tracer; nil-safe.
func (o *Observer) Span(track, cat, name string, start, end simtime.Time, args ...Label) {
	if o == nil {
		return
	}
	o.Tracer.Span(track, cat, name, start, end, args...)
}

// Task records a task span via the bundled tracer; nil-safe (returns 0).
func (o *Observer) Task(ts TaskSpan) SpanID {
	if o == nil {
		return 0
	}
	return o.Tracer.Task(ts)
}

// ReserveSpanID pre-allocates a span ID via the bundled tracer;
// nil-safe (returns 0).
func (o *Observer) ReserveSpanID() SpanID {
	if o == nil {
		return 0
	}
	return o.Tracer.Reserve()
}
