package obs

import (
	"slices"
	"strconv"
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
// no-op. What it records are facts — a span's kind and what it ran
// over, a cache decision's fields — in fixed-size values, so recording
// allocates nothing past its segment's growth; names, args and payloads
// are formatted only when the record is read.
//
// Tracks become trace "threads" (one tid per track, named via metadata
// events); nesting inside a track follows virtual-time containment, so
// a recurrence span contains its phase spans, which contain their task
// spans when recorded on the same track.
//
// Retention is window-scoped (DESIGN.md, "Sidecar retention"): a
// segment is what is recorded up to a recurrence root, spans and
// decisions, and each track keeps the segments of its newest
// KeepRecurrences recurrences. A segment is folded into the metrics
// (fold.go) as it closes, so retention drops no count.
type Tracer struct {
	mu     sync.Mutex
	tids   map[string]int
	tracks []string    // tid order
	segs   []segment   // closed segments, oldest first
	open   segment     // recorded since the last root
	folded *Exposition // every closed segment, folded in record order
	nextID SpanID      // last allocated task-span ID
	// names holds the decision types, queries and cache types the
	// decisions name, each once; a decision keeps their indexes.
	names   []string
	nameIdx map[string]int32
	state   []func(*Exposition) // attached (Attach), in attach order
}

// segment is one recurrence's share of the record: its spans and
// decisions, facts that Events, Decisions and the trace export format
// when they read them, and what its placements weighed.
type segment struct {
	spans      []TaskSpan
	decisions  []decision
	placements []placed
	cands      []eventlog.PlacementCandidate
}

// decision is one recorded decision event. A cache decision and a
// placement keep their payload's fields, so recording one allocates
// nothing; read, they become an eventlog.CacheData or PlacementData.
// The strings decisions repeat are kept as indexes into Tracer.names: a
// retained decision takes 72 bytes, not the 120 its strings would.
type decision struct {
	at   simtime.Time
	data any // the payload of any other decision; a reuse hit's mode
	pid  string
	// bytes is a cache decision's bytes, a placement's index in its
	// segment's placements; node a cache decision's node, a placement's
	// chosen one.
	bytes     int64
	node, rec int32
	// name is a cache decision's cache type, a placement's outcome.
	typ, query, name int32
	kind             decisionKind
}

// placed is what a placement weighed: the caches its task loads and
// its candidates, its segment's cands[lo:hi].
type placed struct{ caches, lo, hi int32 }

// decisionKind says which payload a decision keeps unboxed.
type decisionKind uint8

const (
	boxedDecision decisionKind = iota // data
	cacheDecision
	reuseDecision // a cache decision: a hit on another query's cache
	placementDecision
)

// KeepRecurrences is how many recurrences a Tracer keeps per track.
const KeepRecurrences = 16

// SpanID identifies one recorded task span within a Tracer. IDs are
// allocated in record order (serial accounting order), so they are
// deterministic across runs regardless of the compute pool width. The
// zero SpanID means "no span" — overlay spans (phases, replication)
// carry it, and a dependency on span 0 is never recorded.
type SpanID uint64

// Event is one recorded span as a reader sees it: Tracer.Events builds
// its Cat, Name and Args from the span's kind and facts.
type Event struct {
	Track string
	Cat   string
	Name  string
	Start simtime.Time
	End   simtime.Time
	Args  []Label

	// ID identifies this span for dependency edges; zero for an
	// overlay span, which is outside the task DAG.
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
	// is schedule wait (slot-queueing delay). Zero-valued Ready on an
	// overlay span means "unknown" and profilers treat it as Start.
	Ready simtime.Time
}

// SpanKind says what a recorded span is: it fixes the span's category
// and how its name and args are formatted from its facts when the
// record is read.
type SpanKind uint8

// The span kinds, each with the name it is read as.
const (
	_               SpanKind = iota // no kind: read with no category and no name
	SpanMap                         // "map <Input>#<Block>@<Offset>": a map attempt over a split
	SpanBackup                      // "backup <split>": a speculative copy of a straggling map attempt
	SpanShuffle                     // "shuffle p<Part>": a reduce partition's copy from the map wave
	SpanReduce                      // "reduce p<Part>": a reduce attempt
	SpanPaneShuffle                 // "shuffle <Input> pane <Pane> p<Part>": a source pane's partition copied to its home
	SpanSpill                       // "spill <Input> pane <Pane> p<Part>": the copy spilled as the reduce-input cache
	SpanCombine                     // "combine pane <Pane> p<Part>": sub-pane outputs combined into the pane's
	SpanRebuild                     // "rebuild pane <Pane> p<Part>": a lost output rebuilt from its reduce input
	SpanFinalize                    // "finalize p<Part>": a window's partition merged from its pane outputs
	SpanJoin                        // "join <Input> p<Part>": a join's pane group reduced from cached inputs
	SpanReuse                       // "reuse pane <Pane> p<Part>": another query's pane output copied
	SpanReuseMerge                  // "reuse-merge pane <Pane> p<Part>": finer pane outputs merged into a coarser one
	SpanManifest                    // "publish manifest": a join window's output listed
	SpanPhase                       // "map <Input> pane <Pane>": a pane's map wave over its segments
	SpanRecurrence                  // "recurrence <Index>": a recurrence root, which closes its segment
	SpanReplicate                   // "replicate <Input>": a written file's replicas
	SpanRereplicate                 // "re-replicate node <Index>": a dead node's blocks copied again
)

// spanKinds holds each kind's category, the verb its name starts with,
// and whether it overlays the task DAG: a phase or replication span
// takes no SpanID and no readiness, and nothing depends on it.
var spanKinds = [...]struct {
	cat, verb string
	overlay   bool
}{
	SpanMap:         {"map", "map", false},
	SpanBackup:      {"map", "backup", false},
	SpanShuffle:     {"shuffle", "shuffle", false},
	SpanReduce:      {"reduce", "reduce", false},
	SpanPaneShuffle: {"shuffle", "shuffle", false},
	SpanSpill:       {"spill", "spill", false},
	SpanCombine:     {"cachetask", "combine", false},
	SpanRebuild:     {"cachetask", "rebuild", false},
	SpanFinalize:    {"cachetask", "finalize", false},
	SpanJoin:        {"cachetask", "join", false},
	SpanReuse:       {"cachetask", "reuse", false},
	SpanReuseMerge:  {"cachetask", "reuse-merge", false},
	SpanManifest:    {"cachetask", "publish manifest", false},
	SpanPhase:       {"phase", "map", true},
	SpanRecurrence:  {"recurrence", "recurrence", false},
	SpanReplicate:   {"replicate", "replicate", true},
	SpanRereplicate: {"replicate", "re-replicate node", true},
}

// TaskSpan is one span as recorded: a fixed-size value of facts,
// formatted only when the record is read (Tracer.Task, Tracer.Events).
// Recording one copies no string and allocates nothing.
type TaskSpan struct {
	Kind  SpanKind
	Track string
	Start simtime.Time
	End   simtime.Time
	// Ready is when the task's inputs were available; defaults to Start
	// when unset or later than Start.
	Ready simtime.Time
	// ID, when non-zero, must come from Reserve (pre-allocated roots);
	// zero lets Task allocate the next ID.
	ID     SpanID
	Parent SpanID
	// Deps and Shared are the spans this one waited on: Shared, a list
	// many spans depend on (a map wave's spans), is kept by reference and
	// must not change afterwards; Deps follow it. Zero IDs are no edge.
	Deps   [2]SpanID
	Shared []SpanID

	// The facts a kind is read from; each kind reads those its name
	// (see SpanKind) and args name.
	Job    string // map, backup, shuffle, reduce: the MapReduce job; the engine's kinds: the query
	Input  string // map, backup: the split's file; pane shuffle, spill, phase: the source; join: the pane group; replicate: the file
	Block  int    // map, backup: the split's DFS block
	Offset int64  // map, backup: the split's first byte
	Pane   int64
	Part   int
	Index  int // recurrence: its index; re-replicate: the node
	// Attempt is a map, backup or reduce attempt's 1-based number, and
	// Worker the host pool worker that computed a winning one.
	Attempt int
	Worker  int
	// Count is the caches a cache task read (a manifest's tuples), the
	// segments of a phase, the bytes of a replication or a recurrence's
	// new panes; Reused its reused panes.
	Count  int64
	Reused int
	// Failed marks an attempt that failed and was retried, Proactive a
	// recurrence's mode.
	Failed, Proactive bool

	// The facts the metrics fold reads (fold.go) and the trace does not
	// print. LocalBytes and RemoteBytes are what a task read on its node
	// and across the network: a map task's split, on the attempt span
	// that Settles the task (its last); a winning reduce attempt's
	// shuffle; a cache task's caches, LocalCaches of them on its node.
	// OutBytes is what it wrote: a map task's spill, a reduce's output.
	// Shuffle is a winning reduce attempt's copy time.
	Settles                           bool
	LocalCaches                       int32
	LocalBytes, RemoteBytes, OutBytes int64
	Shuffle                           simtime.Duration
	// A recurrence root's: the caches its tick purged, its status-matrix
	// updates and retired panes, and the partitions it re-homed off a
	// dead node.
	Purged, Updates, Retired, Rehomed int32
}

// WaitOn sets the spans s waited on to ids: inline when two or fewer,
// else in a copy, so the caller may reuse ids afterwards.
func (s *TaskSpan) WaitOn(ids ...SpanID) {
	s.Deps, s.Shared = [2]SpanID{}, nil
	if len(ids) > len(s.Deps) {
		s.Shared = slices.Clone(ids)
		return
	}
	copy(s.Deps[:], ids)
}

// event formats the span as readers see it.
func (s *TaskSpan) event() Event {
	ev := Event{
		Track: s.Track, Cat: spanKinds[s.Kind].cat, Name: s.name(), Args: s.labels(),
		Start: s.Start, End: s.End, Ready: s.Ready, ID: s.ID, Parent: s.Parent,
	}
	for _, deps := range [2][]SpanID{s.Shared, s.Deps[:]} {
		for _, d := range deps {
			if d != 0 {
				ev.Deps = append(ev.Deps, d)
			}
		}
	}
	return ev
}

// name formats a kind's span name from its facts.
func (s *TaskSpan) name() string {
	verb := spanKinds[s.Kind].verb
	part := " p" + strconv.Itoa(s.Part)
	pane := " pane " + strconv.FormatInt(s.Pane, 10)
	switch s.Kind {
	case SpanMap, SpanBackup:
		return verb + " " + s.Input + "#" + strconv.Itoa(s.Block) + "@" + strconv.FormatInt(s.Offset, 10)
	case SpanShuffle, SpanReduce, SpanFinalize:
		return verb + part
	case SpanPaneShuffle, SpanSpill:
		return verb + " " + s.Input + pane + part
	case SpanCombine, SpanRebuild, SpanReuse, SpanReuseMerge:
		return verb + pane + part
	case SpanJoin:
		return verb + " " + s.Input + part
	case SpanPhase:
		return verb + " " + s.Input + pane
	case SpanRecurrence, SpanRereplicate:
		return verb + " " + strconv.Itoa(s.Index)
	case SpanReplicate:
		return verb + " " + s.Input
	}
	return verb
}

// labels formats a kind's span args from its facts.
func (s *TaskSpan) labels() []Label {
	count := strconv.FormatInt(s.Count, 10)
	switch s.Kind {
	case SpanMap, SpanBackup, SpanReduce:
		args := []Label{L("attempt", strconv.Itoa(s.Attempt)), L("job", s.Job)}
		switch {
		case s.Failed:
			return append(args, L("result", "failed"))
		case s.Kind != SpanBackup:
			return append(args, L("worker", strconv.Itoa(s.Worker)))
		}
		return args
	case SpanShuffle:
		return []Label{L("job", s.Job)}
	case SpanPaneShuffle, SpanSpill:
		return []Label{L("query", s.Job)}
	case SpanManifest:
		return []Label{L("query", s.Job), L("tuples", count)}
	case SpanPhase:
		return []Label{L("segments", count)}
	case SpanRecurrence:
		mode := "reactive"
		if s.Proactive {
			mode = "proactive"
		}
		return []Label{L("mode", mode), L("newPanes", count), L("reusedPanes", strconv.Itoa(s.Reused))}
	case SpanReplicate, SpanRereplicate:
		return []Label{L("bytes", count)}
	case SpanCombine, SpanRebuild, SpanFinalize, SpanJoin, SpanReuse, SpanReuseMerge:
		return []Label{L("caches", count), L("query", s.Job)}
	}
	return nil
}

// New returns an empty tracer.
func New() *Tracer {
	return &Tracer{tids: make(map[string]int), nameIdx: make(map[string]int32), folded: newExposition()}
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
// to at most Start. An overlay kind (a phase or replication span) is
// recorded without identity or readiness. Returns the span's ID (0 on a
// nil tracer or for an overlay).
func (t *Tracer) Task(ts TaskSpan) SpanID {
	if t == nil {
		return 0
	}
	ts.End = max(ts.Start, ts.End)
	overlay := spanKinds[ts.Kind].overlay
	if !overlay && (ts.Ready == 0 || ts.Ready > ts.Start) {
		ts.Ready = ts.Start
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if ts.ID == 0 && !overlay {
		t.nextID++
		ts.ID = t.nextID
	}
	t.recordLocked(&ts)
	return ts.ID
}

// recordLocked gives a new track the next tid and appends s to the
// open segment, which a recurrence root closes as its track's: the root
// and all recorded since the last one, folded into the metrics as it
// closes. A track's segments past KeepRecurrences go oldest first,
// their cleared arrays becoming the next open segment's (recycle).
// Caller holds t.mu.
func (t *Tracer) recordLocked(s *TaskSpan) {
	if _, ok := t.tids[s.Track]; !ok {
		t.tids[s.Track] = len(t.tracks)
		t.tracks = append(t.tracks, s.Track)
	}
	t.open.spans = append(t.open.spans, *s)
	if s.Kind != SpanRecurrence {
		return
	}
	t.fold(t.folded, &t.open)
	t.segs, t.open = append(t.segs, t.open), segment{}
	oldest, owned := 0, 0
	for i := len(t.segs) - 1; i >= 0; i-- {
		if spans := t.segs[i].spans; spans[len(spans)-1].Track == s.Track {
			oldest, owned = i, owned+1
		}
	}
	if owned > KeepRecurrences {
		old, closed := t.segs[oldest], t.segs[len(t.segs)-1]
		t.open = segment{recycle(old.spans, len(closed.spans)), recycle(old.decisions, len(closed.decisions)),
			recycle(old.placements, len(closed.placements)), recycle(old.cands, len(closed.cands))}
		t.segs = slices.Delete(t.segs, oldest, oldest+1)
	}
}

// recycle returns a dropped segment's array, cleared, for the next open
// segment to fill, unless it holds more than twice what the segment
// just closed needed: a cold start's, sized for every pane it built,
// would otherwise be handed on for the whole run.
func recycle[T any](old []T, used int) []T {
	if cap(old) > max(2*used, 64) {
		return nil
	}
	clear(old)
	return old[:0]
}

// Emit records a decision event in the open segment, so it is kept
// and dropped with the recurrence it belongs to.
func (t *Tracer) Emit(at simtime.Time, typ eventlog.Type, query string, data any) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.open.decisions = append(t.open.decisions, decision{
		at: at, data: data, typ: t.nameLocked(string(typ)), query: t.nameLocked(query)})
	t.mu.Unlock()
}

// EmitCache is Emit for a cache.* decision, whose payload stays unboxed
// until the record is read.
func (t *Tracer) EmitCache(at simtime.Time, typ eventlog.Type, query string, data eventlog.CacheData) {
	t.emitCache(at, typ, query, data, nil)
}

// EmitReuse is EmitCache for a cache.hit on another query's cache,
// reused by mode: read, it is a cache.hit like a lookup's; the metrics
// count it as a reuse hit, not a lookup.
func (t *Tracer) EmitReuse(at simtime.Time, query, mode string, data eventlog.CacheData) {
	t.emitCache(at, eventlog.CacheHit, query, data, mode)
}

// emitCache records a cache decision, a reuse hit's when mode is set.
func (t *Tracer) emitCache(at simtime.Time, typ eventlog.Type, query string, data eventlog.CacheData, mode any) {
	if t == nil {
		return
	}
	kind := cacheDecision
	if mode != nil {
		kind = reuseDecision
	}
	t.mu.Lock()
	t.open.decisions = append(t.open.decisions, decision{
		at: at, data: mode, pid: data.PID, bytes: data.Bytes, node: int32(data.Node), rec: int32(data.Recurrence),
		typ: t.nameLocked(string(typ)), query: t.nameLocked(query), name: t.nameLocked(data.CacheType),
		kind: kind,
	})
	t.mu.Unlock()
}

// EmitPlacement is Emit for a placement decision, whose payload stays
// unboxed until the record is read; its candidates are copied, so the
// caller may reuse them.
func (t *Tracer) EmitPlacement(at simtime.Time, query string, data eventlog.PlacementData) {
	if t == nil {
		return
	}
	t.mu.Lock()
	seg := &t.open
	seg.decisions = append(seg.decisions, decision{
		at: at, bytes: int64(len(seg.placements)), node: int32(data.Chosen), rec: int32(data.Recurrence),
		typ: t.nameLocked(string(eventlog.Placement)), query: t.nameLocked(query), name: t.nameLocked(data.Outcome),
		kind: placementDecision,
	})
	lo := int32(len(seg.cands))
	seg.cands = append(seg.cands, data.Candidates...)
	seg.placements = append(seg.placements, placed{int32(data.Caches), lo, int32(len(seg.cands))})
	t.mu.Unlock()
}

// nameLocked returns s's index in t.names, adding it when new. Caller
// holds t.mu.
func (t *Tracer) nameLocked(s string) int32 {
	i, ok := t.nameIdx[s]
	if !ok {
		i = int32(len(t.names))
		t.nameIdx[s] = i
		t.names = append(t.names, s)
	}
	return i
}

// decisionLocked returns the decision d of segment seg records, its
// payload formed. Caller holds t.mu.
func (t *Tracer) decisionLocked(seg *segment, d *decision) eventlog.Event {
	ev := eventlog.Event{At: d.at, Type: eventlog.Type(t.names[d.typ]), Query: t.names[d.query], Data: d.data}
	switch d.kind {
	case cacheDecision, reuseDecision:
		ev.Data = eventlog.CacheData{PID: d.pid, CacheType: t.names[d.name],
			Node: int(d.node), Bytes: d.bytes, Recurrence: int(d.rec)}
	case placementDecision:
		p := seg.placements[d.bytes]
		ev.Data = eventlog.PlacementData{Recurrence: int(d.rec), Chosen: int(d.node),
			Outcome: t.names[d.name], Caches: int(p.caches), Candidates: slices.Clone(seg.cands[p.lo:p.hi])}
	}
	return ev
}

// Len returns the number of retained spans.
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	n := 0
	for _, seg := range t.segments() {
		n += len(seg.spans)
	}
	return n
}

// Events returns the retained spans in record order, each formatted
// from its facts.
func (t *Tracer) Events() []Event {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []Event
	for _, seg := range t.segments() {
		for i := range seg.spans {
			out = append(out, seg.spans[i].event())
		}
	}
	return out
}

// Decisions returns the retained decision events in record order.
func (t *Tracer) Decisions() []eventlog.Event {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []eventlog.Event
	for _, seg := range t.segments() {
		for i := range seg.decisions {
			out = append(out, t.decisionLocked(&seg, &seg.decisions[i]))
		}
	}
	return out
}

// segments returns the closed segments and the open one, oldest first.
// Caller holds t.mu.
func (t *Tracer) segments() []segment {
	return append(t.segs[:len(t.segs):len(t.segs)], t.open)
}
