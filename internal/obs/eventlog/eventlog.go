// Package eventlog is Redoop's flight recorder: a bounded,
// concurrency-safe ring buffer of typed structured events describing
// the system's adaptive decisions — recurrence lifecycles, pane
// ingestion, cache registrations and lookups, Equation 4 placement
// choices with their full per-candidate cost breakdown, adaptive
// re-planning, and failures.
//
// Events carry virtual-clock timestamps (internal/simtime) and a
// monotonically increasing sequence number, so a consumer can order
// them and resume from where it left off (`Since`). The buffer is
// bounded: once capacity is reached the oldest events are
// overwritten and counted in Dropped, so a long-running recurring
// query records forever in constant memory.
//
// Like the rest of the obs layer, a nil *Log is a valid no-op, so
// emitting code instruments unconditionally.
package eventlog

import (
	"sync"

	"redoop/internal/simtime"
)

// Type names one kind of recorded event.
type Type string

// The event vocabulary. Payload types below document each event's
// Data field.
const (
	RecurrenceStart  Type = "recurrence.start"
	RecurrenceFinish Type = "recurrence.finish"
	PaneIngest       Type = "pane.ingest"
	PaneRetire       Type = "pane.retire"
	CacheRegister    Type = "cache.register"
	CacheHit         Type = "cache.hit"
	CacheMiss        Type = "cache.miss"
	// CacheLost is a lookup that found the signature but not the bytes
	// (the §5 failure path); it is always followed by a rollback.
	CacheLost     Type = "cache.lost"
	CachePurge    Type = "cache.purge"
	CacheRollback Type = "cache.rollback"
	// CacheEvict is one unexpired cache removed by cost-based
	// replacement under a disk limit (CacheData): the signature rolls
	// back to HDFS-available, so the entry is rebuildable, not lost.
	CacheEvict Type = "cache.evict"
	// Placement is one Equation 4 decision with its full per-candidate
	// breakdown (PlacementData).
	Placement Type = "placement"
	Replan    Type = "replan"
	// TaskRetry is a failed task attempt that will be retried.
	TaskRetry   Type = "task.retry"
	NodeFailure Type = "node.failure"
	// HealthStatus is a query's SLO status transition
	// (OK / AT_RISK / MISSING_DEADLINES).
	HealthStatus Type = "health.status"
	// HealthAnomaly flags a recurrence whose Holt forecast residual
	// exceeded K times the residual EWMA.
	HealthAnomaly Type = "health.anomaly"
	// AdaptivityMiss is a forecast anomaly the adaptive re-planner did
	// not react to — the §3.3 loop missed a regime change.
	AdaptivityMiss Type = "health.adaptivity_miss"
	// LineageDerived is one derivation node recorded in the provenance
	// store: a pane cache or emitted window, with its plan fingerprint
	// (LineageDerivedData).
	LineageDerived Type = "lineage.derived"
	// LineageCopyRehome is a cache copy re-homed to a different node by
	// a rebuild (LineageRehomeData).
	LineageCopyRehome Type = "lineage.copy_rehome"
	// LineageRebuild is a derivation rebuilt after its cached bytes were
	// lost, with the fault named as the cause when one matches
	// (LineageRebuildData).
	LineageRebuild Type = "lineage.rebuild"
)

// Event is one recorded entry of the flight recorder.
type Event struct {
	// Seq is the event's global sequence number, 1-based and strictly
	// increasing in record order.
	Seq uint64 `json:"seq"`
	// At is the event's virtual-clock instant.
	At   simtime.Time `json:"at"`
	Type Type         `json:"type"`
	// Query labels the owning recurring query, when one applies.
	Query string `json:"query,omitempty"`
	// Data is the event's typed payload (one of the *Data structs
	// below), JSON-serializable.
	Data any `json:"data,omitempty"`
}

// RecurrenceStartData reports a recurrence trigger firing.
type RecurrenceStartData struct {
	Recurrence int   `json:"recurrence"`
	WindowLo   int64 `json:"windowLo"`
	WindowHi   int64 `json:"windowHi"`
}

// RecurrenceFinishData reports a completed recurrence. ForecastNS is
// the Holt forecast that was made for this recurrence at the end of
// the previous one (-1 before the profiler warms up), so forecast
// error is computable directly from the pair.
type RecurrenceFinishData struct {
	Recurrence      int   `json:"recurrence"`
	ResponseNS      int64 `json:"responseNS"`
	ForecastNS      int64 `json:"forecastNS"`
	NewPanes        int   `json:"newPanes"`
	ReusedPanes     int   `json:"reusedPanes"`
	NewPairs        int   `json:"newPairs,omitempty"`
	ReusedPairs     int   `json:"reusedPairs,omitempty"`
	CacheRecoveries int   `json:"cacheRecoveries,omitempty"`
	Proactive       bool  `json:"proactive,omitempty"`
	SubPanes        int   `json:"subPanes"`
}

// PaneIngestData reports one pane segment flushed to a DFS file by the
// Dynamic Data Packer.
type PaneIngestData struct {
	Source  string `json:"source"`
	Pane    int64  `json:"pane"`
	SubPane int    `json:"subPane"`
	Path    string `json:"path"`
	Bytes   int64  `json:"bytes"`
}

// PaneRetireData reports panes retired from the cache status matrix
// after sliding out of every window.
type PaneRetireData struct {
	Source int     `json:"source"`
	Panes  []int64 `json:"panes"`
}

// CacheData is the payload of every cache.* event: which cache, where
// it lives, and which recurrence touched it. For hit events the PID
// attributes the reused bytes back to the pane (and recurrence) that
// produced them — the pane ids are embedded in the PID's P segment.
type CacheData struct {
	PID       string `json:"pid"`
	CacheType string `json:"cacheType"`
	Node      int    `json:"node"`
	Bytes     int64  `json:"bytes,omitempty"`
	// Recurrence is the recurrence during which the event fired.
	Recurrence int `json:"recurrence"`
}

// PlacementCandidate is one node's Equation 4 cost breakdown:
// Load_i (queueing delay before a reduce slot frees) plus C_task,i
// (the I/O cost of loading the task's caches from this node).
type PlacementCandidate struct {
	Node        int   `json:"node"`
	LoadNS      int64 `json:"loadNS"`
	CacheCostNS int64 `json:"cacheCostNS"`
	TotalNS     int64 `json:"totalNS"`
}

// PlacementData records one cache-task placement decision: every alive
// candidate's cost terms, the chosen node (the argmin), and the
// outcome classification.
type PlacementData struct {
	Recurrence int                  `json:"recurrence"`
	Chosen     int                  `json:"chosen"`
	Outcome    string               `json:"outcome"`
	Caches     int                  `json:"caches"`
	Candidates []PlacementCandidate `json:"candidates"`
}

// ReplanData records an adaptive re-planning decision (§3.3).
type ReplanData struct {
	Recurrence int   `json:"recurrence"`
	Source     int   `json:"source"`
	SubPanes   int   `json:"subPanes"`
	Proactive  bool  `json:"proactive"`
	ForecastNS int64 `json:"forecastNS"`
	DeadlineNS int64 `json:"deadlineNS"`
}

// TaskRetryData records a failed task attempt about to be retried.
type TaskRetryData struct {
	Job     string `json:"job"`
	Task    string `json:"task"`
	Phase   string `json:"phase"`
	Attempt int    `json:"attempt"`
}

// NodeFailureData records a node death.
type NodeFailureData struct {
	Node int `json:"node"`
}

// HealthStatusData records a query's SLO status transition.
type HealthStatusData struct {
	Recurrence int    `json:"recurrence"`
	From       string `json:"from"`
	To         string `json:"to"`
	MissStreak int    `json:"missStreak"`
	HeadroomNS int64  `json:"headroomNS"`
	LagUnits   int64  `json:"lagUnits"`
}

// HealthAnomalyData records a Holt forecast residual anomaly: the
// residual |actual − forecast| exceeded K times the EWMA of prior
// residuals (EWMANS is that prior scale).
type HealthAnomalyData struct {
	Recurrence  int     `json:"recurrence"`
	ForecastNS  int64   `json:"forecastNS"`
	ActualNS    int64   `json:"actualNS"`
	ResidualNS  int64   `json:"residualNS"`
	EWMANS      int64   `json:"ewmaNS"`
	K           float64 `json:"k"`
	ReplanFired bool    `json:"replanFired"`
}

// AdaptivityMissData records a forecast anomaly that fired without the
// adaptive re-planner reacting at the same recurrence boundary.
type AdaptivityMissData struct {
	Recurrence int   `json:"recurrence"`
	ForecastNS int64 `json:"forecastNS"`
	ActualNS   int64 `json:"actualNS"`
	ResidualNS int64 `json:"residualNS"`
}

// LineageDerivedData records one derivation node entering the
// provenance store.
type LineageDerivedData struct {
	ID          string `json:"id"`
	Kind        string `json:"kind"`
	Pane        int64  `json:"pane"`
	Part        int    `json:"part"`
	Bytes       int64  `json:"bytes"`
	Fingerprint string `json:"fingerprint"`
}

// LineageRehomeData records a cache copy re-homed across nodes by a
// rebuild.
type LineageRehomeData struct {
	ID   string `json:"id"`
	From int    `json:"from"`
	To   int    `json:"to"`
}

// LineageRebuildData records a derivation rebuilt after loss; Cause
// names the matched fault ("" when none matched).
type LineageRebuildData struct {
	ID    string `json:"id"`
	Kind  string `json:"kind"`
	Cause string `json:"cause,omitempty"`
}

// DefaultCapacity bounds the default flight recorder. At Redoop's
// event rates (tens of events per recurrence) this covers hundreds of
// recurrences while staying a few MiB at most.
const DefaultCapacity = 8192

// Log is the bounded event ring buffer. All methods are safe for
// concurrent use; a nil *Log is a no-op.
type Log struct {
	mu      sync.Mutex
	buf     []Event // ring storage, len == capacity
	start   int     // index of the oldest retained event
	n       int     // retained count
	seq     uint64  // last assigned sequence number
	dropped uint64  // events overwritten by wraparound
}

// NewLog returns an empty log retaining at most capacity events;
// capacity <= 0 selects DefaultCapacity.
func NewLog(capacity int) *Log {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	return &Log{buf: make([]Event, capacity)}
}

// Append records one event, stamping its sequence number, and returns
// it. When the buffer is full the oldest event is overwritten. A nil
// log returns a zero Event.
func (l *Log) Append(at simtime.Time, typ Type, query string, data any) Event {
	if l == nil {
		return Event{}
	}
	l.mu.Lock()
	l.seq++
	e := Event{Seq: l.seq, At: at, Type: typ, Query: query, Data: data}
	if l.n < len(l.buf) {
		l.buf[(l.start+l.n)%len(l.buf)] = e
		l.n++
	} else {
		l.buf[l.start] = e
		l.start = (l.start + 1) % len(l.buf)
		l.dropped++
	}
	l.mu.Unlock()
	return e
}

// Len returns the number of retained events.
func (l *Log) Len() int {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.n
}

// Cap returns the ring capacity (0 for nil).
func (l *Log) Cap() int {
	if l == nil {
		return 0
	}
	return len(l.buf)
}

// Seq returns the last assigned sequence number.
func (l *Log) Seq() uint64 {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.seq
}

// Dropped returns how many events were overwritten by wraparound.
func (l *Log) Dropped() uint64 {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.dropped
}

// Events returns the retained events, oldest first.
func (l *Log) Events() []Event {
	return l.Since(0)
}

// Since returns the retained events with Seq > seq, oldest first.
// Passing the Seq of the last event a consumer saw resumes from there
// (events older than the retention window are simply gone).
func (l *Log) Since(seq uint64) []Event {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]Event, 0, l.n)
	for i := 0; i < l.n; i++ {
		e := l.buf[(l.start+i)%len(l.buf)]
		if e.Seq > seq {
			out = append(out, e)
		}
	}
	return out
}
