// Package eventlog is the vocabulary of Redoop's decision record: the
// typed structured events describing the system's adaptive decisions —
// recurrence lifecycles, pane ingestion, cache registrations and
// lookups, Equation 4 placement choices with their full per-candidate
// cost breakdown, adaptive re-planning, retries and injected faults.
//
// Events carry virtual-clock timestamps (internal/simtime). They are
// recorded by obs.Tracer next to the spans of the recurrence they
// belong to (Tracer.Emit, Tracer.Decisions), so one retention rule
// keeps or drops both together.
package eventlog

import "redoop/internal/simtime"

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
	TaskRetry Type = "task.retry"
	// Fault is one injected failure (FaultData): a chaos action or a
	// scripted node crash.
	Fault Type = "fault"
	// HealthStatus is a query's SLO status transition
	// (OK / AT_RISK / MISSING_DEADLINES).
	HealthStatus Type = "health.status"
	// HealthAnomaly flags a recurrence whose Holt forecast residual
	// exceeded K times the residual EWMA.
	HealthAnomaly Type = "health.anomaly"
	// AdaptivityMiss is a forecast anomaly the adaptive re-planner did
	// not react to — the §3.3 loop missed a regime change.
	AdaptivityMiss Type = "health.adaptivity_miss"
)

// Event is one recorded decision.
type Event struct {
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

// FaultNodeCrash is the FaultData kind of a node death; the others are
// cache-drop, pane-corrupt and pane-truncate.
const FaultNodeCrash = "node-crash"

// FaultData records one injected failure: its kind, the node it hit
// (-1 for a pane-file fault) and the DFS path it damaged, if any.
type FaultData struct {
	Kind string `json:"kind"`
	Node int    `json:"node"`
	Path string `json:"path,omitempty"`
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
