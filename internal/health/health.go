// Package health is the recurring-query SLO monitor: the closed-loop
// judgment layer over the raw telemetry of internal/obs. Redoop's
// contract is that recurrence i of Q(win, slide) finishes before the
// next slide boundary; this package measures that contract per query
// and per recurrence:
//
//   - Deadline headroom — slide minus the realized response time. A
//     recurrence whose response exceeds its slide has missed its
//     deadline: the next window was already due when this one's output
//     appeared.
//   - Window lag — a watermark-style measure of how far ingestion has
//     run ahead of processing: the virtual-clock distance between the
//     newest packed pane and the newest pane the last completed
//     recurrence actually covered. A growing lag means the query is
//     falling behind its input even if individual recurrences still
//     look fast.
//   - Miss streaks — consecutive deadline misses, thresholded into
//     OK / AT_RISK / MISSING_DEADLINES.
//   - Forecast anomalies — the Execution Profiler's Holt model (§3.3)
//     predicts each recurrence's duration; the monitor keeps an EWMA of
//     the absolute forecast residuals and flags recurrences whose
//     residual exceeds K times that scale. When an anomaly fires and
//     the engine's adaptive re-planner did NOT react, the monitor
//     records an "adaptivity miss" — the signal that the §3.3 loop
//     failed to respond to a regime change it should have seen.
//
// The monitor records decision events (health.status,
// health.anomaly, health.adaptivity_miss), and its query statuses are
// read into the metrics exposition at export (redoop_health_status,
// redoop_deadline_headroom_seconds, redoop_window_lag_units,
// redoop_miss_streak, redoop_deadline_misses_total,
// redoop_health_anomalies_total, redoop_adaptivity_misses_total), so
// the judgments flow through the same surfaces as the raw telemetry:
// redoopctl health, the metrics exposition, and redoop-bench's
// -json-out summary.
//
// Like the rest of the obs stack, a nil *Monitor or *Tracker is a
// valid no-op, so the engine instruments unconditionally.
package health

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"sync"

	"redoop/internal/obs"
	"redoop/internal/obs/eventlog"
	"redoop/internal/simtime"
)

// Status classifies a query's deadline health.
type Status string

const (
	// StatusOK: the last recurrence met its deadline with comfortable
	// headroom.
	StatusOK Status = "OK"
	// StatusAtRisk: the last recurrence missed its deadline, or met it
	// with less than the configured headroom fraction to spare.
	StatusAtRisk Status = "AT_RISK"
	// StatusMissingDeadlines: the query has missed MissStreak or more
	// consecutive deadlines — it is persistently behind its slide.
	StatusMissingDeadlines Status = "MISSING_DEADLINES"
)

// Level orders statuses by severity (OK=0, AT_RISK=1,
// MISSING_DEADLINES=2) — the value of the redoop_health_status gauge.
func (s Status) Level() int {
	switch s {
	case StatusAtRisk:
		return 1
	case StatusMissingDeadlines:
		return 2
	default:
		return 0
	}
}

// The monitor's fixed thresholds.
const (
	// AnomalyK flags a recurrence when its absolute Holt residual
	// exceeds AnomalyK times the residual EWMA.
	AnomalyK = 3
	// ResidualAlpha is the EWMA smoothing factor of the absolute
	// residual scale.
	ResidualAlpha = 0.3
	// MinResidualSamples is how many residuals must be absorbed before
	// anomaly detection arms — a cold-start guard so the first noisy
	// forecasts don't fire alerts.
	MinResidualSamples = 3
	// AtRiskFraction: headroom below AtRiskFraction·slide marks the
	// query AT_RISK even when the deadline was met.
	AtRiskFraction = 0.2
	// MissStreak is how many consecutive deadline misses escalate
	// AT_RISK to MISSING_DEADLINES.
	MissStreak = 3
)

// Config holds the monitor's two operator settings; the zero Config
// sets neither.
type Config struct {
	// DeadlineOverride, when positive, replaces every registered
	// query's natural deadline (its slide). Simulated runs finish
	// recurrences in virtual milliseconds against multi-minute slides,
	// so operators tighten the SLO to exercise the miss machinery.
	DeadlineOverride simtime.Duration
	// CacheByteSecondBudget flags a query AT_RISK when its cumulative
	// cache occupancy (byte·seconds, from the cost ledger) exceeds this
	// value. Applies even to deadline-less queries. 0 disables.
	CacheByteSecondBudget float64
}

// DefaultConfig returns the zero Config: no deadline override, no
// cache budget.
func DefaultConfig() Config { return Config{} }

// Sample is what the engine reports at each recurrence boundary, after
// the adaptive re-planning decision for the next recurrence has been
// made (so ReplanFired is known).
type Sample struct {
	Recurrence  int
	TriggerAt   simtime.Time
	CompletedAt simtime.Time
	// Response is the recurrence's realized response time.
	Response simtime.Duration
	// Forecast is the Holt forecast that was made for THIS recurrence
	// at the end of the previous one; HaveForecast is false before the
	// profiler warms up (no residual is recorded then).
	Forecast     simtime.Duration
	HaveForecast bool
	// ReplanFired reports whether the engine's adaptive re-planner
	// changed the partition plan at this boundary.
	ReplanFired bool
	// NewestPackedUnit is the exclusive upper unit bound of the newest
	// pane any source has packed data for; CoveredUnit is the exclusive
	// upper bound this recurrence's window covered. Their difference is
	// the window lag.
	NewestPackedUnit int64
	CoveredUnit      int64
	// CacheByteSeconds is the query's cumulative cache occupancy from
	// the cost ledger (0 when no ledger is attached). Compared against
	// Config.CacheByteSecondBudget.
	CacheByteSeconds float64
}

// QueryStatus is one query's health snapshot, read by redoopctl health
// and redoop-bench's -json-out summary.
type QueryStatus struct {
	Query       string `json:"query"`
	Status      Status `json:"status"`
	Recurrences int    `json:"recurrences"`
	// LastRecurrence is the index of the newest observed recurrence
	// (-1 before any).
	LastRecurrence int `json:"lastRecurrence"`
	// DeadlineNS is the per-recurrence deadline (the slide); 0 means
	// the query has no deadline (count-based windows).
	DeadlineNS     int64 `json:"deadlineNS"`
	LastResponseNS int64 `json:"lastResponseNS"`
	// HeadroomNS is deadline − last response (negative = missed);
	// MinHeadroomNS is the worst headroom ever observed.
	HeadroomNS    int64 `json:"headroomNS"`
	MinHeadroomNS int64 `json:"minHeadroomNS"`
	// WindowLagUnits is the watermark distance between packed and
	// covered data, in window units (virtual nanoseconds for
	// time-based windows).
	WindowLagUnits   int64 `json:"windowLagUnits"`
	MissStreak       int   `json:"missStreak"`
	MaxMissStreak    int   `json:"maxMissStreak"`
	DeadlineMisses   int   `json:"deadlineMisses"`
	Anomalies        int   `json:"anomalies"`
	AdaptivityMisses int   `json:"adaptivityMisses"`
	// ResidualEWMANS is the current EWMA of absolute Holt residuals;
	// LastForecastNS is the newest forecast observed (-1 before the
	// profiler warms up).
	ResidualEWMANS int64 `json:"residualEwmaNS"`
	LastForecastNS int64 `json:"lastForecastNS"`
	// CacheByteSeconds is the query's cumulative cache occupancy;
	// OverCacheBudget reports whether it exceeds the configured
	// byte·second budget (always false when the budget is disabled).
	CacheByteSeconds float64 `json:"cacheByteSeconds"`
	OverCacheBudget  bool    `json:"overCacheBudget"`
}

// Monitor tracks the health of any number of recurring queries. One
// monitor may be shared by several engines (like a Controller); its
// trackers are registered per engine.
type Monitor struct {
	mu       sync.Mutex
	cfg      Config
	obs      *obs.Tracer
	trackers []*Tracker
	names    map[string]int // base-name registrations, for suffixing
}

// NewMonitor returns a monitor with the given settings.
func NewMonitor(cfg Config) *Monitor {
	return &Monitor{cfg: cfg, names: make(map[string]int)}
}

// SetObserver attaches the observability layer the monitor records its
// events on and whose metrics exposition reads its query statuses, all
// of them, at export (export). Setting nil detaches it from events; an
// observer once attached keeps reading the statuses. Safe to call
// concurrently with Observe.
func (m *Monitor) SetObserver(o *obs.Tracer) {
	if m == nil {
		return
	}
	m.mu.Lock()
	attach := o != nil && o != m.obs
	m.obs = o
	m.mu.Unlock()
	if attach {
		o.Attach(m.export)
	}
}

// export adds each observed query's status to x: its level, window lag,
// miss streak and, with a deadline, headroom as gauges, which a monitor
// attached later overwrites for a query both observed; its deadline
// misses, anomalies and adaptivity misses as counters, touched by the
// first one.
func (m *Monitor) export(x *obs.Exposition) {
	for _, s := range m.Snapshot() {
		if s.Recurrences == 0 {
			continue
		}
		q := obs.L("query", s.Query)
		x.Set("redoop_health_status", float64(s.Status.Level()), q)
		x.Set("redoop_window_lag_units", float64(s.WindowLagUnits), q)
		x.Set("redoop_miss_streak", float64(s.MissStreak), q)
		if s.DeadlineNS > 0 {
			x.Set("redoop_deadline_headroom_seconds", simtime.Duration(s.HeadroomNS).Seconds(), q)
		}
		for _, c := range []struct {
			name string
			n    int
		}{
			{"redoop_deadline_misses_total", s.DeadlineMisses},
			{"redoop_health_anomalies_total", s.Anomalies},
			{"redoop_adaptivity_misses_total", s.AdaptivityMisses},
		} {
			if c.n > 0 {
				x.Add(c.name, float64(c.n), q)
			}
		}
	}
}

// Observer returns the currently attached observer.
func (m *Monitor) Observer() *obs.Tracer {
	if m == nil {
		return nil
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.obs
}

// Register adds a query to the monitor and returns its tracker.
// deadline is the per-recurrence SLO — the slide for time-based
// windows; pass 0 for queries with no deadline (count-based windows).
// Registering a name twice yields distinct trackers, the second
// suffixed "#2" and so on, so engines re-using a query name (e.g.
// figure panels at different overlaps) stay separately tracked.
func (m *Monitor) Register(name string, deadline simtime.Duration) *Tracker {
	if m == nil {
		return nil
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.names[name]++
	if n := m.names[name]; n > 1 {
		name = fmt.Sprintf("%s#%d", name, n)
	}
	if m.cfg.DeadlineOverride > 0 {
		deadline = m.cfg.DeadlineOverride
	}
	t := &Tracker{
		m:              m,
		name:           name,
		deadline:       deadline,
		lastRec:        -1,
		status:         StatusOK,
		lastForecastNS: -1,
	}
	m.trackers = append(m.trackers, t)
	return t
}

// Snapshot returns every registered query's status, in registration
// order.
func (m *Monitor) Snapshot() []QueryStatus {
	if m == nil {
		return nil
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]QueryStatus, 0, len(m.trackers))
	for _, t := range m.trackers {
		out = append(out, t.statusLocked())
	}
	return out
}

// WriteText renders the snapshot as a fixed-width status table and
// returns the first write error.
func (m *Monitor) WriteText(out io.Writer) error {
	w := bufio.NewWriter(out)
	fmt.Fprintf(w, "%-14s %-18s %5s %12s %12s %12s %10s %6s %6s %5s %6s\n",
		"query", "status", "recs", "deadline", "response", "headroom", "lag", "streak", "misses", "anom", "a-miss")
	for _, s := range m.Snapshot() {
		deadline, headroom := "-", "-"
		if s.DeadlineNS > 0 {
			deadline = simtime.FormatNS(s.DeadlineNS)
			headroom = simtime.FormatNS(s.HeadroomNS)
		}
		fmt.Fprintf(w, "%-14s %-18s %5d %12s %12s %12s %10s %6d %6d %5d %6d\n",
			s.Query, s.Status, s.Recurrences, deadline, simtime.FormatNS(s.LastResponseNS), headroom,
			simtime.FormatNS(s.WindowLagUnits), s.MissStreak, s.DeadlineMisses, s.Anomalies, s.AdaptivityMisses)
	}
	return w.Flush()
}

// Tracker is one query's health state. Observe is driven by the
// engine at each recurrence boundary; all state is guarded by the
// owning monitor's lock so Snapshot sees consistent rows.
type Tracker struct {
	m        *Monitor
	name     string
	deadline simtime.Duration

	recurrences    int
	lastRec        int
	lastResponse   simtime.Duration
	headroom       simtime.Duration
	minHeadroom    simtime.Duration
	haveHeadroom   bool
	lag            int64
	streak         int
	maxStreak      int
	misses         int
	anomalies      int
	adaptMisses    int
	resEWMA        float64 // absolute residual scale, ns
	resSamples     int
	status         Status
	lastForecastNS int64
	cacheByteSec   float64
	overBudget     bool
}

func (t *Tracker) statusLocked() QueryStatus {
	return QueryStatus{
		Query:            t.name,
		Status:           t.status,
		Recurrences:      t.recurrences,
		LastRecurrence:   t.lastRec,
		DeadlineNS:       int64(t.deadline),
		LastResponseNS:   int64(t.lastResponse),
		HeadroomNS:       int64(t.headroom),
		MinHeadroomNS:    int64(t.minHeadroom),
		WindowLagUnits:   t.lag,
		MissStreak:       t.streak,
		MaxMissStreak:    t.maxStreak,
		DeadlineMisses:   t.misses,
		Anomalies:        t.anomalies,
		AdaptivityMisses: t.adaptMisses,
		ResidualEWMANS:   int64(t.resEWMA),
		LastForecastNS:   t.lastForecastNS,
		CacheByteSeconds: t.cacheByteSec,
		OverCacheBudget:  t.overBudget,
	}
}

// Observe absorbs one completed recurrence, updates the query's
// health, and records the resulting events. Nil-safe.
func (t *Tracker) Observe(s Sample) {
	if t == nil {
		return
	}
	m := t.m
	m.mu.Lock()
	cfg := m.cfg
	o := m.obs

	t.recurrences++
	t.lastRec = s.Recurrence
	t.lastResponse = s.Response
	lag := s.NewestPackedUnit - s.CoveredUnit
	if lag < 0 {
		lag = 0
	}
	t.lag = lag

	missed := false
	if t.deadline > 0 {
		t.headroom = t.deadline - s.Response
		if !t.haveHeadroom || t.headroom < t.minHeadroom {
			t.minHeadroom = t.headroom
			t.haveHeadroom = true
		}
		if s.Response > t.deadline {
			missed = true
			t.streak++
			t.misses++
			if t.streak > t.maxStreak {
				t.maxStreak = t.streak
			}
		} else {
			t.streak = 0
		}
	}

	// Anomaly detection on the Holt residual. The current residual is
	// judged against the EWMA of PRIOR residuals — a regime change is a
	// deviation from established forecast quality, so the sample that
	// trips the detector must not have smoothed itself in first.
	anomaly := false
	var residualNS float64
	var ewmaBefore float64
	if s.HaveForecast {
		residualNS = math.Abs(float64(s.Response - s.Forecast))
		ewmaBefore = t.resEWMA
		if t.resSamples >= MinResidualSamples && residualNS > AnomalyK*ewmaBefore {
			anomaly = true
			t.anomalies++
		}
		if t.resSamples == 0 {
			t.resEWMA = residualNS
		} else {
			t.resEWMA = ResidualAlpha*residualNS + (1-ResidualAlpha)*t.resEWMA
		}
		t.resSamples++
		t.lastForecastNS = int64(s.Forecast)
	}
	adaptMiss := anomaly && !s.ReplanFired
	if adaptMiss {
		t.adaptMisses++
	}

	// Cache-budget check is deadline-independent: a count-based query
	// with no SLO can still hog the caches.
	t.cacheByteSec = s.CacheByteSeconds
	t.overBudget = cfg.CacheByteSecondBudget > 0 && s.CacheByteSeconds > cfg.CacheByteSecondBudget

	prev := t.status
	next := StatusOK
	if t.deadline > 0 {
		switch {
		case t.streak >= MissStreak:
			next = StatusMissingDeadlines
		case missed || float64(t.headroom) < AtRiskFraction*float64(t.deadline):
			next = StatusAtRisk
		}
	}
	if t.overBudget && next == StatusOK {
		next = StatusAtRisk
	}
	t.status = next
	headroom := t.headroom
	streak := t.streak
	m.mu.Unlock()

	// Events are recorded outside the monitor lock; the captured values
	// keep them consistent with the transition.
	name := t.name
	if anomaly {
		o.Emit(s.CompletedAt, eventlog.HealthAnomaly, name, eventlog.HealthAnomalyData{
			Recurrence:  s.Recurrence,
			ForecastNS:  int64(s.Forecast),
			ActualNS:    int64(s.Response),
			ResidualNS:  int64(residualNS),
			EWMANS:      int64(ewmaBefore),
			K:           AnomalyK,
			ReplanFired: s.ReplanFired,
		})
	}
	if adaptMiss {
		o.Emit(s.CompletedAt, eventlog.AdaptivityMiss, name, eventlog.AdaptivityMissData{
			Recurrence: s.Recurrence,
			ForecastNS: int64(s.Forecast),
			ActualNS:   int64(s.Response),
			ResidualNS: int64(residualNS),
		})
	}
	if next != prev {
		o.Emit(s.CompletedAt, eventlog.HealthStatus, name, eventlog.HealthStatusData{
			Recurrence: s.Recurrence,
			From:       string(prev),
			To:         string(next),
			MissStreak: streak,
			HeadroomNS: int64(headroom),
			LagUnits:   lag,
		})
	}
}
