package health

import (
	"encoding/json"
	"strings"
	"sync"
	"testing"

	"redoop/internal/obs"
	"redoop/internal/obs/eventlog"
	"redoop/internal/simtime"
)

func sampleAt(r int, response, forecast simtime.Duration, haveForecast bool) Sample {
	return Sample{
		Recurrence:   r,
		TriggerAt:    simtime.Time(r) * 100,
		CompletedAt:  simtime.Time(r)*100 + simtime.Time(response),
		Response:     response,
		Forecast:     forecast,
		HaveForecast: haveForecast,
	}
}

func TestStatusTransitions(t *testing.T) {
	o := obs.New()
	m := NewMonitor(Config{})
	m.SetObserver(o)
	trk := m.Register("q1", 100*simtime.Millisecond)

	// Comfortable headroom: OK.
	trk.Observe(sampleAt(0, 50*simtime.Millisecond, 0, false))
	if got := trk.Status(); got.Status != StatusOK {
		t.Fatalf("status = %v, want OK", got.Status)
	}

	// Met the deadline but inside the at-risk fraction (headroom 10ms
	// < 0.2·100ms): AT_RISK without a miss.
	trk.Observe(sampleAt(1, 90*simtime.Millisecond, 0, false))
	st := trk.Status()
	if st.Status != StatusAtRisk {
		t.Fatalf("status = %v, want AT_RISK", st.Status)
	}
	if st.DeadlineMisses != 0 {
		t.Fatalf("deadline misses = %d, want 0", st.DeadlineMisses)
	}

	// First miss: still AT_RISK (streak 1 < MissStreak 3).
	trk.Observe(sampleAt(2, 150*simtime.Millisecond, 0, false))
	st = trk.Status()
	if st.Status != StatusAtRisk || st.MissStreak != 1 || st.DeadlineMisses != 1 {
		t.Fatalf("after one miss: %+v", st)
	}
	if st.HeadroomNS != int64(-50*simtime.Millisecond) {
		t.Fatalf("headroom = %d, want -50ms", st.HeadroomNS)
	}

	// Second consecutive miss: still AT_RISK.
	trk.Observe(sampleAt(3, 180*simtime.Millisecond, 0, false))
	if st = trk.Status(); st.Status != StatusAtRisk || st.MissStreak != 2 {
		t.Fatalf("after two misses: %+v", st)
	}

	// Third consecutive miss: MISSING_DEADLINES.
	trk.Observe(sampleAt(4, 170*simtime.Millisecond, 0, false))
	st = trk.Status()
	if st.Status != StatusMissingDeadlines || st.MissStreak != 3 {
		t.Fatalf("after three misses: %+v", st)
	}
	if st.MinHeadroomNS != int64(-80*simtime.Millisecond) {
		t.Fatalf("min headroom = %d, want -80ms", st.MinHeadroomNS)
	}

	// Recovery resets the streak and the status.
	trk.Observe(sampleAt(5, 40*simtime.Millisecond, 0, false))
	st = trk.Status()
	if st.Status != StatusOK || st.MissStreak != 0 || st.MaxMissStreak != 3 {
		t.Fatalf("after recovery: %+v", st)
	}

	// Status transitions were recorded as events: OK->AT_RISK,
	// AT_RISK->MISSING_DEADLINES, MISSING_DEADLINES->OK.
	evs := eventsOf(o, eventlog.HealthStatus)
	if len(evs) != 3 {
		t.Fatalf("health.status events = %d, want 3", len(evs))
	}
	last := evs[2].Data.(eventlog.HealthStatusData)
	if last.From != string(StatusMissingDeadlines) || last.To != string(StatusOK) {
		t.Fatalf("last transition = %+v", last)
	}

	// Counters and gauges reflect the history.
	if v := o.Exposition().Sum("redoop_deadline_misses_total", obs.L("query", "q1")); v != 3 {
		t.Fatalf("misses counter = %v, want 3", v)
	}
	if v := o.Exposition().Sum("redoop_health_status", obs.L("query", "q1")); v != 0 {
		t.Fatalf("status gauge = %v, want 0", v)
	}
}

// TestCacheByteSecondBudget pins the cost-governance hook: a query
// whose cumulative cache occupancy exceeds the configured byte·second
// budget is escalated from OK to AT_RISK, the escalation applies to
// deadline-less queries too, and it never downgrades a status the
// deadline machinery already made worse.
func TestCacheByteSecondBudget(t *testing.T) {
	m := NewMonitor(Config{CacheByteSecondBudget: 1000})
	trk := m.Register("q1", 100*simtime.Millisecond)

	s := sampleAt(0, 50*simtime.Millisecond, 0, false)
	s.CacheByteSeconds = 999
	trk.Observe(s)
	if st := trk.Status(); st.Status != StatusOK || st.OverCacheBudget {
		t.Fatalf("under budget: %+v", st)
	}

	s = sampleAt(1, 50*simtime.Millisecond, 0, false)
	s.CacheByteSeconds = 1001
	trk.Observe(s)
	st := trk.Status()
	if st.Status != StatusAtRisk || !st.OverCacheBudget {
		t.Fatalf("over budget: %+v", st)
	}
	if st.CacheByteSeconds != 1001 {
		t.Fatalf("byte·seconds = %v, want 1001", st.CacheByteSeconds)
	}

	// Over budget AND missing deadlines: the worse status wins.
	m2 := NewMonitor(Config{CacheByteSecondBudget: 1000})
	trk2 := m2.Register("q2", 100*simtime.Millisecond)
	for r := 0; r < MissStreak; r++ {
		s = sampleAt(r, 150*simtime.Millisecond, 0, false)
		s.CacheByteSeconds = 2000
		trk2.Observe(s)
	}
	if st := trk2.Status(); st.Status != StatusMissingDeadlines || !st.OverCacheBudget {
		t.Fatalf("budget must not mask missed deadlines: %+v", st)
	}

	// Deadline-less queries still get the budget escalation — cost
	// governance is independent of SLO deadlines.
	m3 := NewMonitor(Config{CacheByteSecondBudget: 1000})
	trk3 := m3.Register("q3", 0)
	s = sampleAt(0, 50*simtime.Millisecond, 0, false)
	s.CacheByteSeconds = 5000
	trk3.Observe(s)
	if st := trk3.Status(); st.Status != StatusAtRisk || !st.OverCacheBudget {
		t.Fatalf("deadline-less over budget: %+v", st)
	}

	// Zero budget disables the check entirely.
	m4 := NewMonitor(Config{})
	trk4 := m4.Register("q4", 100*simtime.Millisecond)
	s = sampleAt(0, 50*simtime.Millisecond, 0, false)
	s.CacheByteSeconds = 1e12
	trk4.Observe(s)
	if st := trk4.Status(); st.Status != StatusOK || st.OverCacheBudget {
		t.Fatalf("disabled budget still fired: %+v", st)
	}
}

func TestAnomalyDetectionAndAdaptivityMiss(t *testing.T) {
	o := obs.New()
	m := NewMonitor(Config{})
	m.SetObserver(o)
	trk := m.Register("q1", simtime.Second)

	// Cold start: no forecast, no residual history — never anomalous.
	trk.Observe(sampleAt(0, 100*simtime.Millisecond, 0, false))
	if st := trk.Status(); st.Anomalies != 0 || st.ResidualEWMANS != 0 || st.LastForecastNS != -1 {
		t.Fatalf("cold start: %+v", st)
	}

	// First residual (10ms) seeds the EWMA exactly — the single-sample
	// case — and cannot itself be an anomaly (samples < min).
	trk.Observe(sampleAt(1, 110*simtime.Millisecond, 100*simtime.Millisecond, true))
	st := trk.Status()
	if st.Anomalies != 0 {
		t.Fatalf("anomaly on first residual: %+v", st)
	}
	if st.ResidualEWMANS != int64(10*simtime.Millisecond) {
		t.Fatalf("single-sample EWMA = %d, want 10ms", st.ResidualEWMANS)
	}

	// Second and third residuals (10ms): EWMA stays 10ms; still below
	// min samples.
	for r := 2; r <= 3; r++ {
		trk.Observe(sampleAt(r, 110*simtime.Millisecond, 100*simtime.Millisecond, true))
		if st := trk.Status(); st.Anomalies != 0 || st.ResidualEWMANS != int64(10*simtime.Millisecond) {
			t.Fatalf("residual %d: %+v", r, st)
		}
	}

	// Detector armed (3 samples ≥ min). A 100ms residual > 3·10ms EWMA
	// fires; no re-plan happened, so it is also an adaptivity miss.
	trk.Observe(sampleAt(4, 200*simtime.Millisecond, 100*simtime.Millisecond, true))
	st = trk.Status()
	if st.Anomalies != 1 || st.AdaptivityMisses != 1 {
		t.Fatalf("anomaly not flagged: %+v", st)
	}
	anoms := eventsOf(o, eventlog.HealthAnomaly)
	if len(anoms) != 1 {
		t.Fatalf("anomaly events = %d, want 1", len(anoms))
	}
	ad := anoms[0].Data.(eventlog.HealthAnomalyData)
	if ad.ResidualNS != int64(100*simtime.Millisecond) || ad.EWMANS != int64(10*simtime.Millisecond) || ad.ReplanFired {
		t.Fatalf("anomaly payload = %+v", ad)
	}
	if n := len(eventsOf(o, eventlog.AdaptivityMiss)); n != 1 {
		t.Fatalf("adaptivity-miss events = %d, want 1", n)
	}

	// Another deviation (the EWMA absorbed the first anomaly, so the
	// bar is now 3·37ms), but the re-planner reacted: an anomaly, not
	// an adaptivity miss.
	s := sampleAt(5, 300*simtime.Millisecond, 100*simtime.Millisecond, true)
	s.ReplanFired = true
	trk.Observe(s)
	st = trk.Status()
	if st.Anomalies != 2 || st.AdaptivityMisses != 1 {
		t.Fatalf("replan-covered anomaly: %+v", st)
	}
	if v := o.Exposition().Sum("redoop_health_anomalies_total", obs.L("query", "q1")); v != 2 {
		t.Fatalf("anomaly counter = %v, want 2", v)
	}
	if v := o.Exposition().Sum("redoop_adaptivity_misses_total", obs.L("query", "q1")); v != 1 {
		t.Fatalf("adaptivity-miss counter = %v, want 1", v)
	}
}

func TestZeroDurationRecurrences(t *testing.T) {
	m := NewMonitor(Config{})
	trk := m.Register("q1", simtime.Second)
	// A zero-duration recurrence has full headroom and a zero residual
	// against a zero forecast — never a miss, never an anomaly.
	for r := 0; r < 5; r++ {
		trk.Observe(sampleAt(r, 0, 0, r > 0))
	}
	st := trk.Status()
	if st.Status != StatusOK || st.DeadlineMisses != 0 || st.Anomalies != 0 {
		t.Fatalf("zero-duration run: %+v", st)
	}
	if st.HeadroomNS != int64(simtime.Second) || st.MinHeadroomNS != int64(simtime.Second) {
		t.Fatalf("headroom = %d/%d, want full", st.HeadroomNS, st.MinHeadroomNS)
	}
}

func TestNoDeadlineQueries(t *testing.T) {
	m := NewMonitor(Config{})
	trk := m.Register("count-based", 0)
	// Arbitrary response times: no deadline means no misses and a
	// permanent OK status; anomaly detection still runs.
	trk.Observe(sampleAt(0, 5*simtime.Second, 0, false))
	trk.Observe(sampleAt(1, 9*simtime.Second, simtime.Second, true))
	st := trk.Status()
	if st.Status != StatusOK || st.DeadlineMisses != 0 || st.HeadroomNS != 0 {
		t.Fatalf("no-deadline query: %+v", st)
	}
	if st.ResidualEWMANS != int64(8*simtime.Second) {
		t.Fatalf("residual EWMA = %d, want 8s", st.ResidualEWMANS)
	}
}

func TestWindowLagWatermark(t *testing.T) {
	o := obs.New()
	m := NewMonitor(Config{})
	m.SetObserver(o)
	trk := m.Register("q1", simtime.Second)

	s := sampleAt(0, 10*simtime.Millisecond, 0, false)
	s.NewestPackedUnit = 500
	s.CoveredUnit = 300
	trk.Observe(s)
	if st := trk.Status(); st.WindowLagUnits != 200 {
		t.Fatalf("lag = %d, want 200", st.WindowLagUnits)
	}
	if v := o.Exposition().Sum("redoop_window_lag_units", obs.L("query", "q1")); v != 200 {
		t.Fatalf("lag gauge = %v, want 200", v)
	}

	// Covered beyond packed (sources drained): lag clamps to zero.
	s = sampleAt(1, 10*simtime.Millisecond, 0, false)
	s.NewestPackedUnit = 500
	s.CoveredUnit = 600
	trk.Observe(s)
	if st := trk.Status(); st.WindowLagUnits != 0 {
		t.Fatalf("drained lag = %d, want 0", st.WindowLagUnits)
	}
}

func TestRegisterDuplicateNames(t *testing.T) {
	m := NewMonitor(Config{})
	a := m.Register("q1", simtime.Second)
	b := m.Register("q1", 2*simtime.Second)
	if a.Name() != "q1" || b.Name() != "q1#2" {
		t.Fatalf("names = %q, %q", a.Name(), b.Name())
	}
	a.Observe(sampleAt(0, simtime.Millisecond, 0, false))
	snap := m.Snapshot()
	if len(snap) != 2 || snap[0].Recurrences != 1 || snap[1].Recurrences != 0 {
		t.Fatalf("snapshot = %+v", snap)
	}
	if _, ok := m.Status("q1#2"); !ok {
		t.Fatalf("suffixed query not addressable")
	}
}

func TestNilSafety(t *testing.T) {
	var m *Monitor
	var trk *Tracker
	m.SetObserver(nil)
	if m.Snapshot() != nil {
		t.Fatalf("nil monitor snapshot not nil")
	}
	if m.Register("q", 0) != nil {
		t.Fatalf("nil monitor register not nil")
	}
	trk.Observe(Sample{})
	if trk.Name() != "" || trk.Deadline() != 0 {
		t.Fatalf("nil tracker accessors")
	}

	// A monitor without an observer still tracks state.
	m2 := NewMonitor(Config{})
	trk2 := m2.Register("q", simtime.Second)
	trk2.Observe(sampleAt(0, 2*simtime.Second, 0, false))
	if st := trk2.Status(); st.DeadlineMisses != 1 {
		t.Fatalf("observer-less tracking: %+v", st)
	}
}

func TestSnapshotJSONShape(t *testing.T) {
	m := NewMonitor(Config{})
	trk := m.Register("q1", simtime.Second)
	trk.Observe(sampleAt(0, 100*simtime.Millisecond, 0, false))
	data, err := json.Marshal(m.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{`"query"`, `"status"`, `"headroomNS"`, `"windowLagUnits"`, `"missStreak"`, `"anomalies"`, `"adaptivityMisses"`} {
		if !strings.Contains(string(data), key) {
			t.Fatalf("snapshot JSON missing %s: %s", key, data)
		}
	}
}

func TestWriteText(t *testing.T) {
	m := NewMonitor(Config{})
	trk := m.Register("q1", 100*simtime.Millisecond)
	m.Register("count-q", 0)
	for r := 0; r < MissStreak; r++ {
		trk.Observe(sampleAt(r, 150*simtime.Millisecond, 0, false))
	}
	var sb strings.Builder
	if err := m.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "MISSING_DEADLINES") {
		t.Fatalf("report missing status:\n%s", out)
	}
	if !strings.Contains(out, "count-q") {
		t.Fatalf("report missing deadline-less query:\n%s", out)
	}
}

func TestConcurrentObserve(t *testing.T) {
	o := obs.New()
	m := NewMonitor(Config{})
	m.SetObserver(o)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		trk := m.Register("q", simtime.Second)
		wg.Add(1)
		go func(trk *Tracker) {
			defer wg.Done()
			for r := 0; r < 200; r++ {
				trk.Observe(sampleAt(r, simtime.Duration(r)*simtime.Millisecond, simtime.Millisecond, r > 0))
				if r%10 == 0 {
					_ = m.Snapshot()
				}
			}
		}(trk)
	}
	wg.Wait()
	for _, st := range m.Snapshot() {
		if st.Recurrences != 200 {
			t.Fatalf("query %s saw %d recurrences, want 200", st.Query, st.Recurrences)
		}
	}
}

func TestDeadlineOverride(t *testing.T) {
	cfg := DefaultConfig()
	cfg.DeadlineOverride = 5 * simtime.Millisecond
	m := NewMonitor(cfg)
	tk := m.Register("q", 10*simtime.Minute)
	tk.Observe(Sample{Recurrence: 0, Response: 7 * simtime.Millisecond})
	st := tk.Status()
	if st.DeadlineNS != int64(5*simtime.Millisecond) {
		t.Errorf("deadline = %d, want override %d", st.DeadlineNS, int64(5*simtime.Millisecond))
	}
	if st.DeadlineMisses != 1 {
		t.Errorf("misses = %d, want 1 (7ms > 5ms override)", st.DeadlineMisses)
	}

	// Override also applies to queries with no natural deadline.
	tk2 := m.Register("cb", 0)
	tk2.Observe(Sample{Recurrence: 0, Response: simtime.Millisecond})
	if st2 := tk2.Status(); st2.DeadlineNS != int64(5*simtime.Millisecond) {
		t.Errorf("count-based deadline = %d, want override", st2.DeadlineNS)
	}
}

// TestResidualEWMASingleSample pins down the seeding rule: the first
// residual becomes the EWMA exactly (no smoothing against a zero
// prior), and a single sample never arms the detector.
func TestResidualEWMASingleSample(t *testing.T) {
	m := NewMonitor(Config{})
	trk := m.Register("q", 0)

	// First forecasted recurrence: residual 40ms seeds the EWMA.
	trk.Observe(sampleAt(0, 100*simtime.Millisecond, 60*simtime.Millisecond, true))
	st := trk.Status()
	if st.ResidualEWMANS != int64(40*simtime.Millisecond) {
		t.Fatalf("EWMA after one sample = %d, want seeded 40ms", st.ResidualEWMANS)
	}
	if st.Anomalies != 0 {
		t.Fatalf("single sample armed the detector: %+v", st)
	}

	// Second sample smooths: 0.3·10ms + 0.7·40ms = 31ms.
	trk.Observe(sampleAt(1, 70*simtime.Millisecond, 60*simtime.Millisecond, true))
	if st := trk.Status(); st.ResidualEWMANS != int64(31*simtime.Millisecond) {
		t.Fatalf("EWMA after two samples = %d, want 31ms", st.ResidualEWMANS)
	}
}

// TestFirstRecurrenceColdStart: with no forecast at all, the monitor
// records timings but neither the residual EWMA nor the anomaly
// counter move, and lastForecastNS stays -1.
func TestFirstRecurrenceColdStart(t *testing.T) {
	m := NewMonitor(DefaultConfig())
	trk := m.Register("q", 50*simtime.Millisecond)
	trk.Observe(sampleAt(0, 10*simtime.Millisecond, 0, false))
	st := trk.Status()
	if st.Recurrences != 1 || st.LastResponseNS != int64(10*simtime.Millisecond) {
		t.Fatalf("cold start status: %+v", st)
	}
	if st.LastForecastNS != -1 {
		t.Fatalf("lastForecastNS = %d, want -1 before any forecast", st.LastForecastNS)
	}
	if st.ResidualEWMANS != 0 || st.Anomalies != 0 {
		t.Fatalf("residual state moved without a forecast: %+v", st)
	}
}

// eventsOf returns the recorded events of one type, oldest first.
func eventsOf(o *obs.Observer, typ eventlog.Type) []eventlog.Event {
	var out []eventlog.Event
	for _, e := range o.Decisions() {
		if e.Type == typ {
			out = append(out, e)
		}
	}
	return out
}
