package core_test

import (
	"bytes"
	"strings"
	"testing"

	"redoop/internal/core"
	"redoop/internal/health"
	"redoop/internal/obs"
	"redoop/internal/records"
	"redoop/internal/window"
)

// healthOf returns query's status on mon, failing when the monitor does
// not know the query.
func healthOf(t *testing.T, mon *health.Monitor, query string) health.QueryStatus {
	t.Helper()
	for _, st := range mon.Snapshot() {
		if st.Query == query {
			return st
		}
	}
	t.Fatalf("monitor does not know query %s", query)
	return health.QueryStatus{}
}

// TestEngineHealthTracking: after five recurrences the monitor has the
// query's deadline (its slide), its last response and a Holt forecast
// (which needs two observations), no backlog (fed exactly through each
// close) and an OK status with headroom, as the simulated run finishes
// each window well inside its slide; the snapshot lists the query once
// and the status gauge flows through the attached observer.
func TestEngineHealthTracking(t *testing.T) {
	mon, o := health.NewMonitor(health.DefaultConfig()), obs.New()
	mon.SetObserver(o)
	eng := mustEngine(t, core.Config{MR: newRig(t, 4, 3), Query: countQuery("hq", testWin, testSlide, ""), Health: mon})
	core.Drive(t, eng, new(int), 5, func(_, s int) []records.Record { return genWords(50, testSlide, s, 400, 25) }, nil)
	st := healthOf(t, mon, "hq")
	if st.Recurrences != 5 || st.DeadlineNS != int64(testSlide) || st.LastResponseNS <= 0 || st.LastForecastNS < 0 || st.WindowLagUnits != 0 {
		t.Errorf("status %+v, want 5 recurrences, deadline %d, a response, a forecast and no window lag", st, int64(testSlide))
	}
	if st.Status != health.StatusOK || st.HeadroomNS <= 0 || st.HeadroomNS > st.DeadlineNS {
		t.Errorf("status %s with headroom %d, want %s in (0, %d]", st.Status, st.HeadroomNS, health.StatusOK, st.DeadlineNS)
	}
	if snap := mon.Snapshot(); len(snap) != 1 || snap[0].Query != "hq" {
		t.Fatalf("monitor snapshot = %+v, want one entry for hq", snap)
	}
	if g := o.Exposition().Sum("redoop_health_status", obs.L("query", "hq")); g != 0 {
		t.Errorf("redoop_health_status gauge = %v, want 0 (OK)", g)
	}
}

// TestEngineHealthTumblingWindow: slide == win, so every pane is new,
// none reused, and the deadline is the window.
func TestEngineHealthTumblingWindow(t *testing.T) {
	mon := health.NewMonitor(health.DefaultConfig())
	eng := mustEngine(t, core.Config{MR: newRig(t, 4, 4), Query: countQuery("tumble", testSlide, testSlide, ""), Health: mon})
	rres := core.Drive(t, eng, new(int), 4, func(_, s int) []records.Record { return genWords(60, testSlide, s, 200, 20) }, nil)
	if got := counts(rres, false); got != "1/0 1/0 1/0 1/0" {
		t.Errorf("new/reused panes per window %s, want none reused under tumbling", got)
	}
	if st := healthOf(t, mon, "tumble"); st.Recurrences != 4 || st.DeadlineNS != int64(testSlide) || st.WindowLagUnits != 0 {
		t.Errorf("status %+v, want 4 recurrences, deadline %d and no window lag", st, int64(testSlide))
	}
}

// TestEngineHealthWindowLagBacklog: 9 slides (3 windows) of data are
// ingested before window 0 runs alone, so the newest packed pane
// outruns the covered unit: the lag is 9·slide − win units.
func TestEngineHealthWindowLagBacklog(t *testing.T) {
	q := countQuery("lagq", testWin, testSlide, "")
	mon := health.NewMonitor(health.DefaultConfig())
	eng := mustEngine(t, core.Config{MR: newRig(t, 4, 5), Query: q, Health: mon})
	for s := 0; s < 9; s++ {
		check(t, eng.Ingest(0, genWords(70, testSlide, s, 100, 15)))
	}
	_, err := eng.RunNext()
	check(t, err)
	if st, want := healthOf(t, mon, "lagq"), 9*q.Spec().Slide-q.Spec().Win; st.WindowLagUnits != want {
		t.Errorf("window lag = %d, want %d", st.WindowLagUnits, want)
	}
}

// TestEngineWithoutHealthMonitor: without a Config.Health the engine
// tracks no health: the query runs, and its observer receives no health
// series.
func TestEngineWithoutHealthMonitor(t *testing.T) {
	mr := newRig(t, 2, 6)
	mr.Obs = obs.New()
	eng := mustEngine(t, core.Config{MR: mr, Query: countQuery("solo", testWin, testSlide, "")})
	core.Drive(t, eng, new(int), 2, func(_, s int) []records.Record { return genWords(80, testSlide, s, 150, 10) }, nil)
	var buf bytes.Buffer
	check(t, mr.Obs.Exposition().WritePrometheus(&buf))
	if strings.Contains(buf.String(), "redoop_health_status") {
		t.Fatalf("health series recorded without a monitor:\n%s", buf.String())
	}
}

// TestEngineHealthSharedMonitorAcrossEngines: one monitor watching two
// engines keeps separate trackers, and a name collision gets a
// disambiguating suffix rather than merging.
func TestEngineHealthSharedMonitorAcrossEngines(t *testing.T) {
	mon := health.NewMonitor(health.DefaultConfig())
	gen := func(_, s int) []records.Record { return genWords(90, testSlide, s, 120, 10) }
	for i, n := range []int{2, 3} {
		eng := mustEngine(t, core.Config{MR: newRig(t, 2, int64(7+i)), Query: countQuery("dup", testWin, testSlide, ""), Health: mon})
		core.Drive(t, eng, new(int), n, gen, nil)
	}
	snap := mon.Snapshot()
	byName := map[string]int{}
	for _, st := range snap {
		byName[st.Query] = st.Recurrences
	}
	if len(snap) != 2 || byName["dup"] != 2 || byName["dup#2"] != 3 {
		t.Fatalf("snapshot %+v, want dup with 2 recurrences and dup#2 with 3", snap)
	}
}

// TestEngineHealthSlowRecurrenceEscalates: an induced oversized batch:
// from slide 8 on a slide carries far more data than the steady state,
// so the first recurrence that covers it misses its Holt forecast by far
// more than AnomalyK times the residual EWMA. The spike comes late
// enough that MinResidualSamples forecast residuals precede it, so the
// detector is armed when it arrives.
func TestEngineHealthSlowRecurrenceEscalates(t *testing.T) {
	mon, o := health.NewMonitor(health.DefaultConfig()), obs.New()
	mon.SetObserver(o)
	eng := mustEngine(t, core.Config{MR: newRig(t, 2, 9), Query: countQuery("spiky", testWin, testSlide, ""), Health: mon})
	gen := func(_, s int) []records.Record {
		n := 200
		if s >= 8 {
			n = 40000 // ~200x spike from slide 8 on
		}
		return genWords(int64(31+s), testSlide, s, n, 20)
	}
	fed := 0
	core.Drive(t, eng, &fed, 3, gen, nil)
	if steady := healthOf(t, mon, "spiky"); steady.Status != health.StatusOK {
		t.Fatalf("pre-spike status = %s, want OK", steady.Status)
	}
	fed++ // the same engine past the spike, one slide left out
	core.Drive(t, eng, &fed, 5, gen, nil)
	if st := healthOf(t, mon, "spiky"); st.Anomalies == 0 {
		t.Errorf("no anomalies recorded across a 200x input spike: %+v", st)
	}
	if c := o.Exposition().Sum("redoop_health_anomalies_total", obs.L("query", "spiky")); c == 0 {
		t.Errorf("redoop_health_anomalies_total = 0, want > 0")
	}
}

// TestEngineHealthCountBasedNoDeadline: count-based windows have no
// wall-clock slide, so no deadline and never a miss. Their units are
// record indexes, not timestamps.
func TestEngineHealthCountBasedNoDeadline(t *testing.T) {
	q := countQuery("cb", testWin, testSlide, "")
	q.Sources[0].Spec, q.Combine, q.NumReducers = window.NewCountSpec(30, 10), nil, 1
	mon := health.NewMonitor(health.DefaultConfig())
	eng := mustEngine(t, core.Config{MR: newRig(t, 2, 10), Query: q, Health: mon})
	core.Drive(t, eng, new(int), 2, func(_, s int) []records.Record {
		var out []records.Record
		for i := 10 * s; i < 10*s+10; i++ {
			out = append(out, records.Record{Ts: int64(i), Data: []byte("w" + string(rune('a'+i%5)))})
		}
		return out
	}, nil)
	if st := healthOf(t, mon, "cb"); st.DeadlineNS != 0 || st.DeadlineMisses != 0 || st.Status != health.StatusOK || st.Recurrences != 2 {
		t.Errorf("count-based query: %+v, want no deadline, no misses, OK, 2 recurrences", st)
	}
}
