package core_test

import (
	"bytes"
	"strings"
	"testing"

	"redoop/internal/core"
	"redoop/internal/health"
	"redoop/internal/mapreduce"
	"redoop/internal/obs"
	"redoop/internal/records"
	"redoop/internal/window"
)

// feedAndRun ingests slides through each window close and executes
// `windows` recurrences on a single engine (no baseline counterpart —
// health tests care about the monitor, not output equivalence).
func feedAndRun(t *testing.T, eng *core.Engine, q *core.Query, windows int,
	gen func(src, slideIdx int) []records.Record) []*core.RecurrenceResult {
	t.Helper()
	spec := q.Spec()
	frames, err := q.Frames()
	if err != nil {
		t.Fatal(err)
	}
	fed := 0
	var out []*core.RecurrenceResult
	for r := 0; r < windows; r++ {
		for close := frames[0].WindowClose(r); int64(fed)*spec.Slide < close; fed++ {
			for src := range q.Sources {
				if err := eng.Ingest(src, gen(src, fed)); err != nil {
					t.Fatal(err)
				}
			}
		}
		rr, err := eng.RunNext()
		if err != nil {
			t.Fatalf("recurrence %d: %v", r, err)
		}
		out = append(out, rr)
	}
	return out
}

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

func TestEngineHealthTracking(t *testing.T) {
	mon := health.NewMonitor(health.DefaultConfig())
	o := obs.New()
	mon.SetObserver(o)
	q := countQuery("hq", testWin, testSlide, "")
	eng := mustEngine(t, core.Config{MR: newRig(t, 4, 3), Query: q, Health: mon})
	gen := func(_, s int) []records.Record { return genWords(50, testSlide, s, 400, 25) }
	feedAndRun(t, eng, q, 5, gen)

	st := healthOf(t, mon, "hq")
	if st.Query != "hq" {
		t.Fatalf("status query = %q, want hq", st.Query)
	}
	if st.Recurrences != 5 {
		t.Errorf("recurrences = %d, want 5", st.Recurrences)
	}
	if st.DeadlineNS != int64(testSlide) {
		t.Errorf("deadline = %d, want slide %d", st.DeadlineNS, int64(testSlide))
	}
	if st.LastResponseNS <= 0 {
		t.Errorf("last response = %d, want > 0", st.LastResponseNS)
	}
	// The Holt profiler needs two observations before it forecasts;
	// by recurrence 5 the engine must have handed the monitor one.
	if st.LastForecastNS < 0 {
		t.Errorf("no forecast recorded after 5 recurrences (lastForecastNS = %d)", st.LastForecastNS)
	}
	// Feeding exactly through each window close leaves no backlog.
	if st.WindowLagUnits != 0 {
		t.Errorf("window lag = %d units, want 0 (fed exactly through close)", st.WindowLagUnits)
	}
	// The simulated run finishes each window well inside its slide.
	if st.Status != health.StatusOK {
		t.Errorf("status = %s, want %s", st.Status, health.StatusOK)
	}
	if st.HeadroomNS <= 0 || st.HeadroomNS > st.DeadlineNS {
		t.Errorf("headroom = %d, want in (0, %d]", st.HeadroomNS, st.DeadlineNS)
	}

	// The snapshot lists the query once.
	snap := mon.Snapshot()
	if len(snap) != 1 || snap[0].Query != "hq" {
		t.Fatalf("monitor snapshot = %+v, want one entry for hq", snap)
	}

	// Metrics flowed through the attached observer.
	if g := o.Exposition().Sum("redoop_health_status", obs.L("query", "hq")); g != 0 {
		t.Errorf("redoop_health_status gauge = %v, want 0 (OK)", g)
	}
}

func TestEngineHealthTumblingWindow(t *testing.T) {
	// slide == win: every pane is new, none reused, deadline == win.
	q := countQuery("tumble", testSlide, testSlide, "")
	mon := health.NewMonitor(health.DefaultConfig())
	eng := mustEngine(t, core.Config{MR: newRig(t, 4, 4), Query: q, Health: mon})
	gen := func(_, s int) []records.Record { return genWords(60, testSlide, s, 200, 20) }
	rres := feedAndRun(t, eng, q, 4, gen)
	for i, rr := range rres {
		if rr.ReusedPanes != 0 {
			t.Errorf("window %d: reused %d panes, want 0 under tumbling", i, rr.ReusedPanes)
		}
	}
	st := healthOf(t, mon, "tumble")
	if st.Recurrences != 4 {
		t.Errorf("recurrences = %d, want 4", st.Recurrences)
	}
	if st.DeadlineNS != int64(testSlide) {
		t.Errorf("deadline = %d, want %d", st.DeadlineNS, int64(testSlide))
	}
	if st.WindowLagUnits != 0 {
		t.Errorf("window lag = %d, want 0", st.WindowLagUnits)
	}
}

func TestEngineHealthWindowLagBacklog(t *testing.T) {
	// Ingest far beyond the first window before running it: the newest
	// packed pane outruns the covered unit, so the watermark distance
	// is positive after recurrence 0.
	q := countQuery("lagq", testWin, testSlide, "")
	mon := health.NewMonitor(health.DefaultConfig())
	eng := mustEngine(t, core.Config{MR: newRig(t, 4, 5), Query: q, Health: mon})
	spec := q.Spec()
	// 9 slides = 3 windows of data, but only window 0 runs.
	for s := 0; s < 9; s++ {
		if err := eng.Ingest(0, genWords(70, testSlide, s, 100, 15)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := eng.RunNext(); err != nil {
		t.Fatal(err)
	}
	st := healthOf(t, mon, "lagq")
	// Window 0 covers units up to win; 9 slides of data reach 9·slide.
	wantLag := 9*spec.Slide - spec.Win
	if st.WindowLagUnits != wantLag {
		t.Errorf("window lag = %d, want %d", st.WindowLagUnits, wantLag)
	}
}

func TestEngineWithoutHealthMonitor(t *testing.T) {
	// Without a Config.Health the engine tracks no health: the query
	// runs, and its observer receives no health series.
	q := countQuery("solo", testWin, testSlide, "")
	mr := newRig(t, 2, 6)
	mr.Obs = obs.New()
	eng := mustEngine(t, core.Config{MR: mr, Query: q})
	gen := func(_, s int) []records.Record { return genWords(80, testSlide, s, 150, 10) }
	feedAndRun(t, eng, q, 2, gen)
	var buf bytes.Buffer
	if err := mr.Obs.Exposition().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(buf.String(), "redoop_health_status") {
		t.Fatalf("health series recorded without a monitor:\n%s", buf.String())
	}
}

func TestEngineHealthSharedMonitorAcrossEngines(t *testing.T) {
	// One monitor watching two engines keeps separate trackers, and a
	// name collision gets a disambiguating suffix rather than merging.
	mon := health.NewMonitor(health.DefaultConfig())
	qa := countQuery("dup", testWin, testSlide, "")
	qb := countQuery("dup", testWin, testSlide, "")
	ea := mustEngine(t, core.Config{MR: newRig(t, 2, 7), Query: qa, Health: mon})
	eb := mustEngine(t, core.Config{MR: newRig(t, 2, 8), Query: qb, Health: mon})
	gen := func(_, s int) []records.Record { return genWords(90, testSlide, s, 120, 10) }
	feedAndRun(t, ea, qa, 2, gen)
	feedAndRun(t, eb, qb, 3, gen)

	snap := mon.Snapshot()
	if len(snap) != 2 {
		t.Fatalf("snapshot has %d entries, want 2: %+v", len(snap), snap)
	}
	byName := map[string]health.QueryStatus{}
	for _, st := range snap {
		byName[st.Query] = st
	}
	if st, ok := byName["dup"]; !ok || st.Recurrences != 2 {
		t.Errorf("dup: %+v, want 2 recurrences", byName["dup"])
	}
	if st, ok := byName["dup#2"]; !ok || st.Recurrences != 3 {
		t.Errorf("dup#2: %+v, want 3 recurrences", byName["dup#2"])
	}
}

func TestEngineHealthSlowRecurrenceEscalates(t *testing.T) {
	// An induced oversized batch: from slide 8 on a slide carries far
	// more data than the steady state, so the first recurrence that
	// covers it misses its Holt forecast by far more than AnomalyK
	// times the residual EWMA. The spike comes late enough that
	// MinResidualSamples forecast residuals precede it, so the
	// detector is armed when it arrives.
	mon := health.NewMonitor(health.DefaultConfig())
	o := obs.New()
	mon.SetObserver(o)
	q := countQuery("spiky", testWin, testSlide, "")
	eng := mustEngine(t, core.Config{MR: newRig(t, 2, 9), Query: q, Health: mon})
	gen := func(_, s int) []records.Record {
		n := 200
		if s >= 8 {
			n = 40000 // ~200x spike from slide 8 on
		}
		return genWords(int64(31+s), testSlide, s, n, 20)
	}
	feedAndRun(t, eng, q, 3, gen)
	steady := healthOf(t, mon, "spiky")
	if steady.Status != health.StatusOK {
		t.Fatalf("pre-spike status = %s, want OK", steady.Status)
	}

	// Continue the same engine past the spike.
	spec := q.Spec()
	frames, err := q.Frames()
	if err != nil {
		t.Fatal(err)
	}
	fed := int(frames[0].WindowClose(2)/spec.Slide) + 1
	for r := 3; r < 8; r++ {
		for close := frames[0].WindowClose(r); int64(fed)*spec.Slide < close; fed++ {
			if err := eng.Ingest(0, gen(0, fed)); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := eng.RunNext(); err != nil {
			t.Fatalf("recurrence %d: %v", r, err)
		}
	}

	st := healthOf(t, mon, "spiky")
	if st.Anomalies == 0 {
		t.Errorf("no anomalies recorded across a 200x input spike: %+v", st)
	}
	if c := o.Exposition().Sum("redoop_health_anomalies_total", obs.L("query", "spiky")); c == 0 {
		t.Errorf("redoop_health_anomalies_total = 0, want > 0")
	}
}

func TestEngineHealthCountBasedNoDeadline(t *testing.T) {
	// Count-based windows have no wall-clock slide, so no deadline and
	// never a miss.
	q := &core.Query{
		Name: "cb",
		Sources: []core.Source{{
			Name: "S1",
			Spec: window.NewCountSpec(30, 10),
		}},
		Maps: []mapreduce.MapFunc{func(_ int64, payload []byte, emit mapreduce.Emitter) {
			emit.Emit(append([]byte(nil), payload...), []byte("1"))
		}},
		Reduce:      sumReduce,
		Merge:       sumReduce,
		NumReducers: 1,
	}
	mon := health.NewMonitor(health.DefaultConfig())
	eng := mustEngine(t, core.Config{MR: newRig(t, 2, 10), Query: q, Health: mon})
	// Count-based units are record indexes, not timestamps.
	rec := func(i int) records.Record {
		return records.Record{Ts: int64(i), Data: []byte("w" + string(rune('a'+i%5)))}
	}
	fed := 0
	for r := 0; r < 2; r++ {
		for ; fed < 30+10*r; fed++ {
			if err := eng.Ingest(0, []records.Record{rec(fed)}); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := eng.RunNext(); err != nil {
			t.Fatalf("recurrence %d: %v", r, err)
		}
	}
	st := healthOf(t, mon, "cb")
	if st.DeadlineNS != 0 {
		t.Errorf("count-based deadline = %d, want 0", st.DeadlineNS)
	}
	if st.DeadlineMisses != 0 || st.Status != health.StatusOK {
		t.Errorf("count-based query missed deadlines: %+v", st)
	}
	if st.Recurrences != 2 {
		t.Errorf("recurrences = %d, want 2", st.Recurrences)
	}
}
