package core_test

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"redoop/internal/core"
	"redoop/internal/health"
	"redoop/internal/obs"
	"redoop/internal/obs/eventlog"
	"redoop/internal/records"
)

// TestExpositionCountsEveryRecurrence runs more recurrences than the
// tracer keeps and checks the metrics exposition still counts the whole
// run, not the retained record: recurrences, map tasks and new panes
// equal the sums over the run's own results, and the health monitor's
// gauges report the last recurrence.
func TestExpositionCountsEveryRecurrence(t *testing.T) {
	q := countQuery("keep", testWin, testSlide, "")
	mr := newRig(t, 2, 9)
	mr.Obs = obs.New()
	mr.DFS.SetObserver(mr.Obs)
	mon := health.NewMonitor(health.DefaultConfig())
	eng := mustEngine(t, core.Config{MR: mr, Query: q, Health: mon})
	gen := func(_, s int) []records.Record { return genWords(40, testSlide, s, 150, 10) }
	windows := 2*obs.KeepRecurrences + 3
	results := feedAndRun(t, eng, q, windows, gen)

	finished := 0
	for _, d := range mr.Obs.Decisions() {
		if d.Type == eventlog.RecurrenceFinish {
			finished++
		}
	}
	if finished != obs.KeepRecurrences {
		t.Fatalf("the record retains %d recurrences, want %d: retention is not exercised", finished, obs.KeepRecurrences)
	}
	var mapTasks, newPanes int
	for _, res := range results {
		mapTasks += res.Stats.MapTasks
		newPanes += res.NewPanes
	}
	x := mr.Obs.Exposition()
	for _, c := range []struct {
		name  string
		match []obs.Label
		want  int
	}{
		{"redoop_recurrences_total", []obs.Label{obs.L("query", "keep")}, windows},
		{"redoop_map_tasks_total", nil, mapTasks},
		{"redoop_panes_total", []obs.Label{obs.L("kind", "new")}, newPanes},
		{"redoop_map_attempts_total", []obs.Label{obs.L("result", "ok")}, mapTasks},
	} {
		if got := x.Sum(c.name, c.match...); got != float64(c.want) {
			t.Errorf("%s%v = %v, want %d", c.name, c.match, got, c.want)
		}
	}
	var buf bytes.Buffer
	if err := x.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if want := fmt.Sprintf("redoop_recurrence_seconds_count{query=\"keep\"} %d\n", windows); !strings.Contains(buf.String(), want) {
		t.Errorf("exposition lacks %q", want)
	}
	st, _ := mon.Status("keep")
	if got := x.Sum("redoop_window_lag_units", obs.L("query", "keep")); got != float64(st.WindowLagUnits) {
		t.Errorf("window lag gauge = %v, want the last recurrence's %d", got, st.WindowLagUnits)
	}
	if x.Sum("redoop_dfs_writes_total") == 0 {
		t.Error("the attached DFS's writes are not in the exposition")
	}
}
