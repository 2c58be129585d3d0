package explain_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"strconv"
	"strings"
	"testing"
	"time"

	"redoop/internal/cluster"
	"redoop/internal/core"
	"redoop/internal/dfs"
	"redoop/internal/explain"
	"redoop/internal/iocost"
	"redoop/internal/mapreduce"
	"redoop/internal/obs"
	"redoop/internal/obs/eventlog"
	"redoop/internal/records"
	"redoop/internal/simtime"
	"redoop/internal/window"
)

const (
	testWin   = 30 * simtime.Second
	testSlide = 10 * simtime.Second
)

func sumReduce(key []byte, values [][]byte, emit mapreduce.Emitter) {
	total := 0
	for _, v := range values {
		n, _ := strconv.Atoi(string(v))
		total += n
	}
	emit.Emit(key, []byte(strconv.Itoa(total)))
}

// runObserved drives a word-count query for n recurrences under a
// fresh observer and returns the observer and engine.
func runObserved(t *testing.T, n int, adaptive bool) (*obs.Observer, *core.Engine) {
	t.Helper()
	ob := obs.New()
	cost := iocost.Default()
	cost.TaskOverhead = 200 * time.Microsecond
	cl, err := cluster.New(cluster.Config{Workers: 4, MapSlots: 2, ReduceSlots: 2})
	if err != nil {
		t.Fatal(err)
	}
	d, err := dfs.New(dfs.Config{BlockSize: 32 << 10, Replication: 2, Nodes: []int{0, 1, 2, 3}, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	mr, err := mapreduce.New(cl, d, cost)
	if err != nil {
		t.Fatal(err)
	}
	mr.Obs = ob
	q := &core.Query{
		Name: "q1",
		Sources: []core.Source{{
			Name: "S1",
			Spec: window.NewTimeSpec(testWin, testSlide),
		}},
		Maps: []mapreduce.MapFunc{func(_ int64, payload []byte, emit mapreduce.Emitter) {
			emit.Emit(append([]byte(nil), payload...), []byte("1"))
		}},
		Reduce:      sumReduce,
		Combine:     sumReduce,
		Merge:       sumReduce,
		NumReducers: 2,
	}
	eng, err := core.NewEngine(core.Config{MR: mr, Query: q, Adaptive: adaptive})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	slidesPerWin := int(testWin / testSlide)
	fed := 0
	for r := 0; r < n; r++ {
		for ; fed < slidesPerWin+r; fed++ {
			base := int64(fed) * int64(testSlide)
			recs := make([]records.Record, 250)
			for i := range recs {
				recs[i] = records.Record{
					Ts:   base + rng.Int63n(int64(testSlide)),
					Data: []byte(fmt.Sprintf("w%02d", rng.Intn(10))),
				}
			}
			if err := eng.Ingest(0, recs); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := eng.RunNext(); err != nil {
			t.Fatal(err)
		}
	}
	return ob, eng
}

// TestPlacementAuditReproducesSchedulerChoice is the acceptance check:
// for every recorded Equation 4 decision of a real run, re-evaluating
// argmin_i(Load_i + C_task,i) over the recorded per-candidate terms
// must reproduce the node the scheduler actually chose.
func TestPlacementAuditReproducesSchedulerChoice(t *testing.T) {
	ob, _ := runObserved(t, 5, false)
	rep := explain.Build(ob.Decisions(), "q1")
	total := 0
	for _, r := range rep.Recurrences {
		for _, p := range r.Placements {
			total++
			if len(p.Candidates) == 0 {
				t.Fatalf("recurrence %d: placement without candidates", r.Index)
			}
			for _, c := range p.Candidates {
				if c.TotalNS != c.LoadNS+c.CacheCostNS {
					t.Errorf("candidate node %d: total %d != load %d + cache %d",
						c.Node, c.TotalNS, c.LoadNS, c.CacheCostNS)
				}
			}
			if !p.Consistent() {
				t.Errorf("recurrence %d: scheduler chose node %d but recorded costs argmin to node %d (candidates %+v)",
					r.Index, p.Chosen, p.Argmin(), p.Candidates)
			}
		}
	}
	if total == 0 {
		t.Fatal("no placement decisions recorded over 5 recurrences")
	}
}

func TestReportFromRealRun(t *testing.T) {
	ob, _ := runObserved(t, 4, false)
	rep := explain.Build(ob.Decisions(), "q1")
	if len(rep.Recurrences) != 4 {
		t.Fatalf("recurrences = %d, want 4", len(rep.Recurrences))
	}
	for i, r := range rep.Recurrences {
		if !r.Finished {
			t.Errorf("recurrence %d not finished", i)
		}
		if r.Index != i {
			t.Errorf("recurrence order: got %d at position %d", r.Index, i)
		}
	}
	// Overlapping windows must show cache reuse from recurrence 1 on,
	// and the hits must attribute back to parseable panes.
	r1 := rep.Recurrences[1]
	if len(r1.Hits) == 0 {
		t.Fatal("no cache hits in recurrence 1 despite window overlap")
	}
	for _, h := range r1.Hits {
		if len(h.Panes) == 0 {
			t.Errorf("hit %s has no pane attribution", h.PID)
		}
	}
	// The forecast pairs up from recurrence 3 (profiler warm from two
	// observations starting at r=1).
	if last := rep.Recurrences[3]; last.ForecastNS < 0 {
		t.Error("recurrence 3 still has no forecast")
	}
	var buf bytes.Buffer
	if err := rep.Write(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"recurrence 0", "recurrence 3",
		"cache lookups:", "Equation 4", "argmin ok",
		"forecast vs. actual",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("rendered report missing %q", want)
		}
	}
	if strings.Contains(out, "MISMATCH") {
		t.Error("rendered report flags an argmin mismatch on a clean run")
	}
}

func TestPanesOf(t *testing.T) {
	cases := []struct {
		pid  string
		want []int64
	}{
		{"q1/S1/u10000000000/P3/r0", []int64{3}},
		{"query/q1/P7/r1", []int64{7}},
		{"query/q2/P3_5/r0", []int64{3, 5}},
		{"query/q2/Px/r0", nil},
		{"no-panes-here", nil},
		{"", nil},
	}
	for _, c := range cases {
		got := explain.PanesOf(c.pid)
		if fmt.Sprint(got) != fmt.Sprint(c.want) {
			t.Errorf("PanesOf(%q) = %v, want %v", c.pid, got, c.want)
		}
	}
}

func TestBuildSyntheticStream(t *testing.T) {
	events := []eventlog.Event{
		{Type: eventlog.RecurrenceStart, Query: "q", Data: eventlog.RecurrenceStartData{Recurrence: 0, WindowLo: 0, WindowHi: 2}},
		{Type: eventlog.Placement, Query: "q", Data: eventlog.PlacementData{
			Recurrence: 0, Chosen: 1, Outcome: "cache-local", Caches: 1,
			Candidates: []eventlog.PlacementCandidate{
				{Node: 0, LoadNS: 5, CacheCostNS: 5, TotalNS: 10},
				{Node: 1, LoadNS: 1, CacheCostNS: 2, TotalNS: 3},
			},
		}},
		{Type: eventlog.CacheMiss, Query: "q", Data: eventlog.CacheData{PID: "query/q/P0/r0", Node: -1, Recurrence: 0}},
		{Type: eventlog.PaneRetire, Query: "q", Data: eventlog.PaneRetireData{Source: 0, Panes: []int64{0, 1}}},
		{Type: eventlog.RecurrenceFinish, Query: "q", Data: eventlog.RecurrenceFinishData{Recurrence: 0, ResponseNS: 100, ForecastNS: -1, SubPanes: 1}},
		{Type: eventlog.Fault, Query: "q", Data: eventlog.FaultData{Kind: eventlog.FaultNodeCrash, Node: 2}},
		{Type: eventlog.CachePurge, Data: eventlog.CacheData{PID: "x", Recurrence: -1}},
		// Chaos faults belong to the whole run: kept under any query
		// filter, and only node crashes are node failures.
		{Type: eventlog.Fault, Data: eventlog.FaultData{Kind: "cache-drop", Node: 1}},
		{Type: eventlog.Fault, Data: eventlog.FaultData{Kind: eventlog.FaultNodeCrash, Node: 3}},
		// Another query's event must be filtered out.
		{Type: eventlog.CacheHit, Query: "other", Data: eventlog.CacheData{PID: "query/other/P1/r0", Recurrence: 0}},
	}
	rep := explain.Build(events, "q")
	if len(rep.Recurrences) != 1 {
		t.Fatalf("recurrences = %d, want 1", len(rep.Recurrences))
	}
	r := rep.Recurrences[0]
	if !r.Finished || r.WindowHi != 2 || r.ResponseNS != 100 {
		t.Errorf("recurrence = %+v", r)
	}
	if len(r.Placements) != 1 || !r.Placements[0].Consistent() {
		t.Errorf("placements = %+v", r.Placements)
	}
	if len(r.Misses) != 1 || len(r.Hits) != 0 {
		t.Errorf("misses/hits = %d/%d, want 1/0", len(r.Misses), len(r.Hits))
	}
	if got := r.RetiredPanes[0]; fmt.Sprint(got) != "[0 1]" {
		t.Errorf("retired = %v", got)
	}
	if fmt.Sprint(rep.NodeFailures) != "[2 3]" {
		t.Errorf("node failures = %v", rep.NodeFailures)
	}
	if rep.Purges != 1 {
		t.Errorf("purges = %d", rep.Purges)
	}
}

func TestArgminTieBreaksLowestNode(t *testing.T) {
	p := explain.Placement{
		Chosen: 1,
		Candidates: []eventlog.PlacementCandidate{
			{Node: 1, TotalNS: 5},
			{Node: 3, TotalNS: 5},
		},
	}
	if p.Argmin() != 1 || !p.Consistent() {
		t.Errorf("argmin = %d, want tie broken to node 1", p.Argmin())
	}
}

func TestAdaptiveRunRecordsReplans(t *testing.T) {
	// A heavier adaptive run may or may not re-plan depending on
	// timing; the report must at minimum stay coherent and mark
	// proactive recurrences consistently with the engine.
	ob, eng := runObserved(t, 6, true)
	rep := explain.Build(ob.Decisions(), "q1")
	if len(rep.Recurrences) != 6 {
		t.Fatalf("recurrences = %d", len(rep.Recurrences))
	}
	last := rep.Recurrences[5]
	if last.Finished && eng.Proactive() {
		// Engine ended proactive: some recurrence must carry a re-plan.
		found := false
		for _, r := range rep.Recurrences {
			if len(r.Replans) > 0 {
				found = true
			}
		}
		if !found {
			t.Error("engine is proactive but no replan event was recorded")
		}
	}
}

// TestBuildHealthMarkers verifies health events land on their
// recurrence and surface as forecast-table markers.
func TestBuildHealthMarkers(t *testing.T) {
	events := []eventlog.Event{
		{Type: eventlog.RecurrenceStart, Query: "q", Data: eventlog.RecurrenceStartData{Recurrence: 0}},
		{Type: eventlog.RecurrenceFinish, Query: "q", Data: eventlog.RecurrenceFinishData{Recurrence: 0, ResponseNS: 500, ForecastNS: 100, SubPanes: 1}},
		{Type: eventlog.HealthAnomaly, Query: "q", Data: eventlog.HealthAnomalyData{
			Recurrence: 0, ForecastNS: 100, ActualNS: 500, ResidualNS: 400, EWMANS: 50, K: 3}},
		{Type: eventlog.AdaptivityMiss, Query: "q", Data: eventlog.AdaptivityMissData{
			Recurrence: 0, ForecastNS: 100, ActualNS: 500, ResidualNS: 400}},
		{Type: eventlog.HealthStatus, Query: "q", Data: eventlog.HealthStatusData{
			Recurrence: 0, From: "OK", To: "AT_RISK", HeadroomNS: -100}},
	}
	rep := explain.Build(events, "q")
	if len(rep.Recurrences) != 1 {
		t.Fatalf("recurrences = %d, want 1", len(rep.Recurrences))
	}
	r := rep.Recurrences[0]
	if !r.Anomaly || !r.AdaptivityMiss || r.HealthTo != "AT_RISK" {
		t.Errorf("health markers = anomaly=%v adaptMiss=%v to=%q", r.Anomaly, r.AdaptivityMiss, r.HealthTo)
	}
	var buf bytes.Buffer
	if err := rep.Write(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"anomaly", "adapt-miss", "status->AT_RISK"} {
		if !strings.Contains(out, want) {
			t.Errorf("report lacks marker %q:\n%s", want, out)
		}
	}
}

// TestWriteRetiredInSourceOrder: a recurrence's retired panes print in
// ascending source order, whatever order the sources retired in. The
// report is rendered repeatedly because a map ranged in Go's random
// order matches the sorted one by chance one time in six.
func TestWriteRetiredInSourceOrder(t *testing.T) {
	events := []eventlog.Event{
		{Type: eventlog.RecurrenceStart, Query: "q", Data: eventlog.RecurrenceStartData{Recurrence: 0}},
		{Type: eventlog.PaneRetire, Query: "q", Data: eventlog.PaneRetireData{Source: 2, Panes: []int64{4}}},
		{Type: eventlog.PaneRetire, Query: "q", Data: eventlog.PaneRetireData{Source: 0, Panes: []int64{0, 1}}},
		{Type: eventlog.PaneRetire, Query: "q", Data: eventlog.PaneRetireData{Source: 1, Panes: []int64{2}}},
	}
	want := "  retired: source 0 panes [0 1]\n  retired: source 1 panes [2]\n  retired: source 2 panes [4]\n"
	rep := explain.Build(events, "q")
	for i := 0; i < 20; i++ {
		var buf bytes.Buffer
		if err := rep.Write(&buf); err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(buf.String(), want) {
			t.Fatalf("retired lines out of source order:\n%s", buf.String())
		}
	}
}
