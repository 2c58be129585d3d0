package core

import (
	"testing"
	"time"

	"redoop/internal/simtime"
	"redoop/internal/window"
)

func TestNewAnalyzerValidation(t *testing.T) {
	if _, err := NewAnalyzer(0); err == nil {
		t.Error("zero block size should be rejected")
	}
	if _, err := NewAnalyzer(-5); err == nil {
		t.Error("negative block size should be rejected")
	}
}

// Paper §3.1's worked example: win = 60 min, slide = 20 min ⇒ pane =
// 20 min; with News arriving at 16 MB/min and 64 MB blocks, one pane is
// 320 MB ≥ 64 MB, the oversize case: one file per pane.
func TestPlanPaperOversizeExample(t *testing.T) {
	a, err := NewAnalyzer(64 << 20)
	if err != nil {
		t.Fatal(err)
	}
	spec := window.NewTimeSpec(60*time.Minute, 20*time.Minute)
	ratePerNs := 16.0 * (1 << 20) / float64(time.Minute) // 16 MB/min in bytes/ns
	plan, err := a.Plan(spec, ratePerNs)
	if err != nil {
		t.Fatal(err)
	}
	if plan.PaneUnit != int64(20*time.Minute) {
		t.Errorf("pane unit = %v, want 20m", time.Duration(plan.PaneUnit))
	}
	if plan.PanesPerFile != 1 || plan.FilesPerPane != 1 {
		t.Errorf("oversize case should be (pane,1,1), got %s", plan)
	}
	wantBytes := int64(320 << 20)
	if diff := plan.ExpectedFileBytes - wantBytes; diff > 1<<20 || diff < -(1<<20) {
		t.Errorf("expected file bytes ≈ 320MB, got %d", plan.ExpectedFileBytes)
	}
}

// Undersized case: a slow source packs multiple panes per file,
// panenum = floor(blocksize/filesize) (Algorithm 1, lines 6-7).
func TestPlanUndersizedCase(t *testing.T) {
	a, _ := NewAnalyzer(64 << 20)
	spec := window.NewTimeSpec(60*time.Minute, 20*time.Minute)
	ratePerNs := 0.5 * (1 << 20) / float64(time.Minute) // 0.5 MB/min → 10 MB/pane
	plan, err := a.Plan(spec, ratePerNs)
	if err != nil {
		t.Fatal(err)
	}
	if plan.PanesPerFile < 6 || plan.PanesPerFile > 7 {
		t.Errorf("panes per file = %d, want floor(64/10) ≈ 6", plan.PanesPerFile)
	}
}

func TestPlanRejectsNegativeRate(t *testing.T) {
	a, _ := NewAnalyzer(64)
	if _, err := a.Plan(window.NewCountSpec(30, 20), -1); err == nil {
		t.Error("negative rate should be rejected")
	}
}

func TestPlanValidate(t *testing.T) {
	bad := []PartitionPlan{
		{PaneUnit: 0, FilesPerPane: 1, PanesPerFile: 1, SubPanes: 1},
		{PaneUnit: 10, FilesPerPane: 2, PanesPerFile: 1, SubPanes: 1},
		{PaneUnit: 10, FilesPerPane: 1, PanesPerFile: 0, SubPanes: 1},
		{PaneUnit: 10, FilesPerPane: 1, PanesPerFile: 1, SubPanes: 0},
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("bad plan %d accepted: %s", i, p)
		}
	}
}

func TestReplanSubdividesOnForecastOverrun(t *testing.T) {
	a, _ := NewAnalyzer(64 << 20)
	plan := PartitionPlan{PaneUnit: 100, FilesPerPane: 1, PanesPerFile: 1, SubPanes: 1}
	// Forecast 2.5× the deadline ⇒ subdivide into ~3 sub-panes and go
	// proactive.
	got, proactive := a.Replan(plan, 25*simtime.Second, 10*simtime.Second)
	if !proactive {
		t.Error("overrun forecast should switch to proactive mode")
	}
	if got.SubPanes != 3 {
		t.Errorf("SubPanes = %d, want 3 (ceil 2.5)", got.SubPanes)
	}
}

func TestReplanCapsSubdivision(t *testing.T) {
	a, _ := NewAnalyzer(64 << 20)
	a.MaxSubPanes = 4
	plan := PartitionPlan{PaneUnit: 100, FilesPerPane: 1, PanesPerFile: 1, SubPanes: 1}
	got, _ := a.Replan(plan, 100*simtime.Second, 1*simtime.Second)
	if got.SubPanes != 4 {
		t.Errorf("SubPanes = %d, want cap 4", got.SubPanes)
	}
}

func TestReplanRevertsWithHysteresis(t *testing.T) {
	a, _ := NewAnalyzer(64 << 20)
	plan := PartitionPlan{PaneUnit: 100, FilesPerPane: 1, PanesPerFile: 1, SubPanes: 4}
	// Forecast at 70% of deadline: inside the hysteresis band, keep
	// sub-panes and stay proactive.
	got, proactive := a.Replan(plan, 7*simtime.Second, 10*simtime.Second)
	if got.SubPanes != 4 || !proactive {
		t.Errorf("forecast in hysteresis band should keep plan, got %s proactive=%v", got, proactive)
	}
	// Forecast at 30%: revert to whole panes.
	got, proactive = a.Replan(plan, 3*simtime.Second, 10*simtime.Second)
	if got.SubPanes != 1 || proactive {
		t.Errorf("low forecast should revert, got %s proactive=%v", got, proactive)
	}
}

func TestProfilerForecastAndHistory(t *testing.T) {
	p, err := NewProfiler(DefaultAlpha, DefaultBeta)
	if err != nil {
		t.Fatal(err)
	}
	if p.Ready() {
		t.Error("fresh profiler should not be ready")
	}
	for i := 0; i < 5; i++ {
		p.Observe(i, simtime.Duration(10+i)*simtime.Second, int64(1000*(i+1)))
	}
	if !p.Ready() {
		t.Error("profiler should be ready after 5 observations")
	}
	f := p.Forecast(1)
	// The series grows 1s per recurrence; the forecast should land
	// near 15s.
	if f < 14*simtime.Second || f > 16*simtime.Second {
		t.Errorf("forecast = %v, want ≈15s", f)
	}
	h := p.History()
	if len(h) != 5 || h[0].Recurrence != 0 || h[4].InputBytes != 5000 {
		t.Errorf("history wrong: %+v", h)
	}
	p.Reset()
	if p.Ready() || len(p.History()) != 0 {
		t.Error("Reset should clear the profiler")
	}
}

func TestProfilerHistoryIsBounded(t *testing.T) {
	p, _ := NewProfiler(DefaultAlpha, DefaultBeta)
	for i := 0; i < historyLen+5; i++ {
		p.Observe(i, simtime.Second, int64(i))
	}
	h := p.History()
	if len(h) != historyLen {
		t.Fatalf("history holds %d observations, want %d", len(h), historyLen)
	}
	for i, o := range h {
		if o.Recurrence != i+5 {
			t.Fatalf("history[%d] is recurrence %d, want %d (newest kept, oldest first)", i, o.Recurrence, i+5)
		}
	}
}

func TestNewProfilerValidation(t *testing.T) {
	if _, err := NewProfiler(0, 0.3); err == nil {
		t.Error("invalid alpha should be rejected")
	}
}

// PlanMulti: the shared pane unit across queries is the GCD of all
// window constraints (§3.1's multi-query analyzer).
func TestPlanMultiSharedPane(t *testing.T) {
	a, _ := NewAnalyzer(64 << 20)
	specs := []window.Spec{
		window.NewCountSpec(60, 20), // pane 20
		window.NewCountSpec(30, 15), // pane 15
	}
	plan, err := a.PlanMulti(specs, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if plan.PaneUnit != 5 { // GCD(20, 15)
		t.Errorf("shared pane = %d, want 5", plan.PaneUnit)
	}
	// A single query degenerates to Plan.
	single, err := a.PlanMulti(specs[:1], 1000)
	if err != nil {
		t.Fatal(err)
	}
	if single.PaneUnit != 20 {
		t.Errorf("single-query pane = %d, want 20", single.PaneUnit)
	}
}

func TestPlanMultiValidation(t *testing.T) {
	a, _ := NewAnalyzer(64 << 20)
	if _, err := a.PlanMulti(nil, 100); err == nil {
		t.Error("empty query list should fail")
	}
	if _, err := a.PlanMulti([]window.Spec{window.NewCountSpec(30, 20)}, -1); err == nil {
		t.Error("negative rate should fail")
	}
	mixed := []window.Spec{
		window.NewCountSpec(30, 20),
		window.NewTimeSpec(time.Hour, time.Minute),
	}
	if _, err := a.PlanMulti(mixed, 100); err == nil {
		t.Error("mixed window kinds should fail")
	}
	bad := []window.Spec{{Kind: window.CountBased, Win: 0, Slide: 1}}
	if _, err := a.PlanMulti(bad, 100); err == nil {
		t.Error("invalid spec should fail")
	}
}

func TestPlanMultiFilePacking(t *testing.T) {
	a, _ := NewAnalyzer(1000)
	specs := []window.Spec{window.NewCountSpec(40, 10)} // pane 10
	// 10 units × 20 B/unit = 200 B/pane < 1000 B block → 5 panes/file.
	plan, err := a.PlanMulti(specs, 20)
	if err != nil {
		t.Fatal(err)
	}
	if plan.PanesPerFile != 5 {
		t.Errorf("panes per file = %d, want 5", plan.PanesPerFile)
	}
}

// TestPlanMultiTable audits the §3.1 shared-pane path across
// tumbling/overlapping mixes: the shared pane must divide every
// query's window AND slide (one physical partitioning serves all
// without re-splitting) and must be maximal — it equals the GCD over
// all window constraints, not something finer.
func TestPlanMultiTable(t *testing.T) {
	a, _ := NewAnalyzer(64 << 20)
	cases := []struct {
		name  string
		specs []window.Spec
		pane  int64
	}{
		{"identical overlapping", []window.Spec{
			window.NewCountSpec(60, 15), window.NewCountSpec(60, 15)}, 15},
		{"tumbling pair", []window.Spec{
			window.NewCountSpec(30, 30), window.NewCountSpec(45, 45)}, 15},
		{"tumbling x overlapping", []window.Spec{
			window.NewCountSpec(60, 15), window.NewCountSpec(30, 30)}, 15},
		{"coarse multiple of fine", []window.Spec{
			window.NewCountSpec(60, 15), window.NewCountSpec(120, 60)}, 15},
		{"coprime slides", []window.Spec{
			window.NewCountSpec(21, 7), window.NewCountSpec(10, 5)}, 1},
		{"three queries", []window.Spec{
			window.NewCountSpec(60, 20), window.NewCountSpec(60, 12), window.NewCountSpec(30, 30)}, 2},
		{"reuse workload geometry (minutes)", []window.Spec{
			window.NewTimeSpec(time.Hour, 15*time.Minute),
			window.NewTimeSpec(time.Hour, 15*time.Minute),
			window.NewTimeSpec(30*time.Minute, 30*time.Minute)}, int64(15 * time.Minute)},
	}
	for _, tc := range cases {
		plan, err := a.PlanMulti(tc.specs, 1000)
		if err != nil {
			t.Errorf("%s: %v", tc.name, err)
			continue
		}
		if plan.PaneUnit != tc.pane {
			t.Errorf("%s: shared pane = %d, want %d", tc.name, plan.PaneUnit, tc.pane)
		}
		for i, s := range tc.specs {
			if s.Win%plan.PaneUnit != 0 || s.Slide%plan.PaneUnit != 0 {
				t.Errorf("%s: pane %d does not divide query %d (win %d slide %d)",
					tc.name, plan.PaneUnit, i, s.Win, s.Slide)
			}
		}
		if err := plan.Validate(); err != nil {
			t.Errorf("%s: plan invalid: %v", tc.name, err)
		}
	}
	// Degenerate slides must be rejected per-spec, not absorbed by GCD.
	for _, slide := range []int64{0, -5} {
		bad := []window.Spec{
			window.NewCountSpec(60, 15),
			{Kind: window.CountBased, Win: 30, Slide: slide},
		}
		if _, err := a.PlanMulti(bad, 100); err == nil {
			t.Errorf("slide %d accepted", slide)
		}
	}
}
