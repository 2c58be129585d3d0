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
	plan, err := a.PlanFrame(window.FrameOf(spec), ratePerNs)
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
	plan, err := a.PlanFrame(window.FrameOf(spec), ratePerNs)
	if err != nil {
		t.Fatal(err)
	}
	if plan.PanesPerFile < 6 || plan.PanesPerFile > 7 {
		t.Errorf("panes per file = %d, want floor(64/10) ≈ 6", plan.PanesPerFile)
	}
}

func TestPlanRejectsNegativeRate(t *testing.T) {
	a, _ := NewAnalyzer(64)
	if _, err := a.PlanFrame(window.FrameOf(window.NewCountSpec(30, 20)), -1); err == nil {
		t.Error("negative rate should be rejected")
	}
	if _, err := a.PlanFrame(window.FrameOf(window.Spec{Kind: window.CountBased, Slide: 1}), 1); err == nil {
		t.Error("invalid window should be rejected")
	}
}

// An unknown arrival rate cannot size files, so Algorithm 1 keeps one
// pane per file until the profiler learns better.
func TestPlanUnknownRateOnePanePerFile(t *testing.T) {
	a, _ := NewAnalyzer(64 << 20)
	frames, err := window.NewFrames([]window.Spec{window.NewCountSpec(30, 10), window.NewCountSpec(20, 10)})
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range frames {
		plan, err := a.PlanFrame(f, 0)
		if err != nil {
			t.Fatal(err)
		}
		if plan.PaneUnit != f.Pane || plan.PanesPerFile != 1 {
			t.Errorf("%v: plan %s, want pane %d and one pane per file", f, plan, f.Pane)
		}
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
