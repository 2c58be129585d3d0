package core

// Property-based tests for the Semantic Analyzer (paper §3, Algorithm
// 1): for randomized (win, slide, blockSize, rate) draws the plan must
// honor the algorithm's structural guarantees — pane = GCD(win, slide),
// gap/overlap-free window coverage by panes, and packed-file sizes
// bounded by the block size.

import (
	"math/rand"
	"testing"

	"redoop/internal/simtime"
	"redoop/internal/window"
)

// randSpec draws a valid window spec with slide dividing... nothing in
// particular — win and slide are arbitrary multiples of a base unit so
// the GCD is non-trivial.
func randSpec(rng *rand.Rand) window.Spec {
	base := int64(simtime.Minute) * (1 + rng.Int63n(30))
	win := base * (1 + rng.Int63n(24))
	slide := base * (1 + rng.Int63n(24))
	if slide > win {
		win, slide = slide, win
	}
	return window.Spec{Kind: window.TimeBased, Win: win, Slide: slide}
}

// TestPlanPaneIsGCD: Algorithm 1 line 1 — the plan's pane unit is
// exactly GCD(win, slide), divides both, and no larger unit does.
func TestPlanPaneIsGCD(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a, err := NewAnalyzer(64 << 20)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 500; i++ {
		spec := randSpec(rng)
		plan, err := a.PlanFrame(window.FrameOf(spec), rng.Float64()*1e-3)
		if err != nil {
			t.Fatalf("%v: %v", spec, err)
		}
		if err := plan.Validate(); err != nil {
			t.Fatalf("%v: invalid plan %v: %v", spec, plan, err)
		}
		p := plan.PaneUnit
		if p != window.GCD(spec.Win, spec.Slide) {
			t.Fatalf("%v: pane %d != GCD %d", spec, p, window.GCD(spec.Win, spec.Slide))
		}
		if spec.Win%p != 0 || spec.Slide%p != 0 {
			t.Fatalf("%v: pane %d does not divide win/slide", spec, p)
		}
		// Maximality: no multiple of the pane also divides both.
		for k := int64(2); k*p <= spec.Slide; k++ {
			if spec.Win%(k*p) == 0 && spec.Slide%(k*p) == 0 {
				t.Fatalf("%v: pane %d is not maximal, %d also divides", spec, p, k*p)
			}
		}
	}
}

// TestWindowCoverageGapFree: for random specs and recurrences, the
// pane ranges of consecutive windows tile the stream — window r covers
// exactly [r*slide, r*slide+win), consecutive windows abut at slide
// boundaries with neither gaps nor double-counted slide regions, and
// every pane belongs to exactly the windows its lifespan claims.
func TestWindowCoverageGapFree(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 500; i++ {
		spec := randSpec(rng)
		f := window.FrameOf(spec)
		for r := 0; r < 6; r++ {
			lo, hi := f.WindowRange(r)
			if got := f.PaneStart(lo); got != int64(r)*spec.Slide {
				t.Fatalf("%v r=%d: window starts at %d, want %d", spec, r, got, int64(r)*spec.Slide)
			}
			if got := f.PaneEnd(hi); got != int64(r)*spec.Slide+spec.Win {
				t.Fatalf("%v r=%d: window ends at %d, want %d", spec, r, got, int64(r)*spec.Slide+spec.Win)
			}
			if n := int64(hi-lo) + 1; n != f.PanesPerWindow() {
				t.Fatalf("%v r=%d: %d panes in range, want %d", spec, r, n, f.PanesPerWindow())
			}
			// Consecutive panes tile the window with no gap or overlap
			// by construction (PaneEnd(p) == PaneStart(p+1)); spot-check
			// the contract anyway since the oracle leans on it.
			for p := lo; p < hi; p++ {
				if f.PaneEnd(p) != f.PaneStart(p+1) {
					t.Fatalf("%v: pane %d end %d != pane %d start %d",
						spec, int64(p), f.PaneEnd(p), int64(p+1), f.PaneStart(p+1))
				}
			}
			// Window r+1 drops exactly PanesPerSlide panes and gains the
			// same count: the sliding step in panes.
			nlo, nhi := f.WindowRange(r + 1)
			if int64(nlo-lo) != f.PanesPerSlide() || int64(nhi-hi) != f.PanesPerSlide() {
				t.Fatalf("%v r=%d: slide step lo %d hi %d, want %d panes",
					spec, r, int64(nlo-lo), int64(nhi-hi), f.PanesPerSlide())
			}
			// Lifespan agreement: each pane in the window reports a
			// recurrence span that includes r.
			for p := lo; p <= hi; p++ {
				rmin, rmax, _ := f.WindowsOfPane(p)
				if r < rmin || r > rmax {
					t.Fatalf("%v: pane %d in window %d but lifespan is [%d,%d]",
						spec, int64(p), r, rmin, rmax)
				}
			}
		}
	}
}

// TestPackPlanRespectsBlockSize: Algorithm 1 lines 2-8 — in the
// undersized case a packed file's expected payload (panes/file × pane
// bytes) never exceeds the block size, packing is maximal (one more
// pane would overflow), and the oversize case packs exactly one pane.
func TestPackPlanRespectsBlockSize(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 500; i++ {
		blockSize := int64(1)<<uint(10+rng.Intn(12)) + rng.Int63n(1<<10)
		a, err := NewAnalyzer(blockSize)
		if err != nil {
			t.Fatal(err)
		}
		spec := randSpec(rng)
		rate := rng.Float64() * 1e-2
		plan, err := a.PlanFrame(window.FrameOf(spec), rate)
		if err != nil {
			t.Fatalf("%v: %v", spec, err)
		}
		paneBytes := plan.ExpectedFileBytes
		if paneBytes >= blockSize {
			if plan.PanesPerFile != 1 {
				t.Fatalf("oversize pane (%d >= block %d) packed %d panes/file",
					paneBytes, blockSize, plan.PanesPerFile)
			}
			continue
		}
		packed := int64(plan.PanesPerFile) * max(paneBytes, 1)
		if packed > blockSize {
			t.Fatalf("undersized plan overflows block: %d panes × %d B = %d > block %d",
				plan.PanesPerFile, paneBytes, packed, blockSize)
		}
		if packed+max(paneBytes, 1) <= blockSize {
			t.Fatalf("undersized plan under-packs: %d panes × %d B leaves room in block %d",
				plan.PanesPerFile, paneBytes, blockSize)
		}
	}
}

// TestReplanBounds: for random forecast/deadline ratios the adaptive
// re-plan (§3.3) keeps SubPanes in [1, MaxSubPanes], subdivides iff the
// forecast overruns the spike threshold, scales with the overrun ratio,
// and reverts only below the hysteresis floor.
func TestReplanBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	a, _ := NewAnalyzer(64 << 20)
	base := PartitionPlan{PaneUnit: int64(simtime.Minute), FilesPerPane: 1, PanesPerFile: 1, SubPanes: 1}
	deadline := simtime.Duration(10 * simtime.Minute)
	for i := 0; i < 500; i++ {
		ratio := rng.Float64() * 3
		forecast := simtime.Duration(ratio * float64(deadline))
		start := base
		if rng.Intn(2) == 0 {
			start.SubPanes = 2 + rng.Intn(a.MaxSubPanes-1)
		}
		plan, proactive := a.Replan(start, forecast, deadline)
		if plan.SubPanes < 1 || plan.SubPanes > a.MaxSubPanes {
			t.Fatalf("ratio %.2f: SubPanes %d out of [1,%d]", ratio, plan.SubPanes, a.MaxSubPanes)
		}
		if proactive != (plan.SubPanes > 1) {
			t.Fatalf("ratio %.2f: proactive=%v but SubPanes=%d", ratio, proactive, plan.SubPanes)
		}
		switch {
		case ratio > a.SpikeThreshold:
			want := int(ratio + 0.999)
			if want < 2 {
				want = 2
			}
			if want > a.MaxSubPanes {
				want = a.MaxSubPanes
			}
			if plan.SubPanes != want {
				t.Fatalf("ratio %.2f: SubPanes %d, want %d", ratio, plan.SubPanes, want)
			}
		case ratio < 0.5*a.SpikeThreshold:
			if plan.SubPanes != 1 {
				t.Fatalf("ratio %.2f below hysteresis floor: SubPanes %d, want revert to 1", ratio, plan.SubPanes)
			}
		default:
			if plan.SubPanes != start.SubPanes {
				t.Fatalf("ratio %.2f in hysteresis band: SubPanes changed %d -> %d",
					ratio, start.SubPanes, plan.SubPanes)
			}
		}
	}
}
