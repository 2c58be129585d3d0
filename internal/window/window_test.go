package window

import (
	"testing"
	"testing/quick"
	"time"
)

func TestValidate(t *testing.T) {
	ok := NewTimeSpec(12*time.Hour, time.Hour)
	if err := ok.Validate(); err != nil {
		t.Errorf("valid spec rejected: %v", err)
	}
	bad := []Spec{
		{Kind: TimeBased, Win: 0, Slide: 1},
		{Kind: TimeBased, Win: 10, Slide: 0},
		{Kind: TimeBased, Win: 10, Slide: -2},
		{Kind: TimeBased, Win: 5, Slide: 10}, // slide > win leaves gaps
		{Kind: Kind(42), Win: 10, Slide: 5},
	}
	for i, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("bad spec %d accepted: %+v", i, s)
		}
	}
}

func TestKindString(t *testing.T) {
	if TimeBased.String() != "time" || CountBased.String() != "count" {
		t.Error("Kind.String wrong")
	}
	if Kind(9).String() != "Kind(9)" {
		t.Error("unknown Kind.String wrong")
	}
}

// Paper §3.1: "The logical pane size is 20 minutes as a result of
// GCD(60, 20), namely win = 60 minutes and slide = 20 minutes."
func TestPaneUnitPaperExample(t *testing.T) {
	s := NewTimeSpec(60*time.Minute, 20*time.Minute)
	if got := s.PaneUnit(); got != int64(20*time.Minute) {
		t.Errorf("pane = %v, want 20m", time.Duration(got))
	}
	if f := FrameOf(s); f.PanesPerWindow() != 3 || f.PanesPerSlide() != 1 {
		t.Errorf("panes/window=%d panes/slide=%d, want 3 and 1",
			f.PanesPerWindow(), f.PanesPerSlide())
	}
}

// Paper §3.1 challenge 2: win = 4 hours, slide = 3 hours ⇒ pane = 1h,
// so a cached slide-sized partition would be misaligned — panes avoid
// that.
func TestPaneUnitMisalignedExample(t *testing.T) {
	s := NewTimeSpec(4*time.Hour, 3*time.Hour)
	if got := s.PaneUnit(); got != int64(time.Hour) {
		t.Errorf("pane = %v, want 1h", time.Duration(got))
	}
}

func TestOverlap(t *testing.T) {
	cases := []struct {
		win, slide time.Duration
		want       float64
	}{
		{10 * time.Hour, 1 * time.Hour, 0.9},
		{10 * time.Hour, 5 * time.Hour, 0.5},
		{10 * time.Hour, 9 * time.Hour, 0.1},
		{10 * time.Hour, 10 * time.Hour, 0.0},
	}
	for _, c := range cases {
		got := NewTimeSpec(c.win, c.slide).Overlap()
		if diff := got - c.want; diff > 1e-9 || diff < -1e-9 {
			t.Errorf("Overlap(win=%v, slide=%v) = %v, want %v", c.win, c.slide, got, c.want)
		}
	}
}

func TestWindowRange(t *testing.T) {
	f := FrameOf(NewCountSpec(30, 20)) // pane 10, 3 per window, 2 per slide
	for _, c := range []struct {
		r      int
		lo, hi PaneID
	}{
		{0, 0, 2}, {1, 2, 4}, {2, 4, 6}, {3, 6, 8},
	} {
		lo, hi := f.WindowRange(c.r)
		if lo != c.lo || hi != c.hi {
			t.Errorf("WindowRange(%d) = [%d,%d], want [%d,%d]", c.r, lo, hi, c.lo, c.hi)
		}
	}
	if got := f.WindowClose(2); got != 2*20+30 {
		t.Errorf("WindowClose(2) = %d, want 70", got)
	}
}

func TestPaneOfAndBounds(t *testing.T) {
	f := FrameOf(NewCountSpec(30, 20)) // pane 10
	if f.PaneOf(0) != 0 || f.PaneOf(9) != 0 || f.PaneOf(10) != 1 {
		t.Error("PaneOf boundaries wrong")
	}
	if f.PaneOf(-1) != -1 || f.PaneOf(-10) != -1 || f.PaneOf(-11) != -2 {
		t.Error("PaneOf negative offsets should floor")
	}
	if f.PaneStart(3) != 30 || f.PaneEnd(3) != 40 {
		t.Error("pane bounds wrong")
	}
}

// Paper §4.2 / Figure 4: win = 30 min, slide = 20 min on both sources
// ⇒ pane = 10 min. In the paper's 1-based numbering the lifespans of
// S2P2 and S2P3 are 3 and 5 panes; in our 0-based numbering those are
// panes 1 and 2.
func TestLifespanPaperFigure4(t *testing.T) {
	f := FrameOf(NewTimeSpec(30*time.Minute, 20*time.Minute))
	lo, hi, _ := f.LifespanIn(1, f)
	if got := int64(hi - lo + 1); got != 3 {
		t.Errorf("lifespan of pane 1 spans %d panes [%d,%d], want 3", got, lo, hi)
	}
	lo, hi, _ = f.LifespanIn(2, f)
	if got := int64(hi - lo + 1); got != 5 {
		t.Errorf("lifespan of pane 2 spans %d panes [%d,%d], want 5", got, lo, hi)
	}
}

// Paper §4.3: with win = 30 min and slide = 20 min (pane = 10 min),
// pane S2P4 pairs with S1P3 but not with S1P7.
func TestInLifespanPaperExample(t *testing.T) {
	f := FrameOf(NewTimeSpec(30*time.Minute, 20*time.Minute))
	lo, hi, ok := f.LifespanIn(4, f)
	if !ok || 3 < lo || 3 > hi {
		t.Error("pane 3 should be within pane 4's lifespan")
	}
	if 7 >= lo && 7 <= hi {
		t.Error("pane 7 should be beyond pane 4's lifespan")
	}
}

func TestWindowsOfPane(t *testing.T) {
	f := FrameOf(NewCountSpec(30, 20)) // windows [0,2],[2,4],[4,6],...
	cases := []struct {
		p          PaneID
		rmin, rmax int
	}{
		{0, 0, 0}, {1, 0, 0}, {2, 0, 1}, {3, 1, 1}, {4, 1, 2}, {5, 2, 2},
	}
	for _, c := range cases {
		rmin, rmax, ok := f.WindowsOfPane(c.p)
		if !ok || rmin != c.rmin || rmax != c.rmax {
			t.Errorf("WindowsOfPane(%d) = [%d,%d], want [%d,%d]", c.p, rmin, rmax, c.rmin, c.rmax)
		}
	}
}

func TestExpiredAfter(t *testing.T) {
	f := FrameOf(NewCountSpec(30, 20))
	// Window 2 covers panes [4,6]; panes below 4 have slid out.
	if !f.ExpiredAfter(3, 2) || f.ExpiredAfter(4, 2) {
		t.Error("ExpiredAfter wrong around window boundary")
	}
}

func TestGCD(t *testing.T) {
	cases := []struct{ a, b, want int64 }{
		{60, 20, 20}, {4, 3, 1}, {12, 12, 12}, {7, 21, 7},
	}
	for _, c := range cases {
		if got := GCD(c.a, c.b); got != c.want {
			t.Errorf("GCD(%d,%d) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

// Property: consecutive windows tile the pane axis exactly — window r
// covers PanesPerWindow panes, advances by PanesPerSlide, and every
// pane id within [0, N) appears in at least one of the first windows.
func TestWindowTilingProperty(t *testing.T) {
	f := func(winU, slideU uint8) bool {
		win := int64(winU%50) + 1
		slide := int64(slideU%50) + 1
		if slide > win {
			win, slide = slide, win
		}
		s := NewCountSpec(win, slide)
		if s.Validate() != nil {
			return true
		}
		f := FrameOf(s)
		ppw, pps := f.PanesPerWindow(), f.PanesPerSlide()
		if ppw*s.PaneUnit() != win || pps*s.PaneUnit() != slide {
			return false
		}
		// Windows 0..9 cover the contiguous pane range [0, 9*pps+ppw).
		covered := make(map[PaneID]bool)
		for r := 0; r < 10; r++ {
			lo, hi := f.WindowRange(r)
			if hi-lo+1 != PaneID(ppw) {
				return false
			}
			for p := lo; p <= hi; p++ {
				covered[p] = true
			}
		}
		for p := PaneID(0); p < PaneID(9*pps+ppw); p++ {
			if !covered[p] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: WindowsOfPane inverts WindowRange — r contains p iff
// rmin <= r <= rmax; and LifespanIn(p) covers exactly the partner panes
// of those windows.
func TestWindowsOfPaneInverseProperty(t *testing.T) {
	f := func(winU, slideU, pU uint8) bool {
		win := int64(winU%40) + 1
		slide := int64(slideU%40) + 1
		if slide > win {
			win, slide = slide, win
		}
		f := FrameOf(NewCountSpec(win, slide))
		p := PaneID(pU % 60)
		rmin, rmax, ok := f.WindowsOfPane(p)
		if !ok {
			return false
		}
		for r := 0; r <= rmax+2; r++ {
			lo, hi := f.WindowRange(r)
			in := lo <= p && p <= hi
			want := r >= rmin && r <= rmax
			if in != want {
				return false
			}
		}
		llo, lhi, _ := f.LifespanIn(p, f)
		wlo, _ := f.WindowRange(rmin)
		_, whi := f.WindowRange(rmax)
		return llo == wlo && lhi == whi
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
