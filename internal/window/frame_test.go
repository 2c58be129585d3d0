package window

import (
	"testing"
	"testing/quick"
	"time"

	"redoop/internal/simtime"
)

func TestNewFramesValidation(t *testing.T) {
	if _, err := NewFrames(nil); err == nil {
		t.Error("empty specs should fail")
	}
	if _, err := NewFrames([]Spec{NewCountSpec(30, 20), NewCountSpec(40, 10)}); err == nil {
		t.Error("differing slides should fail")
	}
	mixed := []Spec{NewCountSpec(30, 20), NewTimeSpec(time.Hour, time.Minute)}
	if _, err := NewFrames(mixed); err == nil {
		t.Error("mixed kinds should fail")
	}
	if _, err := NewFrames([]Spec{{Kind: CountBased, Win: 0, Slide: 1}}); err == nil {
		t.Error("invalid spec should fail")
	}
}

// Heterogeneous example: win1=6, win2=4, slide=4. The trigger of
// recurrence r is r·4+6. Source 2's effective pane must divide its win
// (4), the slide (4) and its offset (2) ⇒ pane2 = 2.
func TestHeterogeneousFrames(t *testing.T) {
	frames, err := NewFrames([]Spec{NewCountSpec(6, 4), NewCountSpec(4, 4)})
	if err != nil {
		t.Fatal(err)
	}
	f1, f2 := frames[0], frames[1]
	if f1.Pane != 2 || f1.Offset != 0 {
		t.Errorf("f1 = %+v, want pane 2 offset 0", f1)
	}
	if f2.Pane != 2 || f2.Offset != 2 {
		t.Errorf("f2 = %+v, want pane 2 offset 2", f2)
	}
	// Both close together.
	if f1.WindowClose(0) != 6 || f2.WindowClose(0) != 6 {
		t.Errorf("closes = %d, %d, want 6", f1.WindowClose(0), f2.WindowClose(0))
	}
	// Window 0: f1 covers units [0,6) = panes 0..2; f2 covers [2,6) =
	// panes 1..2.
	lo, hi := f1.WindowRange(0)
	if lo != 0 || hi != 2 {
		t.Errorf("f1 window 0 = [%d,%d], want [0,2]", lo, hi)
	}
	lo, hi = f2.WindowRange(0)
	if lo != 1 || hi != 2 {
		t.Errorf("f2 window 0 = [%d,%d], want [1,2]", lo, hi)
	}
	// Window 1: trigger 10; f1 covers [4,10) = panes 2..4; f2 covers
	// [6,10) = panes 3..4.
	lo, hi = f1.WindowRange(1)
	if lo != 2 || hi != 4 {
		t.Errorf("f1 window 1 = [%d,%d], want [2,4]", lo, hi)
	}
	lo, hi = f2.WindowRange(1)
	if lo != 3 || hi != 4 {
		t.Errorf("f2 window 1 = [%d,%d], want [3,4]", lo, hi)
	}
}

func TestFrameWindowsOfPane(t *testing.T) {
	frames, _ := NewFrames([]Spec{NewCountSpec(6, 4), NewCountSpec(4, 4)})
	f2 := frames[1]
	// f2's windows: r0 = [1,2], r1 = [3,4], r2 = [5,6] (pps=2, ppw=2).
	cases := []struct {
		p          PaneID
		rmin, rmax int
		ok         bool
	}{
		{0, 0, 0, false}, // before window 0's start
		{1, 0, 0, true},
		{2, 0, 0, true},
		{3, 1, 1, true},
		{4, 1, 1, true},
		{5, 2, 2, true},
	}
	for _, c := range cases {
		rmin, rmax, ok := f2.WindowsOfPane(c.p)
		if ok != c.ok || (ok && (rmin != c.rmin || rmax != c.rmax)) {
			t.Errorf("WindowsOfPane(%d) = [%d,%d] ok=%v, want [%d,%d] ok=%v",
				c.p, rmin, rmax, ok, c.rmin, c.rmax, c.ok)
		}
	}
}

func TestFrameLifespanIn(t *testing.T) {
	frames, _ := NewFrames([]Spec{NewCountSpec(6, 4), NewCountSpec(4, 4)})
	f1, f2 := frames[0], frames[1]
	// f2's pane 1 participates only in recurrence 0, whose f1 range is
	// panes [0,2].
	lo, hi, ok := f2.LifespanIn(1, f1)
	if !ok || lo != 0 || hi != 2 {
		t.Errorf("LifespanIn = [%d,%d] ok=%v, want [0,2] true", lo, hi, ok)
	}
	// f1's pane 2 is in recurrences 0 and 1; f2's union = [1,4].
	lo, hi, ok = f1.LifespanIn(2, f2)
	if !ok || lo != 1 || hi != 4 {
		t.Errorf("LifespanIn = [%d,%d] ok=%v, want [1,4] true", lo, hi, ok)
	}
}

func TestFrameExpiredAfter(t *testing.T) {
	frames, _ := NewFrames([]Spec{NewCountSpec(6, 4), NewCountSpec(4, 4)})
	f2 := frames[1]
	// Window 1 of f2 starts at pane 3.
	if !f2.ExpiredAfter(2, 1) || f2.ExpiredAfter(3, 1) {
		t.Error("ExpiredAfter wrong around f2's window 1 boundary")
	}
}

// Property: frames' windows always end exactly at the shared trigger
// and pane-align their starts.
func TestFrameAlignmentProperty(t *testing.T) {
	f := func(w1U, w2U, sU uint8) bool {
		slide := int64(sU%20) + 1
		w1 := slide * (int64(w1U%5) + 1)
		w2 := slide * (int64(w2U%5) + 1)
		frames, err := NewFrames([]Spec{NewCountSpec(w1, slide), NewCountSpec(w2, slide)})
		if err != nil {
			return false
		}
		for r := 0; r < 6; r++ {
			close0 := frames[0].WindowClose(r)
			if frames[1].WindowClose(r) != close0 {
				return false
			}
			for _, fr := range frames {
				lo, hi := fr.WindowRange(r)
				if fr.PaneStart(lo) != close0-fr.Spec.Win {
					return false
				}
				if fr.PaneEnd(hi) != close0 {
					return false
				}
				if fr.Spec.Win%fr.Pane != 0 || fr.Spec.Slide%fr.Pane != 0 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestFrameAccessors(t *testing.T) {
	frames, _ := NewFrames([]Spec{NewCountSpec(6, 4), NewCountSpec(4, 4)})
	f := frames[1] // pane 2, offset 2
	if f.PaneOf(0) != 0 || f.PaneOf(3) != 1 || f.PaneOf(-1) != -1 {
		t.Error("Frame.PaneOf wrong")
	}
	if f.At(7) != 0 {
		t.Error("count-based units have no arrival instant")
	}
	if f.String() == "" {
		t.Error("count-based Frame.String empty")
	}
	tf := FrameOf(NewTimeSpec(time.Hour, time.Minute))
	if tf.String() == "" {
		t.Error("time-based Frame.String empty")
	}
	if tf.At(tf.WindowClose(1)) != simtime.Time(time.Hour+time.Minute) {
		t.Error("time-based units are virtual nanoseconds")
	}
	if NewTimeSpec(time.Hour, time.Minute).String() == "" {
		t.Error("Spec.String empty")
	}
	// LifespanIn for a pane before the partner's first window.
	if _, _, ok := frames[1].LifespanIn(0, frames[0]); ok {
		t.Error("pane before window 0 should have no lifespan")
	}
}
