package core

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"redoop/internal/window"
)

// fig4Spec is the paper's Figure 4 configuration: win = 30 min,
// slide = 20 min on both sources ⇒ pane = 10 min, 3 panes per window,
// 2 panes per slide.
func fig4Spec() window.Spec {
	return window.NewTimeSpec(30*time.Minute, 20*time.Minute)
}

func TestNewStatusMatrixValidation(t *testing.T) {
	if _, err := NewStatusMatrix(0, fig4Spec()); err == nil {
		t.Error("zero dims should be rejected")
	}
	if _, err := NewStatusMatrix(2, window.Spec{}); err == nil {
		t.Error("invalid spec should be rejected")
	}
}

func TestInitializationSizedToWindow(t *testing.T) {
	m, err := NewStatusMatrix(2, fig4Spec())
	if err != nil {
		t.Fatal(err)
	}
	lo, hi := m.Range(0)
	if lo != 0 || hi != 2 {
		t.Errorf("dim 0 range = [%d,%d], want [0,2] (one window of panes)", lo, hi)
	}
	done, err := m.Done(0, 0)
	if err != nil || done {
		t.Error("fresh matrix entries should be zero")
	}
}

func TestUpdateAndDone(t *testing.T) {
	m, _ := NewStatusMatrix(2, fig4Spec())
	if err := m.Update(3, 2); err != nil {
		t.Fatal(err)
	}
	if done, _ := m.Done(3, 2); !done {
		t.Error("updated entry should be done")
	}
	if done, _ := m.Done(2, 3); done {
		t.Error("transposed entry should not be done")
	}
	// Wrong arity errors.
	if err := m.Update(1); err == nil {
		t.Error("wrong coordinate count should error")
	}
	if _, err := m.Done(1); err == nil {
		t.Error("wrong coordinate count should error")
	}
}

func TestOneDimensionalMatrix(t *testing.T) {
	m, _ := NewStatusMatrix(1, fig4Spec())
	m.Update(1)
	if !m.Exhausted(0, 1) {
		t.Error("1-D pane is exhausted once its own entry is done")
	}
	if m.Exhausted(0, 0) {
		t.Error("unprocessed pane should not be exhausted")
	}
}

// Figure 4's expiration example: the lifespan of pane S1P1 (0-based)
// spans partner panes 0..2; S1P1 is exhausted only when all of
// (1,0),(1,1),(1,2) are done.
func TestExhaustedFollowsLifespan(t *testing.T) {
	m, _ := NewStatusMatrix(2, fig4Spec())
	m.Update(1, 0)
	m.Update(1, 1)
	if m.Exhausted(0, 1) {
		t.Error("pane 1 should not be exhausted with (1,2) pending")
	}
	m.Update(1, 2)
	if !m.Exhausted(0, 1) {
		t.Error("pane 1 should be exhausted once its lifespan completes")
	}
}

func TestExpiredRequiresWindowDeparture(t *testing.T) {
	m, _ := NewStatusMatrix(2, fig4Spec())
	for q := window.PaneID(0); q <= 2; q++ {
		m.Update(1, q)
	}
	// Window 0 covers panes [0,2]: pane 1 is exhausted but still in
	// the current window at recurrence 0.
	if m.Expired(0, 1, 0) {
		t.Error("pane inside the current window must not expire")
	}
	// At recurrence 1 the window is [2,4]: pane 1 is out and done.
	if !m.Expired(0, 1, 1) {
		t.Error("exhausted pane past the window should expire")
	}
}

// Figure 4(b)→(c): the shift retires the leading fully-done panes and
// admits fresh ones, but an entry like (S1P5, S2P5) whose panes have
// not exhausted their lifespans survives.
func TestShiftPaperFigure4(t *testing.T) {
	m, _ := NewStatusMatrix(2, fig4Spec())
	// Complete everything pane pairs (p1,p2) for p1,p2 in [0,4] except
	// those involving panes 5+.
	for p1 := window.PaneID(0); p1 <= 4; p1++ {
		for p2 := window.PaneID(0); p2 <= 4; p2++ {
			m.Update(p1, p2)
		}
	}
	// Partially complete pane 5: (5,5) done, (5,6) and (5,7) pending.
	m.Update(5, 5)

	// At recurrence 2 the window is [4,6]: panes 0..3 are out of the
	// window; panes 0..3 have lifespans within [0,4] wait — pane 3's
	// lifespan reaches pane 5? Lifespan(3) = windows of pane 3 =
	// recurrence 1 only ⇒ partner panes [2,4]: all done. Panes 0..3
	// retire; pane 4 is still in window [4,6].
	retired := m.Shift(2)
	if len(retired[0]) != 4 || retired[0][0] != 0 || retired[0][3] != 3 {
		t.Errorf("dim 0 retired %v, want [0 1 2 3]", retired[0])
	}
	if len(retired[1]) != 4 {
		t.Errorf("dim 1 retired %v, want 4 panes", retired[1])
	}
	lo, _ := m.Range(0)
	if lo != 4 {
		t.Errorf("dim 0 base = %d, want 4", lo)
	}
	// Shifted-out coordinates read as done; surviving state intact.
	if done, _ := m.Done(0, 0); !done {
		t.Error("retired entries should read done")
	}
	if done, _ := m.Done(5, 5); !done {
		t.Error("surviving done entry lost in shift")
	}
	if done, _ := m.Done(5, 6); done {
		t.Error("pending entry appeared done after shift")
	}
}

// An update below a shifted base (a late task completion for a retired
// pane) is refused with an error, in either dimension, and leaves the
// matrix as it was: the caller degrades, the process does not die.
func TestUpdateBelowShiftedBaseIsAnError(t *testing.T) {
	m, _ := NewStatusMatrix(2, fig4Spec())
	for p1 := window.PaneID(0); p1 <= 4; p1++ {
		for p2 := window.PaneID(0); p2 <= 4; p2++ {
			m.Update(p1, p2)
		}
	}
	m.Shift(2) // retires panes 0..3 of both dimensions
	before := m.String()
	for _, c := range [][2]window.PaneID{{3, 4}, {4, 3}, {0, 0}, {3, 9}} {
		err := m.Update(c[0], c[1])
		if err == nil || !strings.Contains(err.Error(), "below shifted base") {
			t.Errorf("Update(%d,%d) below base 4: err = %v, want a below-shifted-base error", c[0], c[1], err)
		}
	}
	if after := m.String(); after != before {
		t.Errorf("refused updates changed the matrix:\n%s\nwas:\n%s", after, before)
	}
	if err := m.Update(4, 6); err != nil {
		t.Errorf("in-range update after refused ones: %v", err)
	}
}

func TestShiftDoesNotRetireUnfinishedLeader(t *testing.T) {
	m, _ := NewStatusMatrix(2, fig4Spec())
	// Pane 0's lifespan is [0,2]; leave (0,2) pending.
	m.Update(0, 0)
	m.Update(0, 1)
	retired := m.Shift(5) // window long past pane 0
	if len(retired[0]) != 0 {
		t.Errorf("unfinished pane 0 must not retire, got %v", retired[0])
	}
}

func TestStringRendering(t *testing.T) {
	m1, _ := NewStatusMatrix(1, fig4Spec())
	m1.Update(0)
	if s := m1.String(); s == "" {
		t.Error("1-D render empty")
	}
	m2, _ := NewStatusMatrix(2, fig4Spec())
	if s := m2.String(); s == "" {
		t.Error("2-D render empty")
	}
}

// Property: shifting never changes the Done observation of any
// coordinate that was done before the shift, and never marks a pending
// in-range coordinate done.
func TestShiftPreservationProperty(t *testing.T) {
	f := func(seed int64, rU uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		m, _ := NewStatusMatrix(2, fig4Spec())
		type c struct{ p1, p2 window.PaneID }
		set := make(map[c]bool)
		for i := 0; i < 40; i++ {
			p1 := window.PaneID(rng.Intn(10))
			p2 := window.PaneID(rng.Intn(10))
			m.Update(p1, p2)
			set[c{p1, p2}] = true
		}
		r := int(rU % 5)
		m.Shift(r)
		for p1 := window.PaneID(0); p1 < 10; p1++ {
			for p2 := window.PaneID(0); p2 < 10; p2++ {
				done, err := m.Done(p1, p2)
				if err != nil {
					return false
				}
				lo1, _ := m.Range(0)
				lo2, _ := m.Range(1)
				inRange := p1 >= lo1 && p2 >= lo2
				if set[c{p1, p2}] && !done {
					return false // done state lost
				}
				if !set[c{p1, p2}] && inRange && done {
					return false // pending state fabricated
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
