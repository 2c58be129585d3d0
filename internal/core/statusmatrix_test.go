package core

import (
	"testing"
	"time"

	"redoop/internal/window"
)

// The status matrix's worked examples, as fixed sequences the model
// driver (model_test.go) replays. fig4 is the paper's Figure 4: win = 3
// panes and slide = 2 on both sources (30 and 20 minutes over 10-minute
// panes); fig4One is its one-source query.
var fig4, fig4One = [4]uint8{0, 1, 1, 5}, [4]uint8{0, 0, 1, 1}

// updates marks the pane pairs of panes 0 to hi1 and 0 to hi2 done.
func updates(hi1, hi2 uint8) (steps []step) {
	for p1 := range hi1 + 1 {
		for p2 := range hi2 + 1 {
			steps = append(steps, step{op: op{"update", p1, p2, 0, 0}})
		}
	}
	return steps
}

func TestNewStatusMatrixValidation(t *testing.T) {
	if _, err := NewStatusMatrix(nil); err == nil {
		t.Error("zero dims should be rejected")
	}
	if _, err := NewStatusMatrix(make([]window.Frame, 2)); err == nil {
		t.Error("invalid spec should be rejected")
	}
}

// TestInitializationSizedToWindow: a fresh matrix spans each source's
// first window of panes, all entries zero (the driver compares its
// ranges with the model's).
func TestInitializationSizedToWindow(t *testing.T) {
	replay(t, fig4, []step{{op{"done", 0, 0, 0, 0}, "false"}})
}

func TestUpdateAndDone(t *testing.T) {
	replay(t, fig4, []step{
		{op{"update", 3, 2, 0, 0}, "true"},
		{op{"done", 3, 2, 0, 0}, "true"},
		{op{"done", 2, 3, 0, 0}, "false"},
		{op{"update", 1, 0, 0, 7}, "refused"},
		{op{"done", 1, 0, 0, 7}, "refused"},
	})
}

func TestOneDimensionalMatrix(t *testing.T) {
	replay(t, fig4One, []step{
		{op{"update", 1, 0, 0, 0}, "true"},
		{op{"exhausted", 0, 1, 0, 0}, "true"},
		{op{"exhausted", 0, 0, 0, 0}, "false"},
	})
}

// Figure 4's expiration example: the lifespan of pane S1P1 (0-based)
// spans partner panes 0..2; S1P1 is exhausted only when all of
// (1,0),(1,1),(1,2) are done.
func TestExhaustedFollowsLifespan(t *testing.T) {
	replay(t, fig4, []step{
		{op{"update", 1, 0, 0, 0}, ""},
		{op{"update", 1, 1, 0, 0}, ""},
		{op{"exhausted", 0, 1, 0, 0}, "false"},
		{op{"update", 1, 2, 0, 0}, ""},
		{op{"exhausted", 0, 1, 0, 0}, "true"},
	})
}

// TestExpiredRequiresWindowDeparture: an exhausted pane expires only
// once it leaves the window. Panes 0 and 1 are exhausted but inside
// window 0, [0,2], so the shift at recurrence 0 retires nothing; window
// 1 is [2,4], and they go.
func TestExpiredRequiresWindowDeparture(t *testing.T) {
	replay(t, fig4, append(updates(1, 2), []step{
		{op{"shift", 0, 0, 0, 0}, "[[] []]"},
		{op{"shift", 1, 0, 0, 0}, "[[0 1] []]"},
	}...))
}

// Figure 4(b)→(c): the shift retires the leading fully-done panes and
// admits fresh ones, but an entry like (S1P5, S2P5) whose panes have
// not exhausted their lifespans survives. Shifted-out coordinates read
// as done.
func TestShiftPaperFigure4(t *testing.T) {
	steps := append(updates(4, 4), []step{
		{op{"update", 5, 5, 0, 0}, ""},
		{op{"shift", 2, 0, 0, 0}, "[[0 1 2 3] [0 1 2 3]]"},
		{op{"done", 0, 0, 0, 0}, "true"},
		{op{"done", 5, 5, 0, 0}, "true"},
		{op{"done", 5, 6, 0, 0}, "false"},
	}...)
	replay(t, fig4, steps)
}

// An update below a shifted base (a late task completion for a retired
// pane) is refused, in either dimension, and leaves the matrix as it
// was: the caller degrades, the process does not die.
func TestUpdateBelowShiftedBaseIsAnError(t *testing.T) {
	steps := append(updates(4, 4), []step{
		{op{"shift", 2, 0, 0, 0}, "[[0 1 2 3] [0 1 2 3]]"},
		{op{"update", 3, 4, 0, 0}, "refused"},
		{op{"update", 4, 3, 0, 0}, "refused"},
		{op{"update", 0, 0, 0, 0}, "refused"},
		{op{"update", 3, 9, 0, 0}, "refused"},
		{op{"update", 4, 6, 0, 0}, "true"},
	}...)
	replay(t, fig4, steps)
}

func TestShiftDoesNotRetireUnfinishedLeader(t *testing.T) {
	replay(t, fig4, []step{
		{op{"update", 0, 0, 0, 0}, ""},
		{op{"update", 0, 1, 0, 0}, ""},
		{op{"shift", 5, 0, 0, 0}, "[[] []]"},
	})
}

// BenchmarkStatusMatrix measures the cache status matrix's update,
// lifespan-exhaustion and shift operations at a realistic window size.
func BenchmarkStatusMatrix(b *testing.B) {
	f := window.FrameOf(window.NewTimeSpec(time.Hour, 6*time.Minute)) // 10 panes/window
	for i := 0; i < b.N; i++ {
		m, err := NewStatusMatrix([]window.Frame{f, f})
		if err != nil {
			b.Fatal(err)
		}
		for r := 0; r < 10; r++ {
			lo, hi := f.WindowRange(r)
			for p1 := lo; p1 <= hi; p1++ {
				for p2 := lo; p2 <= hi; p2++ {
					if done, _ := m.Done(p1, p2); !done {
						m.Update(p1, p2)
					}
				}
			}
			m.Shift(r + 1)
		}
	}
}
