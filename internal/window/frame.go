package window

import (
	"fmt"
	"time"

	"redoop/internal/simtime"
)

// Frame positions one source's windows on the query's shared unit
// axis, including when its sources carry *different* window sizes
// (the paper's §2.1 model attaches a window constraint to each source;
// §4.2's matrix derives each dimension "directly from the window
// constraints on each source"). All sources of a query share the
// recurrence cadence — the slide — and a recurrence triggers when the
// largest window has filled; a smaller window then covers the most
// recent win_d units before that trigger.
//
// The effective pane unit of a source divides its win, the slide, and
// its trigger offset (winMax - win_d), so every window edge is
// pane-aligned — a refinement of Algorithm 1's GCD for heterogeneous
// windows. With equal windows the frame degenerates to Algorithm 1's
// geometry (offset 0, pane = GCD(win, slide)); FrameOf builds that case.
type Frame struct {
	// Spec is the source's own window constraint.
	Spec Spec
	// Pane is the source's effective pane unit.
	Pane int64
	// Offset is the gap between the shared trigger and this source's
	// window end alignment: winMax - win for recurrence 0. Since all
	// windows end at the trigger, Offset is where this source's first
	// window begins.
	Offset int64
}

// FrameOf wraps a single spec as its own frame (the homogeneous case).
func FrameOf(s Spec) Frame {
	return Frame{Spec: s, Pane: s.PaneUnit(), Offset: 0}
}

// NewFrames aligns several sources' window constraints onto one
// cadence. All specs must share the same Kind and Slide; windows may
// differ. The returned frames are index-aligned with specs.
func NewFrames(specs []Spec) ([]Frame, error) {
	if len(specs) == 0 {
		return nil, fmt.Errorf("window: NewFrames needs at least one spec")
	}
	var winMax int64
	for i, s := range specs {
		if err := s.Validate(); err != nil {
			return nil, fmt.Errorf("window: source %d: %w", i, err)
		}
		if s.Kind != specs[0].Kind {
			return nil, fmt.Errorf("window: source %d mixes %v with %v windows", i, s.Kind, specs[0].Kind)
		}
		if s.Slide != specs[0].Slide {
			return nil, fmt.Errorf("window: sources must share one slide (recurrence cadence), got %d and %d",
				specs[0].Slide, s.Slide)
		}
		if s.Win > winMax {
			winMax = s.Win
		}
	}
	frames := make([]Frame, len(specs))
	for i, s := range specs {
		offset := winMax - s.Win
		pane := GCD(s.Win, s.Slide)
		if offset > 0 {
			pane = GCD(pane, offset)
		}
		frames[i] = Frame{Spec: s, Pane: pane, Offset: offset}
	}
	return frames, nil
}

// String formats the frame for logs.
func (f Frame) String() string {
	if f.Spec.Kind == TimeBased {
		return fmt.Sprintf("%v pane=%v offset=%v", f.Spec,
			time.Duration(f.Pane), time.Duration(f.Offset))
	}
	return fmt.Sprintf("%v pane=%d offset=%d", f.Spec, f.Pane, f.Offset)
}

// PanesPerWindow returns how many effective panes one window spans.
func (f Frame) PanesPerWindow() int64 { return f.Spec.Win / f.Pane }

// PanesPerSlide returns how many effective panes the window advances
// per recurrence.
func (f Frame) PanesPerSlide() int64 { return f.Spec.Slide / f.Pane }

// PaneOf returns the effective pane containing unit offset u.
func (f Frame) PaneOf(u int64) PaneID {
	if u >= 0 {
		return PaneID(u / f.Pane)
	}
	return PaneID((u - f.Pane + 1) / f.Pane)
}

// PaneStart returns the inclusive lower unit bound of pane p.
func (f Frame) PaneStart(p PaneID) int64 { return int64(p) * f.Pane }

// PaneEnd returns the exclusive upper unit bound of pane p.
func (f Frame) PaneEnd(p PaneID) int64 { return (int64(p) + 1) * f.Pane }

// At converts unit offset u to a virtual instant: the identity for
// time-based windows; count-based windows have no intrinsic arrival
// time, so every unit maps to instant zero.
func (f Frame) At(u int64) simtime.Time {
	if f.Spec.Kind == TimeBased {
		return simtime.Time(u)
	}
	return 0
}

// WindowClose returns the shared trigger instant of recurrence r:
// r·slide + winMax (expressed through this frame as win + offset).
func (f Frame) WindowClose(r int) int64 {
	return int64(r)*f.Spec.Slide + f.Spec.Win + f.Offset
}

// WindowRange returns the inclusive pane range [lo, hi] this source
// contributes to recurrence r: the win units ending at the trigger.
func (f Frame) WindowRange(r int) (lo, hi PaneID) {
	start := int64(r)*f.Spec.Slide + f.Offset
	lo = PaneID(start / f.Pane)
	hi = lo + PaneID(f.PanesPerWindow()) - 1
	return lo, hi
}

// WindowsOfPane returns the inclusive recurrence range [rmin, rmax] of
// windows containing pane p. Panes before the first window's start
// belong to no window; ok is false then.
func (f Frame) WindowsOfPane(p PaneID) (rmin, rmax int, ok bool) {
	pps := f.PanesPerSlide()
	ppw := f.PanesPerWindow()
	off := int64(p) - f.Offset/f.Pane // pane index relative to window 0's start
	if off < 0 {
		return 0, -1, false
	}
	// Window r covers relative panes [r*pps, r*pps+ppw-1], so it holds
	// off iff ceil((off-ppw+1)/pps) <= r <= floor(off/pps).
	rmax = int(off / pps)
	num := off - ppw + 1
	if num <= 0 {
		rmin = 0
	} else {
		rmin = int((num + pps - 1) / pps)
	}
	return rmin, rmax, true
}

// LifespanIn returns the inclusive pane range of the partner frame
// that pane p (of this frame) must be processed with: the union of the
// partner's window ranges over every recurrence containing p.
func (f Frame) LifespanIn(p PaneID, partner Frame) (lo, hi PaneID, ok bool) {
	rmin, rmax, ok := f.WindowsOfPane(p)
	if !ok {
		return 0, -1, false
	}
	lo, _ = partner.WindowRange(rmin)
	_, hi = partner.WindowRange(rmax)
	return lo, hi, true
}

// ExpiredAfter reports whether pane p has slid out of every window at
// or after recurrence r.
func (f Frame) ExpiredAfter(p PaneID, r int) bool {
	lo, _ := f.WindowRange(r)
	return p < lo
}
