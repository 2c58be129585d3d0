// Package window implements the sliding-window and pane semantics of
// Redoop's recurring query model (paper §2.1 and §3.1).
//
// A recurring query is specified by a window size `win` (the scope of
// data each execution processes) and a slide `slide` (the execution
// frequency). The Semantic Analyzer slices window states into disjoint
// panes of size GCD(win, slide) so that every window is an exact union
// of panes and each pane is processed and shuffled only once.
//
// Windows may be time-based or count-based; both are expressed over an
// abstract unit axis (nanoseconds for time, record ordinals for counts),
// which is why most of this package works on int64 units.
//
// A Spec is one source's window constraint; a Frame places it on the
// query's shared recurrence cadence and is the only pane and trigger
// arithmetic (FrameOf for a single source, NewFrames for several).
package window

import (
	"fmt"
	"time"
)

// Kind distinguishes time-based from count-based windows.
type Kind int

const (
	// TimeBased windows measure win and slide in virtual-time
	// nanoseconds over record timestamps.
	TimeBased Kind = iota
	// CountBased windows measure win and slide in record counts.
	CountBased
)

// String returns the kind's name.
func (k Kind) String() string {
	switch k {
	case TimeBased:
		return "time"
	case CountBased:
		return "count"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// PaneID identifies one pane of one data source. Panes are numbered from
// zero: pane p covers the half-open unit range [p*pane, (p+1)*pane).
type PaneID int64

// Spec is a window constraint. Win and Slide are expressed in the
// units implied by Kind. The zero Spec is invalid. Pane and window
// positions are a Frame's (FrameOf).
type Spec struct {
	Kind  Kind
	Win   int64
	Slide int64
}

// NewTimeSpec builds a time-based window specification.
func NewTimeSpec(win, slide time.Duration) Spec {
	return Spec{Kind: TimeBased, Win: int64(win), Slide: int64(slide)}
}

// NewCountSpec builds a count-based window specification.
func NewCountSpec(win, slide int64) Spec {
	return Spec{Kind: CountBased, Win: win, Slide: slide}
}

// Validate reports whether the specification is well formed: positive
// window and slide, and a slide no larger than the window. (A slide
// larger than the window would leave unprocessed gaps between windows,
// which the recurring query model does not define.)
func (s Spec) Validate() error {
	if s.Win <= 0 {
		return fmt.Errorf("window: win must be positive, got %d", s.Win)
	}
	if s.Slide <= 0 {
		return fmt.Errorf("window: slide must be positive, got %d", s.Slide)
	}
	if s.Slide > s.Win {
		return fmt.Errorf("window: slide (%d) must not exceed win (%d)", s.Slide, s.Win)
	}
	if s.Kind != TimeBased && s.Kind != CountBased {
		return fmt.Errorf("window: unknown kind %d", int(s.Kind))
	}
	return nil
}

// String formats the spec for logs.
func (s Spec) String() string {
	if s.Kind == TimeBased {
		return fmt.Sprintf("win=%v slide=%v", time.Duration(s.Win), time.Duration(s.Slide))
	}
	return fmt.Sprintf("win=%d slide=%d (count)", s.Win, s.Slide)
}

// GCD returns the greatest common divisor of two positive int64 values.
func GCD(a, b int64) int64 {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// PaneUnit returns the logical pane size GCD(win, slide) in the spec's
// units (paper Algorithm 1, line 1).
func (s Spec) PaneUnit() int64 { return GCD(s.Win, s.Slide) }

// Overlap returns the paper's overlap factor (win-slide)/win: the
// fraction of a window shared with its predecessor.
func (s Spec) Overlap() float64 {
	return float64(s.Win-s.Slide) / float64(s.Win)
}
