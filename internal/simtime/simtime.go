// Package simtime provides the virtual-time primitives used by the
// discrete-event cluster simulation.
//
// All task and job timings in the runtime are expressed in virtual time:
// a Time is an absolute instant on the simulation timeline and a Duration
// is a span of virtual time. Both are nanosecond-granular, mirroring
// time.Duration so that values print naturally, but they never correspond
// to wall-clock time. The simulation advances time only through explicit
// arithmetic (slot timelines, arrival schedules), never by sleeping.
package simtime

import (
	"fmt"
	"time"
)

// Time is an absolute instant on the virtual timeline, in nanoseconds
// since the start of the simulation. The zero Time is the simulation
// epoch.
type Time int64

// Duration is a span of virtual time in nanoseconds. It converts freely
// to and from time.Duration.
type Duration = time.Duration

// Common durations re-exported for convenience.
const (
	Nanosecond  = time.Nanosecond
	Microsecond = time.Microsecond
	Millisecond = time.Millisecond
	Second      = time.Second
	Minute      = time.Minute
	Hour        = time.Hour
)

// Add returns the instant d after t.
func (t Time) Add(d Duration) Time { return t + Time(d) }

// Sub returns the duration t-u.
func (t Time) Sub(u Time) Duration { return Duration(t - u) }

// Before reports whether t precedes u.
func (t Time) Before(u Time) bool { return t < u }

// After reports whether t follows u.
func (t Time) After(u Time) bool { return t > u }

// String formats the instant as an offset from the simulation epoch.
func (t Time) String() string { return fmt.Sprintf("T+%v", Duration(t)) }

// Max returns the later of the two instants.
func Max(a, b Time) Time {
	if a > b {
		return a
	}
	return b
}

// Min returns the earlier of the two instants.
func Min(a, b Time) Time {
	if a < b {
		return a
	}
	return b
}

// Timeline tracks the availability of a set of identical execution slots
// (for example the map slots of one node). Acquire returns the earliest
// instant at which a slot is free at-or-after a requested start time and
// marks that slot busy for the task's duration.
//
// Timeline is the core building block of the list-scheduling simulation:
// each node owns one Timeline for map slots and one for reduce slots.
type Timeline struct {
	free []Time // next-free instant per slot
}

// NewTimeline returns a timeline with n slots, all free at the epoch.
func NewTimeline(n int) (*Timeline, error) {
	if n <= 0 {
		return nil, fmt.Errorf("simtime: timeline must have at least one slot, got %d", n)
	}
	return &Timeline{free: make([]Time, n)}, nil
}

// Slots returns the number of slots managed by the timeline.
func (tl *Timeline) Slots() int { return len(tl.free) }

// EarliestFree returns the earliest instant at which any slot becomes
// free, without reserving it.
func (tl *Timeline) EarliestFree() Time {
	m := tl.free[0]
	for _, f := range tl.free[1:] {
		if f < m {
			m = f
		}
	}
	return m
}

// EarliestStart returns the earliest instant a task that becomes ready at
// `ready` could start, without reserving a slot.
func (tl *Timeline) EarliestStart(ready Time) Time {
	return Max(ready, tl.EarliestFree())
}

// Acquire reserves the earliest-available slot for a task that becomes
// ready at `ready` and runs for `dur`. It returns the task's start and
// end instants.
func (tl *Timeline) Acquire(ready Time, dur Duration) (start, end Time) {
	best := 0
	for i, f := range tl.free {
		if f < tl.free[best] {
			best = i
		}
	}
	start = Max(ready, tl.free[best])
	end = start.Add(dur)
	tl.free[best] = end
	return start, end
}

// BusyUntil returns the instant at which all slots become free, i.e. the
// completion time of the last reserved task.
func (tl *Timeline) BusyUntil() Time {
	m := tl.free[0]
	for _, f := range tl.free[1:] {
		if f > m {
			m = f
		}
	}
	return m
}

// Reset marks every slot free at the given instant. It is used when a
// node restarts after a failure.
func (tl *Timeline) Reset(at Time) {
	for i := range tl.free {
		tl.free[i] = at
	}
}

// Clone returns an independent copy of the timeline. Schedulers use
// clones for what-if placement probing.
func (tl *Timeline) Clone() *Timeline {
	c := &Timeline{free: make([]Time, len(tl.free))}
	copy(c.free, tl.free)
	return c
}
