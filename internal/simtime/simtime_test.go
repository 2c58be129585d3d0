package simtime

import (
	"testing"
	"testing/quick"
	"time"
)

func TestTimeArithmetic(t *testing.T) {
	var epoch Time
	later := epoch.Add(3 * Second)
	if got := later.Sub(epoch); got != 3*Second {
		t.Errorf("Sub = %v, want 3s", got)
	}
	if !epoch.Before(later) || later.Before(epoch) {
		t.Error("Before ordering wrong")
	}
	if !later.After(epoch) || epoch.After(later) {
		t.Error("After ordering wrong")
	}
	if got := later.String(); got != "T+3s" {
		t.Errorf("String = %q, want T+3s", got)
	}
}

func TestMaxMin(t *testing.T) {
	a, b := Time(5), Time(9)
	if Max(a, b) != b || Max(b, a) != b {
		t.Error("Max wrong")
	}
	if Min(a, b) != a || Min(b, a) != a {
		t.Error("Min wrong")
	}
}

func TestNewTimelineRejectsNonPositive(t *testing.T) {
	for _, n := range []int{0, -1} {
		if tl, err := NewTimeline(n); err == nil || tl != nil {
			t.Errorf("NewTimeline(%d) = %v, %v; want an error", n, tl, err)
		}
	}
}

// newTimeline is NewTimeline for a slot count the test knows is valid.
func newTimeline(t *testing.T, n int) *Timeline {
	t.Helper()
	tl, err := NewTimeline(n)
	if err != nil {
		t.Fatal(err)
	}
	return tl
}

func TestTimelineSingleSlotSerializes(t *testing.T) {
	tl := newTimeline(t, 1)
	s1, e1 := tl.Acquire(0, 10)
	s2, e2 := tl.Acquire(0, 10)
	if s1 != 0 || e1 != 10 {
		t.Errorf("first task at [%v,%v], want [0,10]", s1, e1)
	}
	if s2 != 10 || e2 != 20 {
		t.Errorf("second task at [%v,%v], want [10,20]", s2, e2)
	}
}

func TestTimelineParallelSlots(t *testing.T) {
	tl := newTimeline(t, 2)
	_, e1 := tl.Acquire(0, 10)
	_, e2 := tl.Acquire(0, 10)
	if e1 != 10 || e2 != 10 {
		t.Errorf("two slots should run both tasks in parallel, got ends %v, %v", e1, e2)
	}
	s3, _ := tl.Acquire(0, 5)
	if s3 != 10 {
		t.Errorf("third task should wait for a slot: start=%v, want 10", s3)
	}
}

func TestTimelineReadyDelaysStart(t *testing.T) {
	tl := newTimeline(t, 3)
	s, e := tl.Acquire(100, 50)
	if s != 100 || e != 150 {
		t.Errorf("task ready at 100 should run [100,150], got [%v,%v]", s, e)
	}
}

func TestTimelineEarliestAndBusy(t *testing.T) {
	tl := newTimeline(t, 2)
	tl.Acquire(0, 10)
	tl.Acquire(0, 30)
	if got := tl.EarliestFree(); got != 10 {
		t.Errorf("EarliestFree = %v, want 10", got)
	}
	if got := tl.BusyUntil(); got != 30 {
		t.Errorf("BusyUntil = %v, want 30", got)
	}
	if got := tl.EarliestStart(25); got != 25 {
		t.Errorf("EarliestStart(25) = %v, want 25", got)
	}
	if got := tl.EarliestStart(5); got != 10 {
		t.Errorf("EarliestStart(5) = %v, want 10", got)
	}
}

func TestTimelineResetAndClone(t *testing.T) {
	tl := newTimeline(t, 2)
	tl.Acquire(0, 100)
	c := tl.Clone()
	c.Acquire(0, 100) // consumes the clone's second slot
	if tl.EarliestFree() != 0 {
		t.Error("clone mutation leaked into original")
	}
	tl.Reset(500)
	if tl.EarliestFree() != 500 || tl.BusyUntil() != 500 {
		t.Error("Reset should free all slots at the given instant")
	}
	if tl.Slots() != 2 {
		t.Errorf("Slots = %d, want 2", tl.Slots())
	}
}

// Property: with n slots and any task list, no instant ever has more
// than n tasks running, and every task starts at or after its ready
// time.
func TestTimelineCapacityProperty(t *testing.T) {
	f := func(slots uint8, readies, durs []uint16) bool {
		n := int(slots%8) + 1
		tl := newTimeline(t, n)
		type iv struct{ s, e Time }
		var ivs []iv
		count := len(readies)
		if len(durs) < count {
			count = len(durs)
		}
		for i := 0; i < count; i++ {
			ready := Time(readies[i])
			dur := time.Duration(durs[i]%1000) + 1
			s, e := tl.Acquire(ready, dur)
			if s < ready || e != s.Add(dur) {
				return false
			}
			ivs = append(ivs, iv{s, e})
		}
		// Check overlap count at every start instant.
		for _, p := range ivs {
			overlap := 0
			for _, q := range ivs {
				if q.s <= p.s && p.s < q.e {
					overlap++
				}
			}
			if overlap > n {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
