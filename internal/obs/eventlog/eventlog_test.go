package eventlog

import (
	"sync"
	"testing"

	"redoop/internal/simtime"
)

func TestAppendAssignsIncreasingSeq(t *testing.T) {
	l := NewLog(8)
	for i := 0; i < 5; i++ {
		e := l.Append(simtime.Time(i), CacheHit, "q1", nil)
		if e.Seq != uint64(i+1) {
			t.Fatalf("event %d got seq %d", i, e.Seq)
		}
	}
	evs := l.Events()
	if len(evs) != 5 {
		t.Fatalf("len = %d, want 5", len(evs))
	}
	for i, e := range evs {
		if e.Seq != uint64(i+1) {
			t.Errorf("events[%d].Seq = %d, want %d", i, e.Seq, i+1)
		}
	}
	if l.Dropped() != 0 {
		t.Errorf("dropped = %d, want 0", l.Dropped())
	}
}

func TestWraparoundKeepsNewestAndBoundsMemory(t *testing.T) {
	const capacity = 16
	l := NewLog(capacity)
	const total = 100
	for i := 0; i < total; i++ {
		l.Append(simtime.Time(i), PaneIngest, "q1", PaneIngestData{Pane: int64(i)})
	}
	if l.Len() != capacity {
		t.Fatalf("len = %d, want capacity %d", l.Len(), capacity)
	}
	if l.Cap() != capacity {
		t.Fatalf("cap = %d, want %d", l.Cap(), capacity)
	}
	if got, want := l.Dropped(), uint64(total-capacity); got != want {
		t.Errorf("dropped = %d, want %d", got, want)
	}
	evs := l.Events()
	if len(evs) != capacity {
		t.Fatalf("events len = %d, want %d", len(evs), capacity)
	}
	// The retained window is exactly the newest `capacity` events, in
	// order.
	for i, e := range evs {
		want := uint64(total - capacity + i + 1)
		if e.Seq != want {
			t.Fatalf("events[%d].Seq = %d, want %d", i, e.Seq, want)
		}
	}
}

func TestSinceResumesFromSeq(t *testing.T) {
	l := NewLog(8)
	for i := 0; i < 6; i++ {
		l.Append(0, CacheMiss, "q", nil)
	}
	evs := l.Since(4)
	if len(evs) != 2 || evs[0].Seq != 5 || evs[1].Seq != 6 {
		t.Fatalf("Since(4) = %+v, want seqs 5,6", evs)
	}
	if got := l.Since(100); len(got) != 0 {
		t.Errorf("Since(future) = %d events, want 0", len(got))
	}
}

func TestConcurrentAppendAndRead(t *testing.T) {
	l := NewLog(64)
	const writers = 8
	const perWriter = 200
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				l.Append(simtime.Time(i), CacheHit, "q", CacheData{Node: w})
			}
		}(w)
	}
	// Concurrent readers must never observe a torn ring.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 100; i++ {
			evs := l.Events()
			for j := 1; j < len(evs); j++ {
				if evs[j].Seq <= evs[j-1].Seq {
					t.Errorf("out-of-order seqs %d after %d", evs[j].Seq, evs[j-1].Seq)
					return
				}
			}
		}
	}()
	wg.Wait()
	if got, want := l.Seq(), uint64(writers*perWriter); got != want {
		t.Errorf("final seq = %d, want %d", got, want)
	}
	if l.Len() != 64 {
		t.Errorf("len = %d, want capacity 64", l.Len())
	}
}

func TestNilLogIsNoop(t *testing.T) {
	var l *Log
	if e := l.Append(0, CacheHit, "q", nil); e.Seq != 0 {
		t.Error("nil append should return zero event")
	}
	if l.Len() != 0 || l.Cap() != 0 || l.Seq() != 0 || l.Dropped() != 0 {
		t.Error("nil accessors should be zero")
	}
	if l.Events() != nil || l.Since(0) != nil {
		t.Error("nil queries should be nil")
	}
}
