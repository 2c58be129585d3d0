package mapreduce

import (
	"sync"

	"redoop/internal/records"
)

// scratch is an engine's free lists of the arrays its phases borrow and
// hand back: map outputs, the values arrays their key groups view and
// the arena chunks their bytes are in (Release), key numbers, key tables
// and Groupers.
// Unlike sync.Pool they keep what they are handed until DropScratch, so
// what a recurrence allocates depends on neither the scheduler (a Put into
// sync.Pool is private to its P) nor where a collection falls.
type scratch struct {
	outs     scratchPool[records.Pair]
	vals     scratchPool[[]byte]
	arenas   scratchPool[byte]
	ids      scratchPool[uint32]
	tables   scratchPool[keyTable]
	groupers scratchPool[Grouper]
}

type scratchPool[T any] struct {
	mu    sync.Mutex
	spare [][]T
}

// get takes the array put back last, or a new one, cut to n (regrown if short).
func (p *scratchPool[T]) get(n int) []T {
	var s []T
	p.mu.Lock()
	if k := len(p.spare); k > 0 {
		s, p.spare[k-1], p.spare = p.spare[k-1], nil, p.spare[:k-1]
	}
	p.mu.Unlock()
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// put hands s back; the caller has cleared what it must not pin. An
// array with no room would only hide the ones beneath it.
func (p *scratchPool[T]) put(s []T) {
	if cap(s) == 0 {
		return
	}
	p.mu.Lock()
	p.spare = append(p.spare, s)
	p.mu.Unlock()
}

func (p *scratchPool[T]) drop() {
	p.mu.Lock()
	clear(p.spare)
	p.spare = p.spare[:0]
	p.mu.Unlock()
}

// SpareOutputs is how many map-output values arrays the free list holds:
// once all are back, the most borrowed at once since DropScratch.
func (e *Engine) SpareOutputs() int {
	e.scratch.vals.mu.Lock()
	defer e.scratch.vals.mu.Unlock()
	return len(e.scratch.vals.spare)
}

// DropScratch empties the engine's free lists, leaving their arrays to
// the collector. core.Engine.RunNext calls it as it returns, so that
// every recurrence starts from none and none is held between
// recurrences; an engine never told to keeps at most the arrays of its
// busiest moment.
func (e *Engine) DropScratch() {
	e.scratch.outs.drop()
	e.scratch.vals.drop()
	e.scratch.arenas.drop()
	e.scratch.ids.drop()
	e.scratch.tables.drop()
	e.scratch.groupers.drop()
}
