package core

import (
	"fmt"
	"sync"

	"redoop/internal/window"
)

// StatusMatrix is the per-query cache status matrix (paper §4.2,
// Table 3, Figure 4): a multi-dimensional boolean array with one
// dimension per data source, where entry (p1,...,pn) records whether
// the query's operation has completed over that combination of panes.
//
// The matrix supports the paper's four operations — initialization,
// update on task completion, expiration checking via pane lifespans,
// and periodic shifting that retires fully processed leading panes and
// admits new ones — keeping its footprint bounded while windows slide.
//
// Dimensions carry per-source window frames sharing one recurrence
// cadence (the slide); window sizes may differ per source, in which
// case each dimension's pane unit and window ranges follow its own
// frame (window.Frame).
type StatusMatrix struct {
	// mu guards base, n and done.
	mu     sync.Mutex
	frames []window.Frame
	dims   int
	base   []window.PaneID // lowest tracked pane per dimension
	n      []int           // tracked pane count per dimension
	done   []bool          // row-major over the tracked ranges
}

// NewStatusMatrix initializes a matrix whose dimensions carry the
// query's per-source window frames. Per the paper, each dimension
// starts sized to its source's first window of panes, all entries zero.
func NewStatusMatrix(frames []window.Frame) (*StatusMatrix, error) {
	dims := len(frames)
	if dims < 1 {
		return nil, fmt.Errorf("core: status matrix needs at least one dimension, got %d", dims)
	}
	for d, f := range frames {
		if err := f.Spec.Validate(); err != nil {
			return nil, fmt.Errorf("core: status matrix dim %d: %w", d, err)
		}
	}
	m := &StatusMatrix{
		frames: append([]window.Frame(nil), frames...),
		dims:   dims,
		base:   make([]window.PaneID, dims),
		n:      make([]int, dims),
	}
	size := 1
	for d := 0; d < dims; d++ {
		lo, hi := frames[d].WindowRange(0)
		m.base[d] = lo
		m.n[d] = int(hi - lo + 1)
		size *= m.n[d]
	}
	m.done = make([]bool, size)
	return m, nil
}

// index converts pane coordinates to a flat index, or -1 if any
// coordinate is outside the tracked range.
func (m *StatusMatrix) index(coords []window.PaneID) int {
	idx := 0
	for d := 0; d < m.dims; d++ {
		off := int(coords[d] - m.base[d])
		if off < 0 || off >= m.n[d] {
			return -1
		}
		idx = idx*m.n[d] + off
	}
	return idx
}

// ensure grows tracked ranges (at the high end only) to cover coords; a
// coordinate below a shifted base is an error and changes nothing.
func (m *StatusMatrix) ensure(coords []window.PaneID) error {
	grow := false
	newN := make([]int, m.dims)
	for d := 0; d < m.dims; d++ {
		newN[d] = m.n[d]
		if off := int(coords[d] - m.base[d]); off >= m.n[d] {
			newN[d] = off + 1
			grow = true
		}
		if coords[d] < m.base[d] {
			return fmt.Errorf("core: status matrix coordinate %d below shifted base %d in dim %d",
				coords[d], m.base[d], d)
		}
	}
	if !grow {
		return nil
	}
	size := 1
	for d := 0; d < m.dims; d++ {
		size *= newN[d]
	}
	fresh := make([]bool, size)
	// Re-index existing entries into the grown array.
	m.each(func(old []window.PaneID, doneIdx int) {
		idx := 0
		for d := 0; d < m.dims; d++ {
			idx = idx*newN[d] + int(old[d]-m.base[d])
		}
		fresh[idx] = m.done[doneIdx]
	})
	m.n = newN
	m.done = fresh
	return nil
}

// each walks every tracked coordinate with its flat index.
func (m *StatusMatrix) each(fn func(coords []window.PaneID, idx int)) {
	coords := make([]window.PaneID, m.dims)
	var rec func(d, idx int)
	rec = func(d, idx int) {
		if d == m.dims {
			fn(coords, idx)
			return
		}
		for i := 0; i < m.n[d]; i++ {
			coords[d] = m.base[d] + window.PaneID(i)
			rec(d+1, idx*m.n[d]+i)
		}
	}
	rec(0, 0)
}

// Update marks the entry at coords done — called by the job tracker
// whenever the reduce task over that pane combination completes. The
// tracked range grows as needed to admit new panes.
func (m *StatusMatrix) Update(coords ...window.PaneID) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if len(coords) != m.dims {
		return fmt.Errorf("core: status matrix update with %d coords, want %d", len(coords), m.dims)
	}
	if err := m.ensure(coords); err != nil {
		return err
	}
	m.done[m.index(coords)] = true
	return nil
}

// Done reports whether the entry at coords is marked done. Coordinates
// below a dimension's shifted base are treated as done (they were
// shifted out precisely because their work completed); coordinates
// beyond the tracked high end are not yet done.
func (m *StatusMatrix) Done(coords ...window.PaneID) (bool, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.doneLocked(coords)
}

func (m *StatusMatrix) doneLocked(coords []window.PaneID) (bool, error) {
	if len(coords) != m.dims {
		return false, fmt.Errorf("core: status matrix query with %d coords, want %d", len(coords), m.dims)
	}
	for d := 0; d < m.dims; d++ {
		if coords[d] < m.base[d] {
			return true, nil
		}
	}
	if idx := m.index(coords); idx >= 0 {
		return m.done[idx], nil
	}
	return false, nil
}

// Exhausted reports whether pane p of dimension dim has completed every
// entry within its lifespan — the combinations with partner panes it
// must be processed with (§4.2). For a one-dimensional query the
// lifespan is the pane itself. A pane preceding the dimension's first
// window participates in no operation and is vacuously exhausted.
func (m *StatusMatrix) Exhausted(dim int, p window.PaneID) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.exhaustedLocked(dim, p)
}

func (m *StatusMatrix) exhaustedLocked(dim int, p window.PaneID) bool {
	if m.dims == 1 {
		done, _ := m.doneLocked([]window.PaneID{p})
		return done
	}
	coords := make([]window.PaneID, m.dims)
	var rec func(d int) bool
	rec = func(d int) bool {
		if d == m.dims {
			done, _ := m.doneLocked(coords)
			return done
		}
		if d == dim {
			coords[d] = p
			return rec(d + 1)
		}
		lo, hi, ok := m.frames[dim].LifespanIn(p, m.frames[d])
		if !ok {
			return true // pane precedes window 0: no partners owed
		}
		for q := lo; q <= hi; q++ {
			coords[d] = q
			if !rec(d + 1) {
				return false
			}
		}
		return true
	}
	return rec(0)
}

// expiredLocked reports whether pane p of dimension dim can be safely
// purged as of recurrence r: it is no longer part of the current window
// and every entry within its lifespan is done (the paper's
// two-condition test).
func (m *StatusMatrix) expiredLocked(dim int, p window.PaneID, r int) bool {
	return m.frames[dim].ExpiredAfter(p, r) && m.exhaustedLocked(dim, p)
}

// Shift performs the periodic purge of matrix meta-data (Figure 4(c)):
// for each dimension it scans panes in ascending order, removes the
// leading run that is expired as of recurrence r, and admits the same
// number of fresh panes at the high end (initialized to zero). It
// returns the panes retired per dimension.
func (m *StatusMatrix) Shift(r int) [][]window.PaneID {
	m.mu.Lock()
	defer m.mu.Unlock()
	retired := make([][]window.PaneID, m.dims)
	for d := 0; d < m.dims; d++ {
		k := 0
		for k < m.n[d] && m.expiredLocked(d, m.base[d]+window.PaneID(k), r) {
			retired[d] = append(retired[d], m.base[d]+window.PaneID(k))
			k++
		}
		if k == 0 {
			continue
		}
		m.shiftDim(d, k)
	}
	return retired
}

// shiftDim drops the leading k panes of dimension d and appends k fresh
// ones, keeping the dimension's size constant as in the paper.
func (m *StatusMatrix) shiftDim(d, k int) {
	oldBase := m.base[d]
	m.base[d] = oldBase + window.PaneID(k)
	fresh := make([]bool, len(m.done))
	coords := make([]window.PaneID, m.dims)
	var rec func(dim, idx int)
	rec = func(dim, idx int) {
		if dim == m.dims {
			// Entry at the new coords: shifted copy where available.
			oldIdx := m.indexWithBase(coords, d, oldBase)
			if oldIdx >= 0 {
				fresh[idx] = m.done[oldIdx]
			}
			return
		}
		for i := 0; i < m.n[dim]; i++ {
			base := m.base[dim]
			coords[dim] = base + window.PaneID(i)
			rec(dim+1, idx*m.n[dim]+i)
		}
	}
	rec(0, 0)
	m.done = fresh
}

// indexWithBase computes the flat index of coords in the pre-shift
// layout where dimension d had base oldBase.
func (m *StatusMatrix) indexWithBase(coords []window.PaneID, d int, oldBase window.PaneID) int {
	idx := 0
	for dim := 0; dim < m.dims; dim++ {
		base := m.base[dim]
		if dim == d {
			base = oldBase
		}
		off := int(coords[dim] - base)
		if off < 0 || off >= m.n[dim] {
			return -1
		}
		idx = idx*m.n[dim] + off
	}
	return idx
}
