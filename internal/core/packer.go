package core

import (
	"bytes"
	"cmp"
	"encoding/json"
	"fmt"
	"slices"
	"sort"
	"sync"

	"redoop/internal/colfmt"
	"redoop/internal/dfs"
	"redoop/internal/mapreduce"
	"redoop/internal/obs"
	"redoop/internal/obs/eventlog"
	"redoop/internal/parallel"
	"redoop/internal/records"
	"redoop/internal/simtime"
	"redoop/internal/window"
)

// PaneInput is one physical segment of one logical pane: a byte range
// of a DFS file plus the instant its data is complete — the earliest
// moment proactive execution may process it.
type PaneInput struct {
	Input mapreduce.Input
	// Pane is the logical pane the segment belongs to.
	Pane window.PaneID
	// SubPane is the segment's index within its pane (0 when the pane
	// is packed whole).
	SubPane int
	// AvailableAt is when the segment's data has fully arrived.
	AvailableAt simtime.Time
	// HeaderBytes is the extra read charged to locate this segment
	// inside a shared multi-pane file via its header (§3.2); zero for
	// single-pane files.
	HeaderBytes int64
}

// Packer is the Dynamic Data Packer of one data source (paper §3.2):
// it executes the Semantic Analyzer's partition plan at load time,
// splitting arriving record batches into pane (or sub-pane) units and
// storing them as DFS files under the paper's naming convention —
// S#P# when one pane maps to one file (the oversize case) and S#P#_#
// with a locator header when several undersized panes share a file.
//
// Packing piggybacks on loading: the pane files exist by the time the
// covered data has arrived, so the packer charges no query-time cost
// beyond the per-pane header lookup for shared files.
type Packer struct {
	// mu guards all mutable state so pane inventories can be read
	// while the engine loads and flushes data.
	mu    sync.Mutex
	dfs   *dfs.DFS
	name  string // source name used in paths, e.g. "S1"
	dir   string // DFS directory, e.g. "/data/q1"
	frame window.Frame
	plan  PartitionPlan

	// obs records a PaneIngest decision event per pane segment
	// written; obsQuery labels those events. Both may be zero.
	obs      *obs.Tracer
	obsQuery string

	// pending buffers each open pane's records per sub-pane; its length
	// is the sub-pane factor the pane was bound to by its first record.
	pending map[window.PaneID][][]records.Record
	flushed map[window.PaneID][]PaneInput
	// group accumulates undersized panes, encoded, awaiting a shared file.
	groupPanes []window.PaneID
	groupData  map[window.PaneID][]byte
	// flushedThrough is the unit bound below which all data has been
	// flushed; late records are rejected.
	flushedThrough int64
	// maxTs is the newest record timestamp ever ingested (-1 before
	// any); it backs the health monitor's window-lag watermark.
	maxTs   int64
	workers int // a flush's encode width: its engine's executor width
}

// NewPacker builds a packer for one source. dir is the DFS directory
// pane files are written under.
func NewPacker(d *dfs.DFS, sourceName, dir string, frame window.Frame, plan PartitionPlan) (*Packer, error) {
	if err := frame.Spec.Validate(); err != nil {
		return nil, err
	}
	if err := plan.Validate(); err != nil {
		return nil, err
	}
	if plan.PaneUnit != frame.Pane {
		return nil, fmt.Errorf("core: plan pane unit %d does not match the frame's pane unit %d",
			plan.PaneUnit, frame.Pane)
	}
	p := &Packer{
		dfs:     d,
		name:    sourceName,
		dir:     dir,
		frame:   frame,
		plan:    plan,
		pending: make(map[window.PaneID][][]records.Record),
		flushed: make(map[window.PaneID][]PaneInput),
		maxTs:   -1,

		groupData: make(map[window.PaneID][]byte),
	}
	return p, nil
}

// SetObserver attaches the observability layer and the query name used
// to label pane-ingest events; a nil observer detaches it.
func (p *Packer) SetObserver(o *obs.Tracer, query string) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.obs = o
	p.obsQuery = query
}

// Plan returns the packer's current partition plan.
func (p *Packer) Plan() PartitionPlan {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.plan
}

// SetPlan adopts a new plan (adaptive re-planning, §3.3). It affects
// panes whose data has not started arriving; panes already buffered
// keep the granularity they were bound to.
func (p *Packer) SetPlan(plan PartitionPlan) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if err := plan.Validate(); err != nil {
		return err
	}
	if plan.PaneUnit != p.frame.Pane {
		return fmt.Errorf("core: plan pane unit %d does not match the frame's pane unit %d",
			plan.PaneUnit, p.frame.Pane)
	}
	p.plan = plan
	return nil
}

// Ingest buffers a batch of records, assigning each to its pane and
// sub-pane by timestamp. Records at or below the flushed bound are
// rejected: the data model (paper §2.1) guarantees in-order,
// non-overlapping batch files. A batch is taken in maximal runs of
// records of one (pane, sub-pane) cell, a cell's first run kept as a
// capacity-limited view that a later run appends to as a copy: the
// caller hands recs over, to be read until its panes flush and never
// written. The records ahead of a rejected one stay ingested.
func (p *Packer) Ingest(recs []records.Record) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	for i := 0; i < len(recs); {
		pane, subIdx, lo, hi, err := p.cellOf(recs[i].Ts)
		if err != nil {
			return err
		}
		newest := recs[i].Ts
		j := i + 1
		for ; j < len(recs) && recs[j].Ts >= lo && recs[j].Ts < hi; j++ {
			newest = max(newest, recs[j].Ts)
		}
		if bySub := p.pending[pane]; len(bySub[subIdx]) == 0 {
			bySub[subIdx] = recs[i:j:j]
		} else {
			bySub[subIdx] = append(bySub[subIdx], recs[i:j]...)
		}
		p.maxTs = max(p.maxTs, newest)
		i = j
	}
	return nil
}

// cellOf places a record at unit ts: its pane (bound to the plan's
// current sub-pane factor by its first record), its sub-pane, and the
// unit range [lo, hi) of acceptable records sharing both.
func (p *Packer) cellOf(ts int64) (pane window.PaneID, subIdx int, lo, hi int64, err error) {
	if ts < p.flushedThrough {
		return 0, 0, 0, 0, fmt.Errorf("core: packer %s: record at unit %d arrives after flush bound %d",
			p.name, ts, p.flushedThrough)
	}
	pane = p.frame.PaneOf(ts)
	if pane < 0 {
		return 0, 0, 0, 0, fmt.Errorf("core: packer %s: record before the unit origin (ts %d)", p.name, ts)
	}
	if _, ok := p.pending[pane]; !ok {
		p.pending[pane] = make([][]records.Record, p.plan.SubPanes)
	}
	sub := len(p.pending[pane])
	start, width := p.frame.PaneStart(pane), p.frame.Pane
	lo, hi = start, start+width
	if sub > 1 {
		// Sub-pane s holds the offsets w with w*sub/width == s.
		n := int64(sub)
		subIdx = int((ts - start) * n / width)
		lo, hi = start+(int64(subIdx)*width+n-1)/n, start+((int64(subIdx)+1)*width+n-1)/n
	}
	return pane, subIdx, max(lo, p.flushedThrough), hi, nil
}

// NewestUnit returns the exclusive upper unit bound of the newest pane
// any ingested record falls in — the packer-side watermark the health
// monitor compares against the newest pane a completed recurrence
// covered. Zero before any ingestion.
func (p *Packer) NewestUnit() int64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.maxTs < 0 {
		return 0
	}
	return p.frame.PaneEnd(p.frame.PaneOf(p.maxTs))
}

// FlushThrough writes pane files for every pane ending at or before the
// given unit bound (typically the closing window's upper edge) and
// advances the flush bound. Oversize panes (and all sub-panes) become
// their own files; undersized panes accumulate into shared group files
// of up to PanesPerFile panes, force-flushed at the bound so windows
// never wait on an incomplete group. Segments are encoded in parallel,
// then written and announced in pane order.
func (p *Packer) FlushThrough(unit int64) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if unit <= p.flushedThrough {
		return nil
	}
	var due []window.PaneID
	for pane := range p.pending {
		if p.frame.PaneEnd(pane) <= unit {
			due = append(due, pane)
		}
	}
	// Panes with no records still need (empty) representation so the
	// engine can distinguish "empty pane" from "missing data": record
	// them as flushed with no inputs.
	loPane := p.frame.PaneOf(p.flushedThrough)
	hiPane := p.frame.PaneOf(unit - 1)
	for pane := loPane; pane <= hiPane; pane++ {
		if p.frame.PaneEnd(pane) > unit {
			break
		}
		if _, havePending := p.pending[pane]; !havePending {
			if _, haveFlushed := p.flushed[pane]; !haveFlushed {
				p.flushed[pane] = []PaneInput{}
			}
		}
	}
	sort.Slice(due, func(i, j int) bool { return due[i] < due[j] })
	start := make([]int, len(due)+1) // pane i's segments are enc[start[i]:start[i+1]]
	for i, pane := range due {
		start[i+1] = start[i] + len(p.pending[pane])
	}
	enc := make([][]byte, start[len(due)])
	parallel.For(p.workers, len(due), func(i int) {
		for s, recs := range p.pending[due[i]] {
			if len(recs) > 0 {
				enc[start[i]+s] = colfmt.EncodeRecords(sortByTs(recs))
			}
		}
	})
	for i, pane := range due {
		if err := p.flushPane(pane, enc[start[i]:start[i+1]]); err != nil {
			return err
		}
	}
	// Force out any incomplete undersized group at the bound.
	if err := p.flushGroup(); err != nil {
		return err
	}
	p.flushedThrough = unit
	return nil
}

// flushPane routes one due pane, its segments encoded (nil when empty),
// to its physical representation.
func (p *Packer) flushPane(pane window.PaneID, enc [][]byte) error {
	delete(p.pending, pane)
	sub := len(enc)

	if p.plan.PanesPerFile <= 1 || sub > 1 {
		// Oversize case (or adaptively subdivided): one file per pane
		// segment, named S#P# — with a sub-pane suffix when split. Each
		// exactly-sized encode is handed to WriteAt and becomes the file.
		for s, data := range enc {
			if data == nil {
				continue
			}
			path := fmt.Sprintf("%s/%sP%d", p.dir, p.name, int64(pane))
			if sub > 1 {
				path = fmt.Sprintf("%s.%d", path, s)
			}
			availUnit := p.frame.PaneStart(pane) + (int64(s)+1)*p.frame.Pane/int64(sub)
			if s == sub-1 {
				availUnit = p.frame.PaneEnd(pane)
			}
			availAt := p.frame.At(availUnit)
			if err := p.dfs.WriteAt(path, data, availAt); err != nil {
				return err
			}
			p.addSegment(PaneInput{Input: mapreduce.WholeFile(path), Pane: pane, SubPane: s, AvailableAt: availAt},
				int64(len(data)))
		}
		if _, ok := p.flushed[pane]; !ok {
			p.flushed[pane] = []PaneInput{}
		}
		return nil
	}

	// Undersized case (never subdivided, so sub-pane 0 is the pane):
	// accumulate the pane into the current group; emit the shared file
	// when the group fills.
	p.groupPanes = append(p.groupPanes, pane)
	p.groupData[pane] = enc[0]
	if len(p.groupPanes) >= p.plan.PanesPerFile {
		return p.flushGroup()
	}
	return nil
}

// HeaderEntry is one locator row of a shared multi-pane file's header
// (§3.2): which byte range of the body holds which pane.
type HeaderEntry struct {
	Pane   int64 `json:"pane"`
	Offset int64 `json:"offset"`
	Length int64 `json:"length"`
}

// ParsePaneHeader decodes and validates a S#P<lo>_<hi> file header
// against the body it describes. A valid header is a JSON array of
// entries with strictly ascending pane ids whose byte ranges tile the
// body exactly: offsets start at 0, ranges are contiguous and
// non-overlapping, and their lengths sum to bodyLen. Anything else —
// malformed JSON, trailing garbage, duplicate or unsorted panes,
// out-of-bounds or overlapping ranges — is an error, never a panic,
// so a damaged header can never silently mis-attribute records to the
// wrong pane.
func ParsePaneHeader(hdr []byte, bodyLen int64) ([]HeaderEntry, error) {
	if bodyLen < 0 {
		return nil, fmt.Errorf("core: negative body length %d", bodyLen)
	}
	dec := json.NewDecoder(bytes.NewReader(hdr))
	var entries []HeaderEntry
	if err := dec.Decode(&entries); err != nil {
		return nil, fmt.Errorf("core: pane header: %w", err)
	}
	if dec.More() {
		return nil, fmt.Errorf("core: pane header: trailing data after entry array")
	}
	if len(entries) == 0 {
		return nil, fmt.Errorf("core: pane header: no entries")
	}
	var next int64
	for i, e := range entries {
		if e.Pane < 0 {
			return nil, fmt.Errorf("core: pane header entry %d: negative pane %d", i, e.Pane)
		}
		if i > 0 && e.Pane <= entries[i-1].Pane {
			return nil, fmt.Errorf("core: pane header entry %d: pane %d not above predecessor %d",
				i, e.Pane, entries[i-1].Pane)
		}
		if e.Length < 0 {
			return nil, fmt.Errorf("core: pane header entry %d: negative length %d", i, e.Length)
		}
		if e.Offset != next {
			return nil, fmt.Errorf("core: pane header entry %d: offset %d leaves a gap or overlap (want %d)",
				i, e.Offset, next)
		}
		next = e.Offset + e.Length
		if next > bodyLen {
			return nil, fmt.Errorf("core: pane header entry %d: range [%d,%d) exceeds body length %d",
				i, e.Offset, next, bodyLen)
		}
	}
	if next != bodyLen {
		return nil, fmt.Errorf("core: pane header covers %d of %d body bytes", next, bodyLen)
	}
	return entries, nil
}

// PaneSlice returns the body bytes a validated header attributes to
// one pane; ok is false when the header has no entry for it.
func PaneSlice(body []byte, entries []HeaderEntry, pane int64) (data []byte, ok bool) {
	for _, e := range entries {
		if e.Pane == pane {
			if e.Offset+e.Length > int64(len(body)) {
				return nil, false
			}
			return body[e.Offset : e.Offset+e.Length], true
		}
	}
	return nil, false
}

// flushGroup writes the pending undersized panes as one shared file
// named S#P<lo>_<hi> plus its header.
func (p *Packer) flushGroup() error {
	if len(p.groupPanes) == 0 {
		return nil
	}
	panes := p.groupPanes
	p.groupPanes = nil
	sort.Slice(panes, func(i, j int) bool { return panes[i] < panes[j] })
	lo, hi := panes[0], panes[len(panes)-1]
	path := fmt.Sprintf("%s/%sP%d_%d", p.dir, p.name, int64(lo), int64(hi))
	if len(panes) == 1 {
		path = fmt.Sprintf("%s/%sP%d", p.dir, p.name, int64(lo))
	}

	// Each pane becomes one self-delimiting columnar segment of the
	// shared body, so PaneSlice yields independently decodable bytes.
	// The body is sized before it is filled and handed to WriteAt.
	size := 0
	for _, pane := range panes {
		size += len(p.groupData[pane])
	}
	body := make([]byte, 0, size)
	var hdr []HeaderEntry
	for _, pane := range panes {
		start := int64(len(body))
		body = append(body, p.groupData[pane]...)
		delete(p.groupData, pane)
		hdr = append(hdr, HeaderEntry{Pane: int64(pane), Offset: start, Length: int64(len(body)) - start})
	}
	// The shared file is complete when its newest pane's data is — its
	// replication fan-out is stamped at that instant.
	if err := p.dfs.WriteAt(path, body, p.frame.At(p.frame.PaneEnd(hi))); err != nil {
		return err
	}
	hdrBytes, err := json.Marshal(hdr)
	if err != nil {
		return err
	}
	if err := p.dfs.Write(path+".hdr", hdrBytes); err != nil {
		return err
	}
	for _, h := range hdr {
		pane := window.PaneID(h.Pane)
		if h.Length == 0 {
			if _, ok := p.flushed[pane]; !ok {
				p.flushed[pane] = []PaneInput{}
			}
			continue
		}
		p.addSegment(PaneInput{
			Input: mapreduce.Input{Path: path, Offset: h.Offset, Length: h.Length}, Pane: pane,
			AvailableAt: p.frame.At(p.frame.PaneEnd(pane)), HeaderBytes: int64(len(hdrBytes)),
		}, h.Length)
	}
	return nil
}

// addSegment records one written segment of a pane and announces it to
// the decision record.
func (p *Packer) addSegment(in PaneInput, size int64) {
	p.flushed[in.Pane] = append(p.flushed[in.Pane], in)
	p.obs.Emit(in.AvailableAt, eventlog.PaneIngest, p.obsQuery, eventlog.PaneIngestData{
		Source: p.name, Pane: int64(in.Pane), SubPane: in.SubPane, Path: in.Input.Path, Bytes: size,
	})
}

// PaneInputs returns the flushed physical segments of a pane, sub-pane
// order. The second result is false if the pane has not been flushed —
// its data has not arrived or FlushThrough was not called past its end.
func (p *Packer) PaneInputs(pane window.PaneID) ([]PaneInput, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	ins, ok := p.flushed[pane]
	if !ok {
		return nil, false
	}
	out := append([]PaneInput(nil), ins...)
	sort.Slice(out, func(i, j int) bool { return out[i].SubPane < out[j].SubPane })
	return out, true
}

// PaneBytes returns the total flushed bytes of a pane.
func (p *Packer) PaneBytes(pane window.PaneID) int64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	var total int64
	for _, in := range p.flushed[pane] {
		if in.Input.Length >= 0 {
			total += in.Input.Length
		} else if sz, err := p.dfs.Size(in.Input.Path); err == nil {
			total += sz
		}
	}
	return total
}

// DropPaneFiles deletes a pane's files from DFS once no query can ever
// need them again. Shared multi-pane files are only deleted when every
// contained pane has been dropped (tracked via the header file).
func (p *Packer) DropPaneFiles(pane window.PaneID) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	ins, ok := p.flushed[pane]
	if !ok {
		return nil
	}
	for _, in := range ins {
		if in.HeaderBytes > 0 {
			continue // shared file: retained until group cleanup
		}
		if p.dfs.Exists(in.Input.Path) {
			if err := p.dfs.Delete(in.Input.Path); err != nil {
				return err
			}
		}
	}
	delete(p.flushed, pane)
	return nil
}

// sortByTs returns a pane's records in timestamp order, stably; the usual
// pane arrived in order and costs one linear check.
func sortByTs(recs []records.Record) []records.Record {
	byTs := func(a, b records.Record) int { return cmp.Compare(a.Ts, b.Ts) }
	if !slices.IsSortedFunc(recs, byTs) {
		recs = slices.Clone(recs) // recs may view a batch the packer must not write
		slices.SortStableFunc(recs, byTs)
	}
	return recs
}
