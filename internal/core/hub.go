package core

import (
	"fmt"
	"sync"

	"redoop/internal/dfs"
	"redoop/internal/obs"
	"redoop/internal/records"
	"redoop/internal/window"
)

// SourceHub owns data sources shared by several recurring queries: one
// Dynamic Data Packer packs each shared source once, at the pane
// granularity of its first consumer, and every consuming query reads
// its own (coarser or equal) panes as ranges of the shared ones. This
// operationalizes the Semantic Analyzer's multi-query planning (§3.1:
// "a sequence of recurring queries with different window constraints"
// over one source) — batches are ingested once, pane files exist once,
// and the reduce-input cache sharing of the controller's doneQueryMask
// layers on top.
//
// Pane files of a shared source are garbage-collected only when every
// consumer has released them.
type SourceHub struct {
	dfs       *dfs.DFS
	blockSize int64

	mu      sync.Mutex
	obs     *obs.Tracer
	sources map[string]*sharedSource
}

type sharedSource struct {
	key    string
	packer *Packer
	pane   int64
	// bounds tracks, per consumer, the lowest shared pane it may
	// still need; panes below every bound are dropped.
	bounds  map[int]window.PaneID
	nextCID int
	dropped window.PaneID
}

// NewSourceHub builds a hub over the given DFS; blockSize feeds the
// packing decision of Algorithm 1.
func NewSourceHub(d *dfs.DFS, blockSize int64) *SourceHub {
	return &SourceHub{dfs: d, blockSize: blockSize, sources: make(map[string]*sharedSource)}
}

// Share declares a shared source under `key`. spec fixes the shared
// pane granularity (its GCD(win, slide)); consumers whose own pane is
// a multiple of it can attach. Declaring an existing key with a
// different granularity is an error. rate feeds Algorithm 1's file
// packing.
func (h *SourceHub) Share(key, name string, spec window.Spec, rate float64) error {
	if key == "" {
		return fmt.Errorf("core: shared source needs a key")
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	pane := spec.PaneUnit()
	if existing, ok := h.sources[key]; ok {
		if existing.pane != pane {
			return fmt.Errorf("core: shared source %q already declared with pane %d (got %d)",
				key, existing.pane, pane)
		}
		return nil
	}
	analyzer, err := NewAnalyzer(h.blockSize)
	if err != nil {
		return err
	}
	frame := window.FrameOf(spec)
	plan, err := analyzer.PlanFrame(frame, rate)
	if err != nil {
		return err
	}
	pk, err := NewPacker(h.dfs, name, "/redoop/shared/"+key, frame, plan)
	if err != nil {
		return err
	}
	if h.obs != nil {
		pk.SetObserver(h.obs, "shared/"+key)
	}
	h.sources[key] = &sharedSource{
		key:    key,
		packer: pk,
		pane:   pane,
		bounds: make(map[int]window.PaneID),
	}
	return nil
}

// SetObserver attaches the observability layer to the hub and every
// shared source's packer (present and future); shared pane-ingest
// events are labeled "shared/<key>" since no single query owns them.
func (h *SourceHub) SetObserver(o *obs.Tracer) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.obs = o
	for key, src := range h.sources {
		src.packer.SetObserver(o, "shared/"+key)
	}
}

// Has reports whether a shared source exists under key.
func (h *SourceHub) Has(key string) bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	_, ok := h.sources[key]
	return ok
}

// Ingest feeds a batch into a shared source — exactly once per batch,
// regardless of how many queries consume it (handed over: Packer.Ingest).
func (h *SourceHub) Ingest(key string, recs []records.Record) error {
	h.mu.Lock()
	src, ok := h.sources[key]
	h.mu.Unlock()
	if !ok {
		return fmt.Errorf("core: no shared source %q", key)
	}
	return src.packer.Ingest(recs)
}

// attach registers a consumer reading the shared source at its own
// pane granularity (which must be a multiple of the shared pane) and
// returns its view; the packer encodes as wide as its widest consumer.
func (h *SourceHub) attach(key string, consumerPane int64, workers int) (*sharedView, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	src, ok := h.sources[key]
	if !ok {
		return nil, fmt.Errorf("core: no shared source %q", key)
	}
	if consumerPane <= 0 || consumerPane%src.pane != 0 {
		return nil, fmt.Errorf("core: consumer pane %d is not a multiple of shared source %q's pane %d",
			consumerPane, key, src.pane)
	}
	src.packer.mu.Lock()
	src.packer.workers = max(src.packer.workers, workers)
	src.packer.mu.Unlock()
	cid := src.nextCID
	src.nextCID++
	src.bounds[cid] = 0
	return &sharedView{hub: h, src: src, cid: cid, k: consumerPane / src.pane}, nil
}

// release advances a consumer's GC bound (in shared panes) and drops
// every shared pane below all consumers' bounds.
func (h *SourceHub) release(src *sharedSource, cid int, throughShared window.PaneID) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if throughShared > src.bounds[cid] {
		src.bounds[cid] = throughShared
	}
	min := throughShared
	for _, b := range src.bounds {
		if b < min {
			min = b
		}
	}
	for p := src.dropped; p < min; p++ {
		_ = src.packer.DropPaneFiles(p)
	}
	if min > src.dropped {
		src.dropped = min
	}
}

// sharedView adapts a shared source to one consumer's pane
// granularity: consumer pane p covers shared panes [p·k, (p+1)·k).
type sharedView struct {
	hub *SourceHub
	src *sharedSource
	cid int
	k   int64
}

// Ingest is rejected: shared sources are fed through the hub exactly
// once, not per consumer.
func (v *sharedView) Ingest([]records.Record) error {
	return fmt.Errorf("core: source %q is shared; ingest it once via the hub", v.src.key)
}

// FlushThrough flushes the shared packer (monotonic; a consumer ahead
// of its siblings advances the bound for all).
func (v *sharedView) FlushThrough(unit int64) error {
	return v.src.packer.FlushThrough(unit)
}

// PaneInputs aggregates the consumer pane's shared segments.
func (v *sharedView) PaneInputs(p window.PaneID) ([]PaneInput, bool) {
	var out []PaneInput
	base := window.PaneID(int64(p) * v.k)
	for i := int64(0); i < v.k; i++ {
		ins, ok := v.src.packer.PaneInputs(base + window.PaneID(i))
		if !ok {
			return nil, false
		}
		for _, in := range ins {
			in.Pane = p // re-expressed in the consumer's pane ids
			out = append(out, in)
		}
	}
	return out, true
}

// NewestUnit returns the shared packer's ingestion watermark (shared
// panes live on the same unit axis as every consumer's).
func (v *sharedView) NewestUnit() int64 { return v.src.packer.NewestUnit() }

// PaneBytes sums the consumer pane's shared bytes.
func (v *sharedView) PaneBytes(p window.PaneID) int64 {
	var total int64
	base := window.PaneID(int64(p) * v.k)
	for i := int64(0); i < v.k; i++ {
		total += v.src.packer.PaneBytes(base + window.PaneID(i))
	}
	return total
}

// DropPaneFiles releases the consumer's claim on the pane; the shared
// files are deleted only when every consumer has released them.
func (v *sharedView) DropPaneFiles(p window.PaneID) error {
	v.hub.release(v.src, v.cid, window.PaneID((int64(p)+1)*v.k))
	return nil
}

// Plan returns the shared packer's plan.
func (v *sharedView) Plan() PartitionPlan { return v.src.packer.Plan() }

// SetPlan is rejected: adaptive sub-pane re-planning would change the
// physical packing under every consumer, so shared sources keep their
// declared granularity (consumers still go proactive against whole
// pane arrivals).
func (v *sharedView) SetPlan(PartitionPlan) error {
	return fmt.Errorf("core: shared source %q cannot be re-planned per consumer", v.src.key)
}
