package core

import (
	"sort"

	"redoop/internal/window"
)

// This file is the live-introspection surface of the core package:
// JSON-serializable snapshots of the cache controller, the local cache
// registries, and an engine's pane inventory, taken under the
// components' own locks so the debug HTTP server can render them while
// a run is in flight.

// SignatureDump is one cache signature row (paper Table 2) as exposed
// by /debug/cache.
type SignatureDump struct {
	PID           string `json:"pid"`
	Type          string `json:"type"`
	Node          int    `json:"node"`
	Ready         string `json:"ready"`
	ReadyAtNS     int64  `json:"readyAtNS"`
	Bytes         int64  `json:"bytes"`
	DoneQueryMask []bool `json:"doneQueryMask"`
}

// RegistryRowDump is one local cache registry row (paper Table 1) plus
// the cached bytes actually present on the node (-1 when the data was
// lost, e.g. to a fault injection).
type RegistryRowDump struct {
	PID     string `json:"pid"`
	Type    string `json:"type"`
	Bytes   int64  `json:"bytes"`
	Expired bool   `json:"expired"`
}

// RegistryDump is one task node's local cache registry.
type RegistryDump struct {
	Node        int               `json:"node"`
	CachedBytes int64             `json:"cachedBytes"`
	Entries     []RegistryRowDump `json:"entries"`
}

// ControllerDump is the window-aware cache controller's full state:
// registered queries (doneQueryMask bit order), live signatures and
// every attached node registry.
type ControllerDump struct {
	Queries    []string        `json:"queries"`
	Signatures []SignatureDump `json:"signatures"`
	Registries []RegistryDump  `json:"registries"`
}

// Dump snapshots the controller for the debug server. The signature rows
// are copied while the lock is held: MarkQueryDone, SetReady and
// Register write a signature's fields under it.
func (c *Controller) Dump() ControllerDump {
	c.mu.Lock()
	d := ControllerDump{Queries: append([]string(nil), c.queries...)}
	for _, s := range c.sigs {
		d.Signatures = append(d.Signatures, SignatureDump{
			PID:           s.PID,
			Type:          s.Type.String(),
			Node:          s.NID,
			Ready:         s.Ready.String(),
			ReadyAtNS:     int64(s.ReadyAt),
			Bytes:         s.Bytes,
			DoneQueryMask: s.DoneMask(),
		})
	}
	regs := make([]*Registry, 0, len(c.registries))
	for _, r := range c.registries {
		regs = append(regs, r)
	}
	c.mu.Unlock()

	sort.Slice(d.Signatures, func(i, j int) bool {
		a, b := d.Signatures[i], d.Signatures[j]
		if a.PID != b.PID {
			return a.PID < b.PID
		}
		return a.Type < b.Type
	})
	sort.Slice(regs, func(i, j int) bool { return regs[i].NodeID() < regs[j].NodeID() })

	for _, r := range regs {
		rd := RegistryDump{Node: r.NodeID(), CachedBytes: r.CachedBytes()}
		for _, e := range r.Entries() {
			rd.Entries = append(rd.Entries, RegistryRowDump{
				PID:     e.PID,
				Type:    e.Type.String(),
				Bytes:   r.Size(e.PID, e.Type),
				Expired: e.Expired,
			})
		}
		d.Registries = append(d.Registries, rd)
	}
	return d
}

// PaneSegmentDump is one physical segment of a flushed pane.
type PaneSegmentDump struct {
	Path        string `json:"path"`
	Offset      int64  `json:"offset"`
	Length      int64  `json:"length"`
	SubPane     int    `json:"subPane"`
	AvailableNS int64  `json:"availableAtNS"`
	HeaderBytes int64  `json:"headerBytes,omitempty"`
}

// PaneDump is one flushed pane's physical layout.
type PaneDump struct {
	Pane     int64             `json:"pane"`
	Bytes    int64             `json:"bytes"`
	Segments []PaneSegmentDump `json:"segments"`
}

// FlushedDump snapshots every flushed pane (ascending), with its
// physical segments in sub-pane order.
func (p *Packer) FlushedDump() []PaneDump {
	p.mu.Lock()
	defer p.mu.Unlock()
	ids := make([]window.PaneID, 0, len(p.flushed))
	for id := range p.flushed {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	out := make([]PaneDump, 0, len(ids))
	for _, id := range ids {
		pd := PaneDump{Pane: int64(id)}
		segs := append([]PaneInput(nil), p.flushed[id]...)
		sort.Slice(segs, func(i, j int) bool { return segs[i].SubPane < segs[j].SubPane })
		for _, in := range segs {
			length := in.Input.Length
			if length < 0 {
				if sz, err := p.dfs.Size(in.Input.Path); err == nil {
					length = sz
				}
			}
			pd.Bytes += length
			pd.Segments = append(pd.Segments, PaneSegmentDump{
				Path:        in.Input.Path,
				Offset:      in.Input.Offset,
				Length:      length,
				SubPane:     in.SubPane,
				AvailableNS: int64(in.AvailableAt),
				HeaderBytes: in.HeaderBytes,
			})
		}
		out = append(out, pd)
	}
	return out
}

// SourceDump is one data source's partition plan and pane inventory as
// exposed by /debug/panes. Shared sources report their plan but not a
// pane listing (the hub owns the physical files).
type SourceDump struct {
	Name         string        `json:"name"`
	Shared       bool          `json:"shared"`
	Plan         PartitionPlan `json:"plan"`
	ExpiredBound int64         `json:"expiredBound"`
	Panes        []PaneDump    `json:"panes,omitempty"`
}

// EngineDump is one engine's live execution state.
type EngineDump struct {
	Query          string       `json:"query"`
	NextRecurrence int          `json:"nextRecurrence"`
	Proactive      bool         `json:"proactive"`
	Adaptive       bool         `json:"adaptive"`
	Homes          map[int]int  `json:"homes"`
	Matrix         string       `json:"matrix"`
	Sources        []SourceDump `json:"sources"`
}

// Dump snapshots the engine's partition plans, pane inventories, home
// assignments and cache status matrix for the debug server.
func (e *Engine) Dump() EngineDump {
	e.mu.Lock()
	next := e.next
	proactive := e.proactive
	plans := append([]PartitionPlan(nil), e.plans...)
	bounds := append([]window.PaneID(nil), e.expiredBound...)
	e.mu.Unlock()

	d := EngineDump{
		Query:          e.query.Name,
		NextRecurrence: next,
		Proactive:      proactive,
		Adaptive:       e.adaptive,
		Homes:          e.sched.Homes(),
		Matrix:         e.matrix.String(),
	}
	for i, src := range e.query.Sources {
		sd := SourceDump{
			Name:         src.Name,
			Shared:       e.shared[i],
			Plan:         plans[i],
			ExpiredBound: int64(bounds[i]),
		}
		if pk := e.packers[i]; pk != nil {
			sd.Panes = pk.FlushedDump()
		}
		d.Sources = append(d.Sources, sd)
	}
	return d
}
