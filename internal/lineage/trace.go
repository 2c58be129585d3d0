package lineage

import (
	"fmt"
	"sort"
)

// TraceNode is one node of a rendered derivation DAG.
type TraceNode struct {
	ID string `json:"id"`
	// Key is a derivation node's key (Store.Lookup); zero for a batch.
	Key   Key    `json:"-"`
	Kind  string `json:"kind"` // batch | evicted | pane-rin | pane-rout | tuple-rout | window
	Label string `json:"label"`
	// Depth is the BFS distance back from the trace root: 0 for the
	// root and every Graph node, negative for ancestors.
	Depth int `json:"depth"`
}

// TraceEdge is one directed derivation edge (producer -> consumer),
// carrying the consumer's modeled build cost for display.
type TraceEdge struct {
	From   string `json:"from"`
	To     string `json:"to"`
	CostNS int64  `json:"costNS,omitempty"`
}

// Trace is a derivation DAG: the ancestors of one root back to raw
// batches (Store.Trace), or the whole retained DAG with no root
// (Store.Graph).
type Trace struct {
	Root  string      `json:"root"`
	Nodes []TraceNode `json:"nodes"`
	Edges []TraceEdge `json:"edges"`
}

// Trace walks the DAG upstream from the derivation k names, through
// Inputs and Batches, with its edges ordered by producer and consumer
// ID. Returns ok=false when k is not retained.
func (s *Store) Trace(k Key) (Trace, bool) {
	if s == nil {
		return Trace{}, false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	root, ok := s.lookupLocked(k)
	if !ok {
		return Trace{}, false
	}
	id := k.ID()
	tr := Trace{Root: id, Nodes: []TraceNode{{ID: id, Key: k, Kind: root.Kind, Label: derivLabel(root)}}}
	seen := map[string]bool{id: true}
	// Only retained derivations are queued, so each has a record.
	type qe struct {
		id    string
		d     *Derivation
		depth int
	}
	for queue := []qe{{id, root, 0}}; len(queue) > 0; queue = queue[1:] {
		d, depth := queue[0].d, queue[0].depth-1
		for _, in := range d.Inputs {
			inID := in.Key.ID()
			tr.Edges = append(tr.Edges, TraceEdge{From: inID, To: queue[0].id, CostNS: d.CostNS})
			if seen[inID] {
				continue
			}
			seen[inID] = true
			n := TraceNode{ID: inID, Key: in.Key, Kind: "evicted", Label: inID + " (evicted)", Depth: depth}
			if up, ok := s.lookupLocked(in.Key); ok {
				n.Kind, n.Label = up.Kind, derivLabel(up)
				queue = append(queue, qe{inID, up, depth})
			}
			tr.Nodes = append(tr.Nodes, n)
		}
		for _, b := range d.Batches {
			bk := batchKey{d.Query, b.Source, b.Seq}
			bid := BatchID(d.Query, b.Source, b.Seq)
			tr.Edges = append(tr.Edges, TraceEdge{From: bid, To: queue[0].id, CostNS: d.CostNS})
			if !seen[bid] {
				seen[bid] = true
				tr.Nodes = append(tr.Nodes, s.batchNodeLocked(bk, bid, depth))
			}
		}
	}
	sort.Slice(tr.Edges, func(i, j int) bool {
		a, b := tr.Edges[i], tr.Edges[j]
		return a.From+"->"+a.To < b.From+"->"+b.To
	})
	return tr, true
}

// derivLabel is the human-readable one-liner traces render per node.
func derivLabel(d *Derivation) string {
	state := "resident"
	if d.Expired {
		state = "expired"
	}
	return fmt.Sprintf("%s %s r%d pane %d part %d (%d B, builds %d, %s)",
		d.Kind, d.Query, d.Recurrence, d.Pane, d.Part, d.Bytes, d.Builds, state)
}

// batchNodeLocked is raw batch bk's node, bid its BatchID; a batch the
// store no longer retains is labelled evicted.
func (s *Store) batchNodeLocked(bk batchKey, bid string, depth int) TraceNode {
	lbl := bid + " (evicted)"
	if b, ok := s.batches[bk]; ok {
		lbl = fmt.Sprintf("batch %s/%s #%d (%d records)", b.Query, b.Source, b.Seq, b.Records)
	}
	return TraceNode{ID: bid, Kind: "batch", Label: lbl, Depth: depth}
}

// Graph renders the whole retained DAG as a Trace (no root): every
// retained derivation, then the batches they claim as batch nodes.
// Derivation-to-derivation edges are kept only between retained nodes.
func (s *Store) Graph() Trace {
	if s == nil {
		return Trace{}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	var tr Trace
	ids := make([]string, s.live)
	for i := range s.live {
		d := s.nth(i)
		ids[i] = d.Key.ID()
		tr.Nodes = append(tr.Nodes, TraceNode{ID: ids[i], Key: d.Key, Kind: d.Kind, Label: derivLabel(d)})
	}
	seenBatch := map[string]bool{}
	for i := range s.live {
		d := s.nth(i)
		for _, in := range d.Inputs {
			if seq, ok := s.index[in.Key]; ok {
				tr.Edges = append(tr.Edges, TraceEdge{From: ids[s.pos(seq)], To: ids[i], CostNS: d.CostNS})
			}
		}
		for _, b := range d.Batches {
			bk := batchKey{d.Query, b.Source, b.Seq}
			bid := BatchID(d.Query, b.Source, b.Seq)
			if !seenBatch[bid] {
				seenBatch[bid] = true
				tr.Nodes = append(tr.Nodes, s.batchNodeLocked(bk, bid, 0))
			}
			tr.Edges = append(tr.Edges, TraceEdge{From: bid, To: ids[i], CostNS: d.CostNS})
		}
	}
	return tr
}
