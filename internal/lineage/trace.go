package lineage

import (
	"fmt"
	"sort"
)

// TraceNode is one node of a rendered derivation DAG.
type TraceNode struct {
	ID    string `json:"id"`
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

// Trace walks the DAG upstream from id, through Inputs and Batches,
// with its edges ordered by producer and consumer ID. Returns ok=false
// when id is not retained.
func (s *Store) Trace(id string) (Trace, bool) {
	if s == nil {
		return Trace{}, false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	root, ok := s.derivs[id]
	if !ok {
		return Trace{}, false
	}
	tr := Trace{Root: id, Nodes: []TraceNode{{ID: id, Kind: root.Kind, Label: derivLabel(root)}}}
	seen := map[string]bool{id: true}
	// Only retained derivations are queued, so each has a record.
	type qe struct {
		d     *Derivation
		depth int
	}
	for queue := []qe{{root, 0}}; len(queue) > 0; queue = queue[1:] {
		d, depth := queue[0].d, queue[0].depth-1
		for _, in := range d.Inputs {
			tr.Edges = append(tr.Edges, TraceEdge{From: in.ID, To: d.ID, CostNS: d.CostNS})
			if seen[in.ID] {
				continue
			}
			seen[in.ID] = true
			n := TraceNode{ID: in.ID, Kind: "evicted", Label: in.ID + " (evicted)", Depth: depth}
			if up, ok := s.derivs[in.ID]; ok {
				n.Kind, n.Label = up.Kind, derivLabel(up)
				queue = append(queue, qe{up, depth})
			}
			tr.Nodes = append(tr.Nodes, n)
		}
		for _, b := range d.Batches {
			bid := BatchID(d.Query, b.Source, b.Seq)
			tr.Edges = append(tr.Edges, TraceEdge{From: bid, To: d.ID, CostNS: d.CostNS})
			if !seen[bid] {
				seen[bid] = true
				tr.Nodes = append(tr.Nodes, s.batchNodeLocked(bid, depth))
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

// batchNodeLocked is raw batch bid's node; a batch the store no longer
// retains is labelled evicted.
func (s *Store) batchNodeLocked(bid string, depth int) TraceNode {
	lbl := bid + " (evicted)"
	if b, ok := s.batches[bid]; ok {
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
	for _, id := range s.order {
		d := s.derivs[id]
		tr.Nodes = append(tr.Nodes, TraceNode{ID: id, Kind: d.Kind, Label: derivLabel(d)})
	}
	seenBatch := map[string]bool{}
	for _, id := range s.order {
		d := s.derivs[id]
		for _, in := range d.Inputs {
			if _, ok := s.derivs[in.ID]; ok {
				tr.Edges = append(tr.Edges, TraceEdge{From: in.ID, To: id, CostNS: d.CostNS})
			}
		}
		for _, b := range d.Batches {
			bid := BatchID(d.Query, b.Source, b.Seq)
			if !seenBatch[bid] {
				seenBatch[bid] = true
				tr.Nodes = append(tr.Nodes, s.batchNodeLocked(bid, 0))
			}
			tr.Edges = append(tr.Edges, TraceEdge{From: bid, To: id, CostNS: d.CostNS})
		}
	}
	return tr
}
