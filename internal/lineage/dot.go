package lineage

import (
	"fmt"
	"sort"
	"strings"
)

// TraceNode is one node of a rendered derivation DAG.
type TraceNode struct {
	ID    string `json:"id"`
	Kind  string `json:"kind"` // batch | pane-rin | pane-rout | tuple-rout | window
	Label string `json:"label"`
	// Depth is the BFS distance from the trace root (negative for
	// ancestors, positive for descendants, 0 for the root).
	Depth int `json:"depth"`
}

// TraceEdge is one directed derivation edge (producer -> consumer),
// carrying the consumer's modeled build cost for display.
type TraceEdge struct {
	From   string `json:"from"`
	To     string `json:"to"`
	CostNS int64  `json:"costNS,omitempty"`
}

// Trace is a derivation DAG rooted at one node: ancestors back to raw
// batches, descendants forward to emitted windows.
type Trace struct {
	Root  string      `json:"root"`
	Nodes []TraceNode `json:"nodes"`
	Edges []TraceEdge `json:"edges"`
}

// Trace walks the DAG around id: upstream through Inputs and Batches,
// downstream through Consumers. Returns ok=false when id is not
// retained.
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
	tr := Trace{Root: id}
	seen := map[string]bool{}
	add := func(n TraceNode) {
		if !seen[n.ID] {
			seen[n.ID] = true
			tr.Nodes = append(tr.Nodes, n)
		}
	}
	label := derivLabel
	add(TraceNode{ID: id, Kind: root.Kind, Label: label(root), Depth: 0})

	// Ancestors: BFS through inputs and batch claims.
	type qe struct {
		id    string
		depth int
	}
	queue := []qe{{id, 0}}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		d, ok := s.derivs[cur.id]
		if !ok {
			continue
		}
		for _, in := range d.Inputs {
			tr.Edges = append(tr.Edges, TraceEdge{From: in.ID, To: cur.id, CostNS: d.CostNS})
			up, ok := s.derivs[in.ID]
			if !ok {
				add(TraceNode{ID: in.ID, Kind: "evicted", Label: in.ID + " (evicted)", Depth: cur.depth - 1})
				continue
			}
			if !seen[in.ID] {
				add(TraceNode{ID: in.ID, Kind: up.Kind, Label: label(up), Depth: cur.depth - 1})
				queue = append(queue, qe{in.ID, cur.depth - 1})
			}
		}
		for _, b := range d.Batches {
			bid := BatchID(d.Query, b.Source, b.Seq)
			tr.Edges = append(tr.Edges, TraceEdge{From: bid, To: cur.id, CostNS: d.CostNS})
			if seen[bid] {
				continue
			}
			lbl := bid + " (evicted)"
			if batch, ok := s.batches[bid]; ok {
				lbl = fmt.Sprintf("batch %s/%s #%d (%d records)", batch.Query, batch.Source, batch.Seq, batch.Records)
			}
			add(TraceNode{ID: bid, Kind: "batch", Label: lbl, Depth: cur.depth - 1})
		}
	}

	// Descendants: BFS through consumers.
	queue = []qe{{id, 0}}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		d, ok := s.derivs[cur.id]
		if !ok {
			continue
		}
		for _, c := range d.Consumers {
			down, ok := s.derivs[c]
			cost := int64(0)
			if ok {
				cost = down.CostNS
			}
			tr.Edges = append(tr.Edges, TraceEdge{From: cur.id, To: c, CostNS: cost})
			if seen[c] {
				continue
			}
			if !ok {
				add(TraceNode{ID: c, Kind: "evicted", Label: c + " (evicted)", Depth: cur.depth + 1})
				continue
			}
			add(TraceNode{ID: c, Kind: down.Kind, Label: label(down), Depth: cur.depth + 1})
			queue = append(queue, qe{c, cur.depth + 1})
		}
	}

	// Deduplicate edges (a node reached from both directions would
	// re-walk its edges) and order deterministically.
	dedup := map[string]TraceEdge{}
	for _, e := range tr.Edges {
		dedup[e.From+"->"+e.To] = e
	}
	tr.Edges = tr.Edges[:0]
	keys := make([]string, 0, len(dedup))
	for k := range dedup {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		tr.Edges = append(tr.Edges, dedup[k])
	}
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
				lbl := bid + " (evicted)"
				if batch, ok := s.batches[bid]; ok {
					lbl = fmt.Sprintf("batch %s/%s #%d (%d records)",
						batch.Query, batch.Source, batch.Seq, batch.Records)
				}
				tr.Nodes = append(tr.Nodes, TraceNode{ID: bid, Kind: "batch", Label: lbl})
			}
			tr.Edges = append(tr.Edges, TraceEdge{From: bid, To: id, CostNS: d.CostNS})
		}
	}
	return tr
}

// DOT renders a trace as a Graphviz digraph.
func (t Trace) DOT() string {
	var b strings.Builder
	b.WriteString("digraph lineage {\n  rankdir=LR;\n  node [shape=box, fontsize=10];\n")
	esc := func(s string) string { return strings.ReplaceAll(s, `"`, `\"`) }
	for _, n := range t.Nodes {
		attrs := ""
		switch n.Kind {
		case "batch":
			attrs = ", style=filled, fillcolor=lightyellow"
		case "window":
			attrs = ", style=filled, fillcolor=lightblue"
		case "evicted":
			attrs = ", style=dashed"
		}
		if n.ID == t.Root {
			attrs += ", penwidth=2"
		}
		fmt.Fprintf(&b, "  %q [label=\"%s\"%s];\n", n.ID, esc(n.Label), attrs)
	}
	for _, e := range t.Edges {
		if e.CostNS > 0 {
			fmt.Fprintf(&b, "  %q -> %q [label=\"%dns\", fontsize=8];\n", e.From, e.To, e.CostNS)
		} else {
			fmt.Fprintf(&b, "  %q -> %q;\n", e.From, e.To)
		}
	}
	b.WriteString("}\n")
	return b.String()
}
