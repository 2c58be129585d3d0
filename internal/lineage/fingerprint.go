// Package lineage is Redoop's provenance store: a concurrency-safe,
// bounded derivation DAG of how every cached pane and emitted window
// was derived — which input batches (down to record-offset ranges) fed
// it, which upstream derivations it was built from, the SHA of its
// bytes, and which downstream windows consumed it. How a run executed
// (task attempts, cache copies, replicas, injected faults) is the
// tracer's record, not the store's.
//
// The store is fed exclusively from the engines' serial commit fold
// (cache registration, expiry, loss and window finalization), so its
// contents are byte-identical across -workers settings — the
// differential oracle asserts exactly that, along with structural
// closure (every resident cache entry has a derivation, every
// derivation's inputs exist or are marked expired/evicted) and a
// byte-equality recomputation of sampled panes from their claimed
// inputs.
//
// Each derivation carries the canonical *plan fingerprint* of the
// map/combine/partition/reduce lineage that produced it. The
// fingerprint is the seam a ReStore-style cross-job reuse layer
// (PAPERS.md, arxiv 1203.0061) matches against: two queries whose
// plans fingerprint identically can, in principle, share materialized
// panes.
package lineage

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"strings"

	"redoop/internal/colfmt"
	"redoop/internal/records"
)

// PlanSource describes one data source of a plan: its name, the
// cross-query cache-sharing key (empty when unshared), and the symbol
// of the map function applied to its records.
type PlanSource struct {
	Name     string
	CacheKey string
	// Map is the map function's symbol (e.g. the runtime function
	// name); "-" or "" for none.
	Map string
}

// Plan is a neutral description of a recurring query's operator
// lineage — everything that determines the bytes of a pane's reduce
// input/output given the same raw records. It deliberately lives in
// this leaf package (not internal/core) so every layer can fingerprint
// plans without import cycles.
type Plan struct {
	// WindowKind is "time" or "count".
	WindowKind string
	// WinUnits, SlideUnits and PaneUnits are the window geometry in
	// the kind's units; PaneUnits = GCD(win, slide).
	WinUnits   int64
	SlideUnits int64
	PaneUnits  int64
	// Sources in declaration order.
	Sources []PlanSource
	// Combine, Reduce, Merge and Partition are operator symbols ("-"
	// or "" when absent).
	Combine   string
	Reduce    string
	Merge     string
	Partition string
	// NumReducers fixes the partitioning arity; cached reduce inputs
	// are only aligned for equal arities (paper §4.3).
	NumReducers int
}

// canonical renders the plan as an unambiguous string: every field is
// length-prefixed so no concatenation of distinct plans collides.
func (p Plan) canonical() string {
	var b strings.Builder
	field := func(s string) {
		fmt.Fprintf(&b, "%d:%s;", len(s), s)
	}
	field(p.WindowKind)
	fmt.Fprintf(&b, "w%d|s%d|p%d;", p.WinUnits, p.SlideUnits, p.PaneUnits)
	fmt.Fprintf(&b, "srcs%d;", len(p.Sources))
	for _, s := range p.Sources {
		field(s.Name)
		field(s.CacheKey)
		field(s.Map)
	}
	field(p.Combine)
	field(p.Reduce)
	field(p.Merge)
	field(p.Partition)
	fmt.Fprintf(&b, "r%d;", p.NumReducers)
	return b.String()
}

// SHA returns the hex SHA-256 of a derivation's cached bytes ("" for
// empty data) — the figure the oracle's recomputation pass matches.
func SHA(data []byte) string {
	if len(data) == 0 {
		return ""
	}
	sum := sha256.Sum256(data)
	var buf [2 * sha256.Size]byte
	return string(hex.AppendEncode(buf[:0], sum[:]))
}

// PairsHasher computes SHA(colfmt.EncodePairs(pairs)) without building
// the segment; one kept across calls allocates only the SHA string.
type PairsHasher struct {
	h   hash.Hash
	sum [sha256.Size]byte
	s   colfmt.PairStream
}

// SHA returns the hex SHA-256 of pairs' encoded segment ("" for none).
func (p *PairsHasher) SHA(pairs []records.Pair) string {
	if len(pairs) == 0 {
		return ""
	}
	if p.h == nil {
		p.h = sha256.New()
	}
	p.h.Reset()
	p.s.WritePairs(p.h, pairs)
	var buf [2 * sha256.Size]byte
	return string(hex.AppendEncode(buf[:0], p.h.Sum(p.sum[:0])))
}

// Fingerprint returns the canonical plan fingerprint: a hex SHA-256 of
// the plan's unambiguous encoding. Equal plans always fingerprint
// equally; plans differing in any field (window geometry, source set,
// operator symbols, reducer arity) fingerprint differently up to hash
// collision. The fingerprint is stable across -workers settings,
// recurrences and runs of the same binary.
func Fingerprint(p Plan) string {
	sum := sha256.Sum256([]byte(p.canonical()))
	return hex.EncodeToString(sum[:])
}

// opCanonical renders only the plan's operator lineage plus data
// identity: window kind, per-source (CacheKey, Map) — deliberately not
// the source *name*, which is query-private labeling — and the
// combine/reduce/merge/partition symbols with the reducer arity.
// Window geometry (win, slide, pane) is excluded: two plans with equal
// opCanonical produce byte-identical pane contents for any pane range
// both materialize, which is exactly the equivalence a cross-query
// reuse index needs (geometry only decides *which* panes exist).
func (p Plan) opCanonical() string {
	var b strings.Builder
	field := func(s string) {
		fmt.Fprintf(&b, "%d:%s;", len(s), s)
	}
	b.WriteString("op;")
	field(p.WindowKind)
	fmt.Fprintf(&b, "srcs%d;", len(p.Sources))
	for _, s := range p.Sources {
		field(s.CacheKey)
		field(s.Map)
	}
	field(p.Combine)
	field(p.Reduce)
	field(p.Merge)
	field(p.Partition)
	fmt.Fprintf(&b, "r%d;", p.NumReducers)
	return b.String()
}

// OpFingerprint returns the geometry-independent operator fingerprint:
// a hex SHA-256 over the plan's operator lineage and data identity
// (source CacheKeys), excluding win/slide/pane units and source names.
// Two queries with equal OpFingerprints over the same shared stream
// derive byte-identical pane caches for any pane unit they share — the
// matching key of the ReStore-style cross-query reuse index
// (internal/reuse).
func OpFingerprint(p Plan) string {
	sum := sha256.Sum256([]byte(p.opCanonical()))
	return hex.EncodeToString(sum[:])
}
