package oracle

import (
	"fmt"

	"redoop/internal/colfmt"
	"redoop/internal/lineage"
	"redoop/internal/mapreduce"
	"redoop/internal/records"
)

// auditSample bounds the per-recurrence provenance recompute: the
// newest auditSample unexpired pane derivations are replayed from their
// lineage-claimed raw records each Check.
const auditSample = 4

// checkLineage machine-checks the provenance store against the engine:
//
//   - structural closure (lineage.Closure) over the caches the node
//     registries currently hold resident — every resident entry must
//     have a live derivation, every claimed input must be retained or
//     legitimately evicted, and plan fingerprints must be injective;
//   - a sampled derivation audit: the newest pane derivations are
//     recomputed strictly from the record ranges their lineage claims
//     (nothing else), and the result must hash to the SHA the store
//     recorded at build time. A derivation that passes proves its
//     claimed inputs alone reproduce the cached bytes.
//
// The pass is a no-op when the engine has no lineage store attached.
func (o *Oracle) checkLineage(v *Verdict) {
	lin := o.eng.Lineage()
	if lin == nil {
		return
	}
	ctrl := o.eng.Controller()
	var resident []string
	for _, id := range o.eng.MR().Cluster.NodeIDs() {
		reg := ctrl.Registry(id)
		if reg == nil {
			continue
		}
		for _, e := range reg.Entries() {
			if e.Expired || !reg.Has(e.PID, e.Type) {
				continue
			}
			resident = append(resident, lineage.DerivID(e.PID, int(e.Type)))
		}
	}
	for _, bad := range lin.Closure(resident) {
		v.Violations = append(v.Violations, "lineage: "+bad)
	}
	o.auditDerivations(lin, v)
}

// auditDerivations replays the newest pane derivations from their
// claimed raw records. Aggregations audit pane routs (reduce output =
// the bytes windows are finalized from); joins audit pane rins (the
// sorted per-partition map output both sides shuffle from). Both forms
// are exactly what the engine caches, so equality is byte-level.
func (o *Oracle) auditDerivations(lin *lineage.Store, v *Verdict) {
	kind := "pane-rout"
	if len(o.frames) > 1 {
		kind = "pane-rin"
	}
	name := o.eng.AccountName()
	snap := lin.Snapshot()
	audited := 0
	for i := len(snap.Derivations) - 1; i >= 0 && audited < auditSample; i-- {
		d := snap.Derivations[i]
		if d.Kind != kind || d.Expired || d.Query != name {
			continue
		}
		batches, ok := o.claimsOf(lin, d)
		if !ok {
			continue
		}
		recs, skip, err := o.claimedRecords(batches)
		if err != nil {
			v.Violations = append(v.Violations, fmt.Sprintf("lineage: %s: %v", d.ID, err))
			audited++
			continue
		}
		if skip {
			continue // claims reach below the oracle's batch retention
		}
		audited++
		src := o.sourceIndex(batches)
		got := lineage.SHA(o.recomputePane(src, recs, d.Kind, d.Part))
		if got != d.SHA {
			v.Violations = append(v.Violations, fmt.Sprintf(
				"lineage: %s: bytes recomputed from claimed inputs hash %.12s but the store recorded %.12s",
				d.ID, got, d.SHA))
		}
	}
}

// claimsOf resolves a derivation's raw-input claims: pane rins carry
// them directly; an aggregation pane rout claims records through its
// rin input derivation.
func (o *Oracle) claimsOf(lin *lineage.Store, d lineage.Derivation) ([]lineage.BatchRef, bool) {
	if len(d.Batches) > 0 {
		return d.Batches, true
	}
	for _, in := range d.Inputs {
		up, ok := lin.Lookup(in.ID)
		if !ok {
			return nil, false // evicted upstream: nothing to replay
		}
		if len(up.Batches) > 0 {
			return up.Batches, true
		}
	}
	return nil, false
}

// sourceIndex maps the claims' source name back to its query source
// ordinal (claims of one derivation always share a source).
func (o *Oracle) sourceIndex(batches []lineage.BatchRef) int {
	for i, s := range o.q.Sources {
		if s.Name == batches[0].Source {
			return i
		}
	}
	return 0
}

// claimedRecords gathers exactly the record ranges the claims name,
// in claim order. skip=true means a claim reaches below the oracle's
// retained batches (legitimately pruned — not auditable); an error
// means the claim is structurally wrong for a batch the oracle holds.
func (o *Oracle) claimedRecords(batches []lineage.BatchRef) (out []records.Record, skip bool, err error) {
	o.mu.Lock()
	defer o.mu.Unlock()
	for _, b := range batches {
		src := -1
		for i, s := range o.q.Sources {
			if s.Name == b.Source {
				src = i
				break
			}
		}
		if src < 0 {
			return nil, false, fmt.Errorf("claims batch of unknown source %q", b.Source)
		}
		idx := b.Seq - o.batchBase[src]
		if idx < 0 {
			return nil, true, nil
		}
		if idx >= len(o.batches[src]) {
			return nil, false, fmt.Errorf("claims batch %s/%d beyond the %d ingested",
				b.Source, b.Seq, o.batchBase[src]+len(o.batches[src]))
		}
		recs := o.batches[src][idx]
		for _, rng := range b.Ranges {
			if rng.Lo < 0 || rng.Hi > len(recs) || rng.Lo > rng.Hi {
				return nil, false, fmt.Errorf("claims records [%d,%d) of batch %s/%d, which has %d",
					rng.Lo, rng.Hi, b.Source, b.Seq, len(recs))
			}
			out = append(out, recs[rng.Lo:rng.Hi]...)
		}
	}
	return out, false, nil
}

// recomputePane rebuilds a pane derivation's bytes from raw records
// along the baseline path: map, filter to the derivation's partition,
// then either sort (rin — the engine spills reduce input sorted) or
// sort/group/reduce (rout — the engine caches the pane's reduce
// output).
func (o *Oracle) recomputePane(src int, recs []records.Record, kind string, part int) []byte {
	nR := o.q.NumReducers
	pf := o.q.Partition
	if pf == nil {
		pf = mapreduce.DefaultPartitioner
	}
	var w colfmt.PairWriter
	emit := mapreduce.EmitTo(&w)
	for _, rec := range recs {
		o.q.Maps[src](rec.Ts, rec.Data, emit)
	}
	var pairs []records.Pair
	for _, p := range written(&w) {
		if pf(p.Key, nR) == part {
			pairs = append(pairs, p)
		}
	}
	// Cache bytes are columnar, so the audit re-encodes with the same
	// columnar encoder the engine's cache registration uses — the SHA
	// comparison is only meaningful when both sides share the framing.
	if kind == "pane-rin" {
		sortPairs(pairs)
		return colfmt.EncodePairs(pairs)
	}
	return colfmt.EncodePairs(reduceSorted(o.q.Reduce, pairs))
}
