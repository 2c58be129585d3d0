package core

import (
	"fmt"

	"redoop/internal/mapreduce"
	"redoop/internal/reuse"
	"redoop/internal/simtime"
	"redoop/internal/window"
)

// Cross-query pane reuse (engine side). The reuse index
// (internal/reuse) advertises pane reduce-output caches by operator
// fingerprint; this file holds the engine's two halves of the
// protocol:
//
//   - publish: every freshly built pane rout of an eligible query is
//     advertised by the reuse fold (consumers.go) as its serial cache
//     registration commits;
//   - probe: before computing a pane, the engine asks for an exact hit
//     (same pane unit — copy the producer's bytes) or a subsumption
//     hit (finer unit dividing ours — compose with Merge, the same
//     decomposition contract the proactive sub-pane path relies on).
//
// All of it runs at the serial per-pane commit point inside
// ensurePane (the ladder's second rung), so index contents and reuse
// decisions are byte-identical across -workers settings.

// reuseEligible reports whether this engine participates in cross-query
// reuse: an index is attached, reuse is not ablated away, and the query
// is a single-source aggregation over a CacheKey-shared stream with a
// Merge. The CacheKey is the data-identity anchor — without it, two
// queries with identical plans over *different* private streams would
// falsely match. Joins never publish or probe: tuple outputs depend on
// the pane pairing, not a single pane.
func (e *Engine) reuseEligible() bool {
	return e.reuseIdx != nil && !e.noReuse &&
		len(e.query.Sources) == 1 && e.query.Sources[0].CacheKey != "" &&
		e.query.Merge != nil
}

// verifyReuseEntry cross-checks one advertised entry against the
// controller and the node registry: the signature must still vouch for
// cache-available bytes that are really resident. A stale
// advertisement is retracted and reported as unusable — the *producer*
// discovers the §5 loss at its own next lookup; a consumer never rolls
// back another query's signature.
func (e *Engine) verifyReuseEntry(en reuse.Entry) (cacheRef, bool) {
	typ := CacheType(en.Type)
	sig, ok := e.ctrl.Lookup(en.PID, typ)
	if ok && sig.Ready == CacheAvailable {
		if reg := e.ctrl.Registry(sig.NID); reg != nil && reg.Has(en.PID, typ) {
			return cacheRef{pid: en.PID, typ: typ, node: sig.NID, readyAt: sig.ReadyAt, bytes: sig.Bytes}, true
		}
	}
	e.commit(commit{kind: kindStale, at: e.curTrigger, pid: en.PID, typ: typ})
	return cacheRef{}, false
}

// verifyReuseEntries verifies ens in order (verifyReuseEntry), stopping
// at the first that is unusable.
func (e *Engine) verifyReuseEntries(ens []reuse.Entry) ([]cacheRef, bool) {
	prods := make([]cacheRef, len(ens))
	for i, en := range ens {
		ref, ok := e.verifyReuseEntry(en)
		if !ok {
			return nil, false
		}
		prods[i] = ref
	}
	return prods, true
}

// tryReuseAggPane probes the reuse index for pane p and, on a hit,
// materializes the consumer's own per-partition reduce-output caches,
// refs, from the producer's — a copy task for an exact hit, a Merge
// task over the finer panes for a subsumption hit. Returns hit=false
// (and no side effects beyond retracting stale advertisements) when the
// index has nothing usable, sending the caller down the ordinary
// recovery ladder.
func (e *Engine) tryReuseAggPane(p window.PaneID, trigger simtime.Time, refs []cacheRef, stats *mapreduce.Stats) (bool, error) {
	if !e.reuseEligible() {
		return false, nil
	}
	R := e.query.NumReducers
	unit := int64(e.frames[0].Pane)

	if entries, ok := e.reuseIdx.ProbeExact(e.opFP, unit, int64(p), R, e.acctName); ok {
		if prods, ok := e.verifyReuseEntries(entries); ok {
			return true, e.copyReusedPane(p, trigger, entries, prods, refs, stats)
		}
	}
	if rows, _, ok := e.reuseIdx.ProbeSubsume(e.opFP, unit, int64(p), R, e.acctName); ok {
		prods := make([][]cacheRef, R)
		valid := true
		for part := 0; valid && part < R; part++ {
			prods[part], valid = e.verifyReuseEntries(rows[part])
		}
		if valid {
			return true, e.composeReusedPane(p, trigger, rows, prods, refs, stats)
		}
	}
	return false, nil
}

// copyReusedPane satisfies an exact hit: each partition's bytes are
// read from the producer's cache and registered under the consumer's
// own pane-rout PID. The consumer credits the producer's recompute
// cost as a cross-query saving (net of the copy's load, via the usual
// CacheLoaded adjustment) and records the new derivation as a reuse
// edge — its input is the producer's derivation, not raw batches.
func (e *Engine) copyReusedPane(p window.PaneID, trigger simtime.Time, entries []reuse.Entry, prods, refs []cacheRef, stats *mapreduce.Stats) error {
	q := e.query
	for part := range refs {
		en, prod := entries[part], prods[part]
		routPID := q.routPanePID(p, part)
		routMeta := cacheMeta{recompute: simtime.Duration(en.RecomputeNS),
			pane: p, part: part, inputs: prods[part : part+1]}
		if prod.bytes == 0 {
			refs[part] = e.registerReused(routPID, prod, prod.node, simtime.Max(prod.readyAt, trigger), nil, routMeta, "exact")
			continue
		}
		data, ok := e.ctrl.Registry(prod.node).Get(prod.pid, ReduceOutput)
		if !ok {
			return fmt.Errorf("core: reused cache %s lost from node %d mid-recurrence", prod.pid, prod.node)
		}
		e.commit(commit{kind: kindCrossHit, at: e.curTrigger, pid: prod.pid, typ: prod.typ})
		ct := e.runCacheTask(func() string { return fmt.Sprintf("reuse pane %d p%d", int64(p), part) }, phaseReduce,
			trigger, prods[part:part+1], e.mr.Cost.DiskWrite(prod.bytes), stats)
		stats.BytesCacheRead += prod.bytes
		routMeta.span = ct.span
		refs[part] = e.registerReused(routPID, prod, ct.node, ct.end, data, routMeta, "exact")
	}
	return nil
}

// composeReusedPane satisfies a subsumption hit: each partition's
// finer pane routs that tile pane p are loaded and folded with the query's Merge
// — the same partial-aggregate decomposition the proactive sub-pane
// path applies — into the consumer's pane rout. Only single-source
// queries with a Merge reach here (reuseEligible), and the engine
// already requires Merge∘Reduce ≡ Reduce over concatenated inputs for
// such queries, so composed bytes equal recomputed bytes.
func (e *Engine) composeReusedPane(p window.PaneID, trigger simtime.Time, rows [][]reuse.Entry, prods [][]cacheRef, refs []cacheRef, stats *mapreduce.Stats) error {
	q := e.query
	live := make([][]cacheRef, len(refs))
	for part := range live {
		for _, prod := range prods[part] {
			if prod.bytes != 0 {
				live[part] = append(live[part], prod)
			}
		}
	}
	composed, err := e.reduceCached(q.Merge, live)
	if err != nil {
		return err
	}
	for part, caches := range live {
		var inBytes int64
		var recompute simtime.Duration
		readyAt := trigger
		for i, prod := range prods[part] {
			recompute += simtime.Duration(rows[part][i].RecomputeNS)
			if prod.readyAt > readyAt {
				readyAt = prod.readyAt
			}
			if prod.bytes == 0 {
				continue
			}
			e.commit(commit{kind: kindCrossHit, at: e.curTrigger, pid: prod.pid, typ: prod.typ})
			inBytes += prod.bytes
		}
		routPID := q.routPanePID(p, part)
		routMeta := cacheMeta{recompute: recompute, pane: p, part: part, inputs: prods[part]}
		if len(caches) == 0 {
			refs[part] = e.registerReused(routPID, prods[part][0], prods[part][0].node, readyAt, nil, routMeta, "subsume")
			continue
		}
		outData := composed[part].data
		ct := e.runCacheTask(func() string { return fmt.Sprintf("reuse-merge pane %d p%d", int64(p), part) }, phaseReduce,
			trigger, caches, e.mr.Cost.MergeTask(inBytes, int64(len(outData))), stats)
		stats.BytesCacheRead += inBytes
		routMeta.span = ct.span
		refs[part] = e.registerReused(routPID, caches[0], ct.node, ct.end, outData, routMeta, "subsume")
	}
	return nil
}

// registerReused registers pane output routPID as materialized from
// another query's caches (meta.inputs) and commits the reuse edge to
// prod, the producer it is attributed to. mode is "exact" or "subsume".
func (e *Engine) registerReused(routPID string, prod cacheRef, node int, at simtime.Time, data []byte, meta cacheMeta, mode string) cacheRef {
	ref := e.registerCache(routPID, ReduceOutput, node, at, data, meta)
	e.commit(commit{kind: kindReused, at: at, pid: routPID, typ: ReduceOutput, node: node,
		bytes: prod.bytes, inputs: []cacheRef{prod}, mode: mode})
	return ref
}
