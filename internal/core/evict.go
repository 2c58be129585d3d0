package core

import (
	"fmt"
	"sort"
	"strings"

	"redoop/internal/simtime"
)

// Cost-based cache replacement.
//
// The Local Cache Manager's purge policy (§4.1) only ever removes
// expired entries; under a disk limit that is not always enough — a
// node can fill with caches every one of which some future window
// still wants. Pure expiry then has nothing to remove and the node
// stays over budget forever. This file adds the replacement tier that
// runs after the purge tick: it ranks the engine's evictable caches by
// benefit density and removes the cheapest-to-lose entries until the
// node fits.
//
// Evictable means an unexpired reduce-input cache of a single-source
// aggregation. Those are the only caches whose removal the rest of the
// system already knows how to survive: the pane's DFS files are
// retained until retirement, so the rin is rebuildable through
// map+shuffle exactly like a §5 cache loss, and the differential
// oracle pins only the window's routs (plus a join's rins and tuple
// routs) as resident after a recurrence.
//
// Benefit density is the ledger's feature vector for the open
// residency: RecomputeNS·(1+Hits)/Bytes — the modeled nanoseconds a
// future hit would save, weighted by how often the current residency
// has actually been hit, per byte of disk held. Low density (large,
// cheap to rebuild, never hit) evicts first. Ties break on older
// ReadyAt then lexicographic pid, so the decision sequence is a pure
// function of engine state and replays byte-identically across worker
// counts and chaos seeds.

// EvictCandidate is one ranked entry of the replacement scan —
// exported so policy tests can rank crafted feature vectors without an
// engine.
type EvictCandidate struct {
	PID     string
	Node    int
	Bytes   int64
	ReadyAt simtime.Time
	// Feature vector from the cost ledger; zero when no ledger is
	// attached (every candidate then scores 0 and age breaks ties).
	RecomputeNS int64
	Hits        int
}

// score is the candidate's benefit density. float64 keeps the
// comparison exact enough: both operands derive from the same virtual
// clock and IEEE-754 arithmetic is deterministic across runs.
func (c EvictCandidate) score() float64 {
	b := c.Bytes
	if b < 1 {
		b = 1
	}
	return float64(c.RecomputeNS) * float64(1+c.Hits) / float64(b)
}

// rankVictims orders candidates ascending by benefit density — the
// first entry is the best eviction victim. Ties break on older
// ReadyAt, then pid.
func rankVictims(cands []EvictCandidate) []EvictCandidate {
	out := append([]EvictCandidate(nil), cands...)
	sort.SliceStable(out, func(i, j int) bool {
		si, sj := out[i].score(), out[j].score()
		if si != sj {
			return si < sj
		}
		if out[i].ReadyAt != out[j].ReadyAt {
			return out[i].ReadyAt < out[j].ReadyAt
		}
		return out[i].PID < out[j].PID
	})
	return out
}

// evictOverCap runs the replacement tier for recurrence r: for every
// node still over its disk limit after the purge tick, evict ranked
// victims until the node fits or no candidates remain. Runs in
// RunNext's serial tail, so the decision sequence is independent of the
// worker count.
func (e *Engine) evictOverCap(r int, at simtime.Time) {
	if e.cacheLimit <= 0 || len(e.query.Sources) != 1 {
		return
	}
	for _, m := range e.managers {
		over := m.OverLimit()
		if over <= 0 {
			continue
		}
		for _, c := range rankVictims(e.candidatesOn(m.Registry)) {
			if over <= 0 {
				break
			}
			over -= e.evictOne(r, c, at)
		}
	}
}

// candidatesOn collects the evictable caches resident on one node:
// the registry's unexpired reduce-input rows of this query's source
// whose signature still vouches for bytes on this node, joined with
// their ledger features. Derived from controller and registry state on
// every scan, so there is no per-engine set to keep in step with the
// cache lifecycle. (An expired row is already queued for the next
// purge tick; replacement must not double-close its residency.)
func (e *Engine) candidatesOn(reg *Registry) []EvictCandidate {
	prefix := e.query.rinPrefix(0, e.frames[0].Pane)
	var cands []EvictCandidate
	for _, row := range reg.Entries() {
		if row.Type != ReduceInput || row.Expired || !strings.HasPrefix(row.PID, prefix) {
			continue
		}
		sig, ok := e.ctrl.Lookup(row.PID, ReduceInput)
		if !ok || sig.Ready != CacheAvailable || sig.NID != reg.NodeID() || !reg.Has(row.PID, ReduceInput) {
			continue
		}
		c := EvictCandidate{PID: row.PID, Node: sig.NID, Bytes: sig.Bytes, ReadyAt: sig.ReadyAt}
		c.RecomputeNS, c.Hits = e.residency(row.PID, ReduceInput)
		cands = append(cands, c)
	}
	return cands
}

// evictOne applies the §5-shaped transition for one victim: the
// signature rolls back to HDFS-available (the pane files survive, so
// the cache is rebuildable, not gone), the registry drops the bytes,
// and the eviction is committed — the same sequence the lazy
// loss-discovery path runs, minus the fault. Returns the bytes freed.
func (e *Engine) evictOne(r int, c EvictCandidate, at simtime.Time) int64 {
	e.ctrl.SetReady(c.PID, ReduceInput, HDFSAvailable, c.ReadyAt, c.Node)
	e.sched.ReduceTasks.RemoveMatching(func(id string) bool {
		return containsPID(id, c.PID)
	})
	freed := e.ctrl.Registry(c.Node).Evict(c.PID, ReduceInput)
	e.mu.Lock()
	e.evictLog = append(e.evictLog, fmt.Sprintf(
		"r=%d node=%d pid=%s bytes=%d recompute=%d hits=%d",
		r, c.Node, c.PID, c.Bytes, c.RecomputeNS, c.Hits))
	e.mu.Unlock()
	e.commit(commit{kind: kindEvicted, at: at, pid: c.PID, typ: ReduceInput, node: c.Node,
		bytes: c.Bytes, cost: simtime.Duration(c.RecomputeNS)})
	return freed
}

// EvictionLog returns a copy of the replacement decision sequence, one
// line per eviction in execution order. Byte-identical across worker
// counts: every decision happens in RunNext's serial tail.
func (e *Engine) EvictionLog() []string {
	e.mu.Lock()
	defer e.mu.Unlock()
	return append([]string(nil), e.evictLog...)
}
