package core

import "redoop/internal/simtime"

// Cost-based cache replacement.
//
// The Local Cache Manager's purge policy (§4.1) only ever removes
// expired entries; under a disk limit that is not always enough — a
// node can fill with caches every one of which some future window
// still wants. Pure expiry then has nothing to remove and the node
// stays over budget forever. This file adds the replacement tier that
// runs after the purge tick: it removes the engine's evictable caches
// in the order the one eviction policy ranks them (victimsOn,
// account.CompareVictims: lowest benefit density first) until the node
// fits. The reuse index bounds its entries with the same policy.
//
// Evictable means an unexpired reduce-input cache of a single-source
// aggregation. Those are the only caches whose removal the rest of the
// system already knows how to survive: the pane's DFS files are
// retained until retirement, so the rin is rebuildable through
// map+shuffle exactly like a §5 cache loss, and the differential
// oracle pins only the window's routs (plus a join's rins and tuple
// routs) as resident after a recurrence. A join's rins are therefore
// never evictable, and NewEngine refuses a join given a disk limit
// rather than run it unbounded.
//
// The record of the decisions is the tracer's: every eviction is a
// cache.evict decision of its recurrence (obsFold).

// evictOverCap runs the replacement tier after a recurrence: for every
// node still over its disk limit after the purge tick, evict ranked
// victims until the node fits or no candidates remain. Each victim
// takes the §5-shaped transition (Registry.Evict): the signature rolls
// back to HDFS-available, the bytes go, and the eviction is committed —
// the same sequence the lazy loss-discovery path runs, minus the fault.
// Runs in RunNext's serial tail, so the decision sequence is
// independent of the worker count.
func (e *Engine) evictOverCap(at simtime.Time) {
	for _, n := range e.mr.Cluster.Nodes() {
		over := n.LocalBytes() - e.diskLimit
		if e.diskLimit <= 0 || over <= 0 {
			continue
		}
		reg := e.ctrl.Registry(n.ID)
		for _, c := range e.victimsOn(reg) {
			if over <= 0 {
				break
			}
			over -= reg.Evict(c.PID, ReduceInput)
			e.commit(commit{kind: kindEvicted, at: at, pid: c.PID, typ: ReduceInput, node: n.ID,
				bytes: c.Bytes, cost: simtime.Duration(c.RecomputeNS)})
		}
	}
}
