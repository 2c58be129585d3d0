package mapreduce

import (
	"slices"

	"redoop/internal/cluster"
	"redoop/internal/simtime"
)

// Placement decides which node runs each task. The MapReduce runtime
// ships a Hadoop-like default (locality-first FIFO); Redoop substitutes
// its window-aware cache-locality scheduler (paper §4.3).
type Placement interface {
	// PlaceMap picks the node for a map task over the given split; it
	// must return an alive node. ready is the instant the task becomes
	// schedulable.
	PlaceMap(e *Engine, s Split, ready simtime.Time) *cluster.Node
	// PlaceReduce picks the node for reduce partition part of job.
	PlaceReduce(e *Engine, job *Job, part int, ready simtime.Time) *cluster.Node
}

// DefaultPlacement is Hadoop's baseline policy: map tasks prefer a node
// holding a local replica of their split, breaking ties by earliest
// available map slot; reduce tasks go to the node whose reduce slot
// frees earliest.
type DefaultPlacement struct{}

// PlaceMap implements Placement. It reads the split's replica set once.
func (DefaultPlacement) PlaceMap(e *Engine, s Split, ready simtime.Time) *cluster.Node {
	var buf [8]int
	return pickMapNode(e, e.DFS.AppendReplicas(buf[:0], s.Path, s.Block.Index), ready, -1)
}

// pickMapNode returns the alive node, other than exclude, whose map
// slot frees earliest, preferring a holder of one of replicas, the
// split's; nil when there is none. A speculative backup excludes its
// straggler's node this way.
func pickMapNode(e *Engine, replicas []int, ready simtime.Time, exclude int) *cluster.Node {
	var bestLocal, bestAny *cluster.Node
	var bestLocalT, bestAnyT simtime.Time
	for _, n := range e.Cluster.Nodes() { // in place, ascending ID: one placement per split
		if n.ID == exclude || !n.Alive() {
			continue
		}
		t := n.Map.EarliestStart(ready)
		if bestAny == nil || t < bestAnyT {
			bestAny, bestAnyT = n, t
		}
		if slices.Contains(replicas, n.ID) {
			if bestLocal == nil || t < bestLocalT {
				bestLocal, bestLocalT = n, t
			}
		}
	}
	// Prefer the best local node unless a remote node is free much
	// earlier; a slot-bound local node should not serialize the wave.
	if bestLocal != nil && bestLocalT <= bestAnyT.Add(e.Cost.TaskOverhead) {
		return bestLocal
	}
	return bestAny
}

// PlaceReduce implements Placement.
func (DefaultPlacement) PlaceReduce(e *Engine, job *Job, part int, ready simtime.Time) *cluster.Node {
	var best *cluster.Node
	var bestT simtime.Time
	for _, n := range e.Cluster.Nodes() {
		if !n.Alive() {
			continue
		}
		if t := n.Reduce.EarliestStart(ready); best == nil || t < bestT {
			best, bestT = n, t
		}
	}
	return best
}

// FaultPlan injects task-attempt failures for fault-tolerance tests and
// the Figure 9 experiment. A nil plan means no injected failures.
type FaultPlan interface {
	// MapAttemptFails reports whether the given 0-based attempt of the
	// map task over splitID should fail.
	MapAttemptFails(jobName, splitID string, attempt int) bool
	// ReduceAttemptFails is the reduce-side analogue.
	ReduceAttemptFails(jobName string, part, attempt int) bool
}

// FaultPlans composes independent plans: an attempt fails when any
// member plan fails it, so a figure's scripted failures and a chaos
// schedule's deterministic ones can both apply to one run.
type FaultPlans []FaultPlan

// MapAttemptFails implements FaultPlan.
func (ps FaultPlans) MapAttemptFails(jobName, splitID string, attempt int) bool {
	for _, p := range ps {
		if p != nil && p.MapAttemptFails(jobName, splitID, attempt) {
			return true
		}
	}
	return false
}

// ReduceAttemptFails implements FaultPlan.
func (ps FaultPlans) ReduceAttemptFails(jobName string, part, attempt int) bool {
	for _, p := range ps {
		if p != nil && p.ReduceAttemptFails(jobName, part, attempt) {
			return true
		}
	}
	return false
}

// FailFirstAttempts is a FaultPlan failing the first N attempts of every
// task, exercising the retry path uniformly.
type FailFirstAttempts struct{ N int }

// MapAttemptFails implements FaultPlan.
func (f FailFirstAttempts) MapAttemptFails(_, _ string, attempt int) bool { return attempt < f.N }

// ReduceAttemptFails implements FaultPlan.
func (f FailFirstAttempts) ReduceAttemptFails(_ string, _, attempt int) bool { return attempt < f.N }
