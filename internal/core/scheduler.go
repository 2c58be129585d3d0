package core

import (
	"sync"

	"redoop/internal/cluster"
	"redoop/internal/iocost"
	"redoop/internal/simtime"
)

// CacheLoc describes one cache a candidate task must load: where it
// lives and how big it is. The scheduler prices it with the iocost
// model's CacheRead, local versus remote.
type CacheLoc struct {
	Node  int
	Bytes int64
}

// Scheduler is Redoop's window-aware, cache-aware task scheduler (paper
// §4.3). It keeps the fixed partition→reducer ("home node") mapping
// that makes reduce-side caches reusable across recurrences and places
// cache-fed reduce tasks by the paper's Equation 4:
//
//	node = argmin_i ( Load_i + C_task,i )
//
// where Load_i is the node's current load — measured here as the
// queueing delay before a reduce slot frees, which directly captures
// "if all task slots of a node are taken, assign the task elsewhere
// even if its cache is there" — and C_task,i is the I/O cost of loading
// the task's caches from node i's perspective. It keeps no task lists:
// Algorithm 2's mapTaskList and reduceTaskList are the engine's
// recovery ladder (ensurePane), which maps a pane when its caches'
// ready bits say it must. It reports nothing itself: the engine
// commits each decision it returns.
type Scheduler struct {
	// mu guards homes so placements can be read while the engine
	// schedules.
	mu   sync.Mutex
	cl   *cluster.Cluster
	cost iocost.Model

	// CacheOblivious is an ablation switch: when set, PickCacheTaskNode
	// ignores cache locality (the C_task term) and places tasks purely
	// by earliest slot availability.
	CacheOblivious bool

	homes map[int]int // reduce partition -> home node ID
	cands []Candidate // PickCacheTaskNode's breakdown, reused call to call
}

// NewScheduler builds a scheduler over the cluster with the given cost
// model.
func NewScheduler(cl *cluster.Cluster, cost iocost.Model) *Scheduler {
	return &Scheduler{cl: cl, cost: cost, homes: make(map[int]int)}
}

// HomeNode returns the node that hosts reduce partition part's caches,
// assigning one on first use (least-loaded alive node) and reassigning
// if the previous home died, which it reports. The mapping is otherwise
// fixed across recurrences, as §4.3 requires.
func (s *Scheduler) HomeNode(part int) (n *cluster.Node, reassigned bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if id, ok := s.homes[part]; ok {
		if n := s.cl.Node(id); n != nil && n.Alive() {
			return n, false
		}
		delete(s.homes, part) // home died; reassign below
		reassigned = true
	}
	alive := s.cl.AliveNodes()
	if len(alive) == 0 {
		return nil, reassigned
	}
	// Spread homes: fewest assigned partitions first, then least load.
	counts := make(map[int]int)
	for _, id := range s.homes {
		counts[id]++
	}
	best := alive[0]
	for _, n := range alive[1:] {
		switch {
		case counts[n.ID] < counts[best.ID]:
			best = n
		case counts[n.ID] == counts[best.ID] && n.Load() < best.Load():
			best = n
		}
	}
	s.homes[part] = best.ID
	return best, reassigned
}

// CacheCost returns C_task,i: the cost for a task running on node to
// load the given caches, cheaper for caches already local.
func (s *Scheduler) CacheCost(node int, caches []CacheLoc) simtime.Duration {
	var d simtime.Duration
	for _, c := range caches {
		d += s.cost.CacheRead(c.Bytes, c.Node == node)
	}
	return d
}

// Placement is one Equation 4 decision.
type Placement struct {
	Node    *cluster.Node    // nil when no node is alive
	Outcome string           // see classifyPlacement
	Queue   simtime.Duration // the chosen node's Load_i
	Caches  int              // caches the task loads
	// Candidates holds every alive node's terms when the caller asked
	// for them; it is valid until the next PickCacheTaskNode.
	Candidates []Candidate
}

// Candidate is one alive node's Equation 4 terms: its queueing delay
// (Load), the task's C_task on it (CacheCost) and their sum.
type Candidate struct {
	Node                   int
	Load, CacheCost, Total simtime.Duration
}

// PickCacheTaskNode applies Equation 4 to choose the node for a
// cache-fed reduce-style task that becomes ready at `ready` and must
// load `caches`, with each candidate's terms when audit is set. Ties
// break toward the lower node ID for determinism.
func (s *Scheduler) PickCacheTaskNode(ready simtime.Time, caches []CacheLoc, audit bool) Placement {
	var best *cluster.Node
	var bestCost, bestLoad simtime.Duration
	s.cands = s.cands[:0]
	for _, n := range s.cl.Nodes() {
		if !n.Alive() {
			continue
		}
		load := n.Reduce.EarliestStart(ready).Sub(ready)
		cost := load
		var cacheCost simtime.Duration
		if !s.CacheOblivious {
			cacheCost = s.CacheCost(n.ID, caches)
			cost += cacheCost
		}
		s.cands = append(s.cands, Candidate{Node: n.ID, Load: load, CacheCost: cacheCost, Total: cost})
		if best == nil || cost < bestCost || (cost == bestCost && n.ID < best.ID) {
			best, bestCost, bestLoad = n, cost, load
		}
	}
	if best == nil {
		return Placement{}
	}
	p := Placement{Node: best, Outcome: s.classifyPlacement(best.ID, bestLoad, caches), Queue: bestLoad, Caches: len(caches)}
	if audit {
		p.Candidates = s.cands
	}
	return p
}

// classifyPlacement names the Equation 4 outcome for metrics: the task
// had no caches to load ("no-cache"), landed where at least one of its
// caches lives ("cache-local"), was pushed off a busier cache holder
// ("load-balanced"), or simply ran remote from all its caches
// ("remote"). load is the chosen node's; the holders' are the
// candidates' just computed.
func (s *Scheduler) classifyPlacement(chosen int, load simtime.Duration, caches []CacheLoc) string {
	if len(caches) == 0 {
		return "no-cache"
	}
	holderBusier := false
	for _, c := range caches {
		if c.Node == chosen {
			return "cache-local"
		}
		for _, cd := range s.cands {
			holderBusier = holderBusier || cd.Node == c.Node && cd.Load > load
		}
	}
	if holderBusier {
		return "load-balanced"
	}
	return "remote"
}
