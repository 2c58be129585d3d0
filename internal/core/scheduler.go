package core

import (
	"fmt"
	"log/slog"
	"sync"

	"redoop/internal/cluster"
	"redoop/internal/iocost"
	"redoop/internal/mapreduce"
	"redoop/internal/obs"
	"redoop/internal/obs/eventlog"
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
// that makes reduce-side caches reusable across recurrences, maintains
// the map and reduce task lists driven by the cache controller's ready
// bits, and places cache-fed reduce tasks by the paper's Equation 4:
//
//	node = argmin_i ( Load_i + C_task,i )
//
// where Load_i is the node's current load — measured here as the
// queueing delay before a reduce slot frees, which directly captures
// "if all task slots of a node are taken, assign the task elsewhere
// even if its cache is there" — and C_task,i is the I/O cost of loading
// the task's caches from node i's perspective.
type Scheduler struct {
	// mu guards homes and the event labels so the debug server can read
	// placements while the engine schedules.
	mu   sync.Mutex
	cl   *cluster.Cluster
	cost iocost.Model

	// CacheOblivious is an ablation switch: when set, PickCacheTaskNode
	// ignores cache locality (the C_task term) and places tasks purely
	// by earliest slot availability.
	CacheOblivious bool

	homes map[int]int // reduce partition -> home node ID

	// obs receives Equation 4 outcomes (cache-local vs. remote vs.
	// load-balanced placements) and observed queueing delays; log
	// mirrors them as Debug events. Both may be nil. obsQuery and
	// recurrence label the flight-recorder placement events with the
	// owning query and the recurrence in flight.
	obs        *obs.Observer
	log        *slog.Logger
	obsQuery   string
	recurrence int

	// MapTasks and ReduceTasks are the two scheduling lists of
	// Algorithm 2: entries enter MapTasks when a data partition's
	// ready bit turns 1 (newly arrived in HDFS) and ReduceTasks when
	// cached partitions pair up within their lifespans (ready bit 2).
	MapTasks    *TaskList
	ReduceTasks *TaskList
}

// NewScheduler builds a scheduler over the cluster with the given cost
// model.
func NewScheduler(cl *cluster.Cluster, cost iocost.Model) *Scheduler {
	return &Scheduler{
		cl:          cl,
		cost:        cost,
		homes:       make(map[int]int),
		MapTasks:    NewTaskList(),
		ReduceTasks: NewTaskList(),
	}
}

// SetObserver attaches the observability layer; nil detaches it.
func (s *Scheduler) SetObserver(o *obs.Observer) { s.obs = o }

// SetQuery labels the scheduler's flight-recorder events with the
// owning query's name.
func (s *Scheduler) SetQuery(name string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.obsQuery = name
}

// SetRecurrence labels subsequent placement events with the recurrence
// currently in flight.
func (s *Scheduler) SetRecurrence(r int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.recurrence = r
}

// SetLogger attaches a logger for placement-decision Debug events; nil
// detaches it.
func (s *Scheduler) SetLogger(l *slog.Logger) { s.log = l }

// HomeNode returns the node that hosts reduce partition part's caches,
// assigning one on first use (least-loaded alive node) and reassigning
// if the previous home died. The mapping is otherwise fixed across
// recurrences, as §4.3 requires.
func (s *Scheduler) HomeNode(part int) *cluster.Node {
	s.mu.Lock()
	defer s.mu.Unlock()
	reassigned := false
	if id, ok := s.homes[part]; ok {
		if n := s.cl.Node(id); n != nil && n.Alive() {
			return n
		}
		delete(s.homes, part) // home died; reassign below
		reassigned = true
		s.obs.Counter("redoop_home_reassignments_total").Inc()
	}
	alive := s.cl.AliveNodes()
	if len(alive) == 0 {
		return nil
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
	if s.log != nil {
		s.log.Debug("home node assigned",
			"partition", part, "node", best.ID, "reassigned", reassigned)
	}
	return best
}

// Homes returns a copy of the current partition→node mapping.
func (s *Scheduler) Homes() map[int]int {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[int]int, len(s.homes))
	for p, n := range s.homes {
		out[p] = n
	}
	return out
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

// PickCacheTaskNode applies Equation 4 to choose the node for a
// cache-fed reduce-style task that becomes ready at `ready` and must
// load `caches`. Ties break toward the lower node ID for determinism.
func (s *Scheduler) PickCacheTaskNode(ready simtime.Time, caches []CacheLoc) *cluster.Node {
	nodes := s.cl.Nodes()
	var best *cluster.Node
	var bestCost, bestLoad simtime.Duration
	loads := make(map[int]simtime.Duration, len(nodes))
	var audit []eventlog.PlacementCandidate
	if s.obs.EmitEnabled() {
		audit = make([]eventlog.PlacementCandidate, 0, len(nodes))
	}
	for _, n := range nodes {
		if !n.Alive() {
			continue
		}
		load := n.Reduce.EarliestStart(ready).Sub(ready)
		loads[n.ID] = load
		cost := load
		var cacheCost simtime.Duration
		if !s.CacheOblivious {
			cacheCost = s.CacheCost(n.ID, caches)
			cost += cacheCost
		}
		if audit != nil {
			audit = append(audit, eventlog.PlacementCandidate{
				Node:        n.ID,
				LoadNS:      int64(load),
				CacheCostNS: int64(cacheCost),
				TotalNS:     int64(cost),
			})
		}
		if best == nil || cost < bestCost || (cost == bestCost && n.ID < best.ID) {
			best, bestCost, bestLoad = n, cost, load
		}
	}
	if best == nil {
		return nil
	}
	outcome := s.classifyPlacement(best.ID, caches, loads)
	s.obs.Counter("redoop_placements_total", obs.L("outcome", outcome)).Inc()
	s.obs.Histogram("redoop_placement_queue_seconds").Observe(bestLoad.Seconds())
	if audit != nil {
		s.mu.Lock()
		query, rec := s.obsQuery, s.recurrence
		s.mu.Unlock()
		s.obs.Emit(ready, eventlog.Placement, query, eventlog.PlacementData{
			Recurrence: rec,
			Chosen:     best.ID,
			Outcome:    outcome,
			Caches:     len(caches),
			Candidates: audit,
		})
	}
	if s.log != nil {
		s.log.Debug("cache task placed",
			"node", best.ID, "outcome", outcome,
			"caches", len(caches), "queue_delay", bestLoad)
	}
	return best
}

// classifyPlacement names the Equation 4 outcome for metrics: the task
// had no caches to load ("no-cache"), landed where at least one of its
// caches lives ("cache-local"), was pushed off a busier cache holder
// ("load-balanced"), or simply ran remote from all its caches
// ("remote").
func (s *Scheduler) classifyPlacement(chosen int, caches []CacheLoc, loads map[int]simtime.Duration) string {
	if len(caches) == 0 {
		return "no-cache"
	}
	holderBusier := false
	for _, c := range caches {
		if c.Node == chosen {
			return "cache-local"
		}
		if l, ok := loads[c.Node]; ok && l > loads[chosen] {
			holderBusier = true
		}
	}
	if holderBusier {
		return "load-balanced"
	}
	return "remote"
}

// PlaceMap implements mapreduce.Placement: map tasks over newly arrived
// pane files use Hadoop's locality-first policy (scheduling of new data
// is "no different than in Hadoop", §4.3).
func (s *Scheduler) PlaceMap(e *mapreduce.Engine, sp mapreduce.Split, ready simtime.Time) *cluster.Node {
	return mapreduce.DefaultPlacement{}.PlaceMap(e, sp, ready)
}

// PlaceReduce implements mapreduce.Placement: reduce partitions are
// pinned to their home nodes so reduce-side caches accumulate where
// later recurrences can reuse them locally.
func (s *Scheduler) PlaceReduce(_ *mapreduce.Engine, _ *mapreduce.Job, part int, _ simtime.Time) *cluster.Node {
	return s.HomeNode(part)
}

// TaskEntry is one pending entry of a scheduling list.
type TaskEntry struct {
	// ID names the data partition(s) involved, e.g. "S1P3" for a map
	// task or "S1P3+S2P4" for a paired reduce task.
	ID string
	// Payload carries engine-specific context.
	Payload any
}

// TaskList is a FIFO task list (the paper's mapTaskList /
// reduceTaskList). It is intentionally simple: entries are consumed in
// arrival order; removal by ID supports the failure-recovery rollback
// that pulls tasks whose caches were lost.
type TaskList struct {
	entries []TaskEntry
}

// NewTaskList returns an empty list.
func NewTaskList() *TaskList { return &TaskList{} }

// Len returns the number of pending entries.
func (l *TaskList) Len() int { return len(l.entries) }

// Push appends an entry.
func (l *TaskList) Push(id string, payload any) {
	l.entries = append(l.entries, TaskEntry{ID: id, Payload: payload})
}

// Pop removes and returns the oldest entry (FIFO order, as Algorithm 2
// consumes the map task list). The vacated slot is zeroed so the
// backing array stops referencing the popped payload (rolled-back
// reduce payloads reference cached pane data that must stay GC-able).
func (l *TaskList) Pop() (TaskEntry, bool) {
	if len(l.entries) == 0 {
		return TaskEntry{}, false
	}
	e := l.entries[0]
	l.entries[0] = TaskEntry{}
	l.entries = l.entries[1:]
	return e, true
}

// Remove deletes all entries whose ID matches, returning how many were
// removed — the rollback path when a cache underpinning a scheduled
// task is lost (§5).
func (l *TaskList) Remove(id string) int {
	return l.RemoveMatching(func(eid string) bool { return eid == id })
}

// RemoveMatching deletes entries whose ID satisfies pred. Tail slots
// vacated by the compaction are zeroed so removed payloads don't
// linger in the backing array.
func (l *TaskList) RemoveMatching(pred func(id string) bool) int {
	kept := l.entries[:0]
	n := 0
	for _, e := range l.entries {
		if pred(e.ID) {
			n++
			continue
		}
		kept = append(kept, e)
	}
	for i := len(kept); i < len(l.entries); i++ {
		l.entries[i] = TaskEntry{}
	}
	l.entries = kept
	return n
}

// IDs returns the pending entry IDs in order.
func (l *TaskList) IDs() []string {
	out := make([]string, len(l.entries))
	for i, e := range l.entries {
		out[i] = e.ID
	}
	return out
}

// String summarizes the list.
func (l *TaskList) String() string { return fmt.Sprintf("%v", l.IDs()) }
