package mapreduce

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"runtime"
	"slices"
	"strconv"

	"redoop/internal/account"
	"redoop/internal/cluster"
	"redoop/internal/colfmt"
	"redoop/internal/dfs"
	"redoop/internal/iocost"
	"redoop/internal/obs"
	"redoop/internal/obs/eventlog"
	"redoop/internal/parallel"
	"redoop/internal/records"
	"redoop/internal/simtime"
)

// Engine is the job tracker: it splits inputs, schedules task attempts
// onto node slots, executes user functions and accounts virtual time.
//
// Concurrency contract (precise, because parallel execution relaxes the
// old blanket "not safe for concurrent use"):
//
//   - Phase-running methods (Run, RunMapPhase, CommitMapPhase,
//     RunReducePhase, CommitReducePhase) mutate node timelines and emit
//     metrics/events on the virtual clock; call them from ONE goroutine
//     at a time. One engine drives one virtual timeline.
//   - PrepareMapPhase and PrepareReducePhase perform only DFS reads and
//     pure user compute; distinct prepares may safely run concurrently
//     with each other (the core engine prepares a window's new panes at
//     once), but never concurrently with an accounting method on the
//     same timeline's nodes.
//   - The engine itself fans CPU-heavy per-split and per-partition
//     compute across up to Workers goroutines, so a Job's user
//     functions (Map, Combine, Reduce, Partition) are invoked
//     concurrently and must be safe for concurrent calls: pure
//     functions over their arguments qualify; closures mutating shared
//     state do not.
//   - All virtual-time accounting — slot acquisition, stats, metric
//     counters, event-log emission — replays serially in deterministic
//     split/partition order regardless of Workers, and jitter streams
//     are keyed by (seed, task id), so outputs, Stats, and the virtual
//     timeline are byte-identical to a Workers=1 run by construction.
type Engine struct {
	Cluster *cluster.Cluster
	DFS     *dfs.DFS
	Cost    iocost.Model
	// Place overrides task placement; nil means DefaultPlacement.
	Place Placement
	// Faults optionally injects task-attempt failures.
	Faults FaultPlan
	// Obs receives task-level metrics (attempt counts, durations,
	// spill/shuffle/read volumes) and per-attempt trace spans on the
	// virtual timeline. Nil disables instrumentation at ~zero cost.
	Obs *obs.Tracer
	// Workers bounds the goroutines used for the parallel compute
	// phase (decode, user map/combine, sort/group, user reduce).
	// Zero means GOMAXPROCS; 1 forces fully serial execution. Any
	// value yields identical results — see the concurrency contract.
	Workers int

	// Jitter makes task durations non-deterministic: each attempt's
	// modelled duration is scaled by a seeded random factor in
	// [1, 1+Jitter], with occasional stragglers (probability
	// StragglerProb, default 0.05) further scaled by 1+StragglerFactor
	// (default 4). Zero keeps the simulation fully deterministic.
	Jitter          float64
	StragglerProb   float64
	StragglerFactor float64
	// JitterSeed drives the jitter streams so jittered runs reproduce.
	// Each task attempt's factor derives from (seed, task id), so a
	// given attempt's duration is stable regardless of scheduling
	// order or what other tasks ran first.
	JitterSeed int64
	// Speculative enables Hadoop's speculative execution for map
	// tasks: when an attempt runs past 1.5× its modelled duration, a
	// backup attempt launches on another node and the earlier finisher
	// wins. The paper's evaluation turned this off (§6.1) because at
	// Redoop's fine task granularity backups mostly burn slots; this
	// implementation lets that trade-off be measured.
	Speculative bool

	// SpanParent is the ambient parent span every task span emitted by
	// the engine links to — the driving recurrence's root span. The core
	// controller sets it at the top of each recurrence; zero leaves task
	// spans parentless (the baseline driver). Accounting is
	// single-goroutine (see the concurrency contract), so a plain field
	// suffices.
	SpanParent obs.SpanID

	// Account is the optional cost ledger. Jobs carrying a Query name
	// have their slot time (map/sort/reduce), shuffle time and shuffle
	// bytes attributed to that account from the serial accounting
	// paths; nil (or an unnamed job) disables metering.
	Account *account.Ledger

	scratch scratch // free lists of the arrays phases borrow (DropScratch)
}

// New constructs an engine over the given substrates with default
// placement and no fault injection.
func New(c *cluster.Cluster, d *dfs.DFS, cost iocost.Model) (*Engine, error) {
	if c == nil || d == nil {
		return nil, fmt.Errorf("mapreduce: engine needs a cluster and a DFS")
	}
	if err := cost.Validate(); err != nil {
		return nil, err
	}
	return &Engine{Cluster: c, DFS: d, Cost: cost}, nil
}

// placementFor resolves the effective placement for a job: the job's
// override first, then the engine's, then the default.
func (e *Engine) placementFor(job *Job) Placement {
	switch {
	case job != nil && job.Place != nil:
		return job.Place
	case e.Place != nil:
		return e.Place
	}
	return DefaultPlacement{}
}

// WorkerCount resolves the effective parallel-compute width: Workers
// when positive, else GOMAXPROCS.
func (e *Engine) WorkerCount() int {
	if e.Workers > 0 {
		return e.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// jittered scales a modelled duration by a jitter factor keyed by the
// attempt's identity — kind, job, task, attempt number; with Jitter zero
// it is the identity and formats nothing. Keying by task identity keeps
// each attempt's duration stable across runs that schedule differently.
func (e *Engine) jittered(d simtime.Duration, kind, job, task string, attempt int) simtime.Duration {
	if e.Jitter <= 0 {
		return d
	}
	h := fnv.New64a()
	fmt.Fprintf(h, "%d|%s|%s|%s|%d", e.JitterSeed, kind, job, task, attempt)
	rng := rand.New(rand.NewSource(int64(h.Sum64())))
	factor := 1 + e.Jitter*rng.Float64()
	prob := e.StragglerProb
	if prob == 0 {
		prob = 0.05
	}
	if rng.Float64() < prob {
		sf := e.StragglerFactor
		if sf == 0 {
			sf = 4
		}
		factor += sf
	}
	return simtime.Duration(float64(d) * factor)
}

// maxAttempts bounds attempts per task before the job fails (Hadoop's
// mapred.map.max.attempts default).
const maxAttempts = 4

// speculationThreshold is how far past its modelled duration an
// attempt runs before a backup launches (Hadoop's default heuristic
// watches for tasks well behind their peers' progress rate).
const speculationThreshold = 1.5

// Splits enumerates the block-granular map splits of the given input
// paths, in path-then-block order.
func (e *Engine) Splits(paths []string) ([]Split, error) {
	return e.SplitsOf(WholeFiles(paths))
}

// SplitsOf enumerates the map splits of the given logical inputs: each
// input range is clipped against the blocks of its file, producing one
// split per overlapped block.
func (e *Engine) SplitsOf(inputs []Input) ([]Split, error) {
	var out []Split
	var buf [8]dfs.Block // a file's blocks, geometry only
	for _, in := range inputs {
		blocks, size, err := e.DFS.Layout(buf[:0], in.Path)
		if err != nil {
			return nil, err
		}
		lo, hi := max(in.Offset, 0), size
		if in.Length >= 0 {
			hi = min(size, in.Offset+in.Length)
		}
		for _, b := range blocks {
			sp := Split{Path: in.Path, Block: b, Lo: max(b.Offset, lo), Hi: min(b.Offset+b.Size, hi)}
			if sp.Lo < sp.Hi {
				out = append(out, sp)
			}
		}
	}
	return out, nil
}

// MapPhaseResult carries the output of RunMapPhase into the shuffle and
// reduce phases.
type MapPhaseResult struct {
	// Parts holds, per reduce partition, the map output: in SortPairs
	// order when PartsSorted, else a merge's phases one after another,
	// which RunReducePhase sorts in place.
	Parts [][]records.Pair
	// PartSrcBytes records, per partition, how many intermediate bytes
	// each mapper node produced, indexed by node ID — the matrix the
	// shuffle model charges network transfer from, its rows on one array.
	// A partition's entries sum to the encoded size of its Parts, which is
	// where the reduce phase reads it.
	PartSrcBytes [][]int64
	// FirstMapEnd and LastMapEnd bound the map wave; reducers start
	// copying at FirstMapEnd and cannot finish before LastMapEnd.
	FirstMapEnd, LastMapEnd simtime.Time
	// Stats covers the map phase only.
	Stats Stats
	// Spans are the winning map attempts' span IDs, in split order —
	// the dependency edges downstream shuffle/reduce spans record, by
	// reference (obs.TaskSpan.Shared), so it never changes once
	// committed. Empty when no observer is attached.
	Spans  []obs.SpanID
	out    []records.Pair // the array Parts views, owned until Release or a merge takes it
	groups [][]Group      // Parts' key groups (place), when the phase is one prep's: PartsSorted
	vals   [][]byte       // the values array groups view, owned with out
	arenas [][]byte       // the chunks its pairs' bytes are in, owned with out
	from   *Engine        // whose free lists out, vals and arenas go back to
}

// PartsSorted reports whether every partition is in SortPairs order, as a
// committed phase and a merge that took over a sole live phase leave it:
// its reduce reads the prep's key groups, with no grouping pass.
func (mp *MapPhaseResult) PartsSorted() bool { return mp.groups != nil }

// Shuffle is partition part's copy to a reducer on node, which may not
// start before ready: the copy starts when the first map ends, and the
// reducer cannot start sorting before the last map ends or before its
// copies complete. Bytes from maps colocated with the reducer are disk
// reads (local); the rest cross the network (remote).
func (mp *MapPhaseResult) Shuffle(cost iocost.Model, part, node int, ready simtime.Time) (local, remote int64, start, end simtime.Time) {
	for src, b := range mp.PartSrcBytes[part] {
		if src == node {
			local += b
		} else {
			remote += b
		}
	}
	start = simtime.Max(mp.FirstMapEnd, ready)
	end = simtime.Max(start.Add(cost.NetTransfer(remote)+cost.DiskRead(local)), simtime.Max(mp.LastMapEnd, ready))
	return local, remote, start, end
}

// Release hands the map-output array and the values array back, cleared,
// and the arena chunks its keys and values were copied into, for a later
// PrepareMapPhase of the same engine once nothing reads Parts or a view
// of them (a reducer's Input). Parts becomes nil; optional, idempotent
// and nil-safe.
func (mp *MapPhaseResult) Release() {
	if mp == nil {
		return
	}
	if mp.out != nil {
		clear(mp.out)
		mp.from.scratch.outs.put(mp.out)
	}
	if mp.vals != nil {
		clear(mp.vals)
		mp.from.scratch.vals.put(mp.vals)
	}
	for _, a := range mp.arenas {
		mp.from.scratch.arenas.put(a[:0])
	}
	mp.out, mp.groups, mp.vals, mp.arenas, mp.Parts = nil, nil, nil, nil, nil
}

// newMapPhaseResult returns the result of a map wave with no task yet,
// its source-byte matrix over node IDs 0 to nodes-1.
func newMapPhaseResult(reducers, nodes int, ready simtime.Time) *MapPhaseResult {
	res := &MapPhaseResult{
		Parts:        make([][]records.Pair, reducers),
		PartSrcBytes: srcMatrix(reducers, nodes),
		FirstMapEnd:  ready,
		LastMapEnd:   ready,
	}
	res.Stats.Start = ready
	res.Stats.End = ready
	return res
}

// srcMatrix is a zero source-byte matrix, a row per partition and a column
// per node, its rows cut from one array.
func srcMatrix(reducers, nodes int) [][]int64 {
	rows, cells := make([][]int64, reducers), make([]int64, reducers*nodes)
	for r := range rows {
		rows[r] = cells[r*nodes : (r+1)*nodes : (r+1)*nodes]
	}
	return rows
}

// MergeMapPhases combines several map-phase results into one, as if a
// single map wave had produced them: partitions are concatenated,
// source-byte matrices summed, and the wave bounds widened. Redoop uses
// it to fuse per-segment (proactive sub-pane) map phases; the baseline
// driver uses it to fuse per-source map phases of a join. The result
// takes over the arrays, partitions, groups and matrix of a sole phase
// that ran any task; otherwise each merged partition is sized first and
// written once, unsorted, and the phases keep their arrays.
func MergeMapPhases(rs []*MapPhaseResult, reducers int, ready simtime.Time) *MapPhaseResult {
	out, nodes := newMapPhaseResult(reducers, 0, ready), 0
	var live []*MapPhaseResult
	for _, mp := range rs {
		if mp.Stats.MapTasks == 0 {
			continue
		}
		if len(live) == 0 || mp.FirstMapEnd < out.FirstMapEnd {
			out.FirstMapEnd = mp.FirstMapEnd
		}
		if mp.LastMapEnd > out.LastMapEnd {
			out.LastMapEnd = mp.LastMapEnd
		}
		out.Stats.Accumulate(mp.Stats)
		live, nodes = append(live, mp), max(nodes, len(mp.PartSrcBytes[0]))
	}
	if len(live) == 1 {
		out.Parts, out.PartSrcBytes, out.Spans = live[0].Parts, live[0].PartSrcBytes, live[0].Spans
		out.out, out.groups, out.vals, out.arenas, out.from = live[0].out, live[0].groups, live[0].vals, live[0].arenas, live[0].from
		live[0].out, live[0].vals, live[0].arenas = nil, nil, nil
		return out
	}
	out.PartSrcBytes = srcMatrix(reducers, nodes)
	for r := range out.Parts {
		n := 0
		for _, mp := range live {
			n += len(mp.Parts[r])
		}
		if n > 0 {
			out.Parts[r] = make([]records.Pair, 0, n)
		}
		for _, mp := range live {
			out.Parts[r] = append(out.Parts[r], mp.Parts[r]...)
			for node, b := range mp.PartSrcBytes[r] {
				out.PartSrcBytes[r][node] += b
			}
		}
	}
	for _, mp := range live {
		out.Spans = append(out.Spans, mp.Spans...)
	}
	return out
}

// PreparedParts returns what a reduce over preps' map outputs reads: a
// sole prep's key groups, per partition in key order, or the pairs of
// several laid out one prep after another, unsorted.
func PreparedParts(preps []*MapPhasePrep, reducers int) ([][]records.Pair, [][]Group) {
	if len(preps) == 1 {
		return nil, preps[0].groups
	}
	parts := make([][]records.Pair, reducers)
	for _, p := range preps {
		for r, gs := range p.groups {
			parts[r] = appendPairs(parts[r], gs)
		}
	}
	return parts, nil
}

// appendPairs appends the pairs of gs, each group's key with each of its
// values, to dst.
func appendPairs(dst []records.Pair, gs []Group) []records.Pair {
	for _, g := range gs {
		for _, v := range g.Values {
			dst = append(dst, records.Pair{Key: g.Key, Value: v})
		}
	}
	return dst
}

// MapPhasePrep is the compute half of a map phase: every split's user
// map has run (and combined, partitioned), but no virtual time has been
// charged and nothing has been scheduled. Feed it to CommitMapPhase,
// once: the commit hands the key groups over to its result.
type MapPhasePrep struct {
	from   *Engine // whose free lists vals and arenas go back to
	job    *Job
	splits []Split
	groups [][]Group // per reduce partition its key groups in key order (place); nil once released
	vals   [][]byte  // the values array the groups view
	arenas [][]byte  // the chunks the keys and values are in
	// partBytes[i*R+r] is the encoded size of what split i emitted
	// (after combining) into partition r.
	partBytes []int64
	// workers[i] is the pool worker that prepared split i (0 in serial
	// mode) — observability-only attribution carried onto the map span.
	workers []int
}

// PrepareMapPhase runs phase 1 of a map phase: split enumeration, file
// validation (parallel per input file), and the user map + combine +
// partition per split (parallel per split, up to Workers goroutines),
// each record read off the file's columns as it is mapped, each key
// looked up once in its worker's keyTable and staged as a number. Then the
// output is laid out as key groups, partition by partition in key order,
// their values on one borrowed array (see Release): Hadoop's map-side sort
// (place), with no pair written. It touches
// no node timeline and emits no metrics, so distinct prepares may overlap;
// all scheduling happens later in CommitMapPhase.
func (e *Engine) PrepareMapPhase(job *Job, inputs []Input) (*MapPhasePrep, error) {
	if err := job.Validate(); err != nil {
		return nil, err
	}
	splits, err := e.SplitsOf(inputs)
	if err != nil {
		return nil, err
	}
	prep := &MapPhasePrep{from: e, job: job, splits: splits}
	if len(splits) == 0 {
		prep.groups = make([][]Group, job.NumReducers)
		return prep, nil
	}

	// View each input file once; a split maps the records whose payload
	// starts in its range, the record set Hadoop's record readers would
	// produce: spans[starts[i]:starts[i+1]].
	spans, starts, err := e.viewSplits(splits)
	if err != nil {
		return nil, err
	}

	R, workers := job.NumReducers, e.WorkerCount()
	prep.partBytes = make([]int64, len(splits)*R)
	prep.workers = make([]int, len(splits))
	// Split i stages into its share, share[i] to share[i+1], of an array
	// of key numbers sized for one emission per record; more outgrows it.
	stages, share := make([]stage, len(splits)), make([]int, len(splits)+1)
	for i := 0; job.Combine == nil && i < len(splits); i++ { // a combiner's shares are empty
		share[i+1] = share[i]
		for _, sp := range spans[starts[i]:starts[i+1]] {
			share[i+1] += sp.Hi - sp.Lo
		}
	}
	n := share[len(splits)]
	ids, tabs := e.scratch.ids.get(n), e.scratch.tables.get(workers)
	for w := range tabs { // sized for as many keys as records, up to a pane's thousand or so
		tabs[w].part, tabs[w].r, tabs[w].hint = job.partitioner(), R, min(n, 1024)
		tabs[w].arena = e.scratch.arenas.get(0)
	}
	sinks := make([]mapSink, len(splits))
	parallel.ForWorker(workers, len(splits), func(worker, i int) {
		st, tab, lo, hi := &stages[i], &tabs[worker], share[i], share[i+1]
		st.ids, st.worker = ids[lo:lo:hi], worker
		sinks[i] = mapSink{tab: tab, st: st, size: prep.partBytes[i*R : (i+1)*R], split: i}
		emit := Emitter{m: &sinks[i]}
		// Execute the user map once; attempts re-charge time only.
		for _, sp := range spans[starts[i]:starts[i+1]] {
			for j := sp.Lo; j < sp.Hi; j++ {
				ts, payload := sp.Seg.Record(j)
				tab.payload = payload
				job.Map(ts, payload, emit)
			}
		}
		if job.Combine != nil { // the split's pairs give way to what the combiner emits of them
			raw := *st
			raw.worker, *st = 0, stage{ids: st.ids[:0], worker: worker}
			clear(sinks[i].size)
			parts, _ := place([]stage{raw}, tabs[worker:worker+1], R, func(n int) [][]byte { return make([][]byte, n) })
			for _, gs := range parts {
				if len(gs) == 1 && len(gs[0].Values) == 1 { // a partition the split gave one pair keeps it as it is
					emit.Emit(gs[0].Key, gs[0].Values[0])
					continue
				}
				for _, g := range gs {
					job.Combine(g.Key, g.Values, emit)
				}
			}
		}
		prep.workers[i] = worker
	})

	prep.groups, prep.vals = place(stages, tabs, R, e.scratch.vals.get)
	for w := range tabs { // recycled tables must not pin this phase's keys
		clear(tabs[w].keys)
		clear(tabs[w].slots)
		tabs[w].keys = tabs[w].keys[:0]
		if len(tabs[w].arena) > 0 { // the groups view it: it goes back with them
			prep.arenas = append(prep.arenas, tabs[w].arena)
		} else {
			e.scratch.arenas.put(tabs[w].arena)
		}
		tabs[w].arena, tabs[w].payload, tabs[w].last = nil, nil, nil
	}
	e.scratch.ids.put(ids)
	e.scratch.tables.put(tabs)
	return prep, nil
}

// Release hands the map output back once nothing reads its groups; the
// commit then schedules the same tasks over empty partitions and lays no
// pair out.
func (prep *MapPhasePrep) Release() {
	(&MapPhaseResult{vals: prep.vals, arenas: prep.arenas, from: prep.from}).Release()
	prep.groups, prep.vals, prep.arenas = nil, nil, nil
}

// CommitMapPhase runs phase 2: it replays scheduling, virtual-time
// accounting, and metric/event emission for the prepared splits,
// serially and in split order, becoming schedulable at ready. A prep not
// released has its pairs laid out, partition by partition, on a borrowed
// array as the result's Parts, which keeps the groups. Because
// jitter streams are keyed by (seed, task id), the resulting timeline
// is identical to what a fully serial run would have produced.
func (e *Engine) CommitMapPhase(prep *MapPhasePrep, ready simtime.Time) (*MapPhaseResult, error) {
	job := prep.job
	R := job.NumReducers
	res := newMapPhaseResult(R, len(e.Cluster.Nodes()), ready)
	if len(prep.splits) == 0 {
		return res, nil
	}
	if prep.groups != nil {
		total := 0
		for _, gs := range prep.groups {
			for _, g := range gs {
				total += len(g.Values)
			}
		}
		res.out = e.scratch.outs.get(total)
		pos := 0
		for r, gs := range prep.groups {
			if ps := appendPairs(res.out[pos:pos], gs); len(ps) > 0 { // in place: out holds them all
				res.Parts[r], pos = ps[:len(ps):len(ps)], pos+len(ps)
			}
		}
		res.groups, res.vals, res.arenas, res.from = prep.groups, prep.vals, prep.arenas, e
		prep.groups, prep.vals, prep.arenas = nil, nil, nil
	}
	if e.Obs != nil {
		res.Spans = make([]obs.SpanID, 0, len(prep.splits))
	}
	for i, s := range prep.splits {
		sizes := prep.partBytes[i*R : (i+1)*R]
		var outBytes int64
		for _, b := range sizes {
			outBytes += b
		}

		node, end, attempts, spent, span, local, err := e.runMapAttempts(job, s, outBytes, ready, prep.workers[i])
		if err != nil {
			return nil, err
		}
		if span != 0 {
			res.Spans = append(res.Spans, span)
		}
		res.Stats.MapTasks++
		res.Stats.FailedAttempts += attempts - 1
		res.Stats.MapTime += spent
		// spent sums every attempt's slot occupancy (failed and
		// speculative included), matching the AddLoad charges exactly.
		e.Account.AddCompute(job.Query, account.PhaseMap, spent)
		res.Stats.BytesRead += s.Size()
		res.Stats.BytesReadLocal += local
		res.Stats.BytesSpilled += outBytes
		if i == 0 || end < res.FirstMapEnd {
			res.FirstMapEnd = end
		}
		if end > res.LastMapEnd {
			res.LastMapEnd = end
		}
		for r, b := range sizes {
			if b > 0 {
				res.PartSrcBytes[r][node.ID] += b
			}
		}
	}
	res.Stats.End = res.LastMapEnd
	return res, nil
}

// RunMapPhase executes the map tasks of job over the given inputs,
// becoming schedulable at ready. It may be called with a subset of the
// job's inputs — Redoop maps only the panes that are new to a window.
// It is PrepareMapPhase (parallel compute) followed by CommitMapPhase
// (serial deterministic accounting).
func (e *Engine) RunMapPhase(job *Job, inputs []Input, ready simtime.Time) (*MapPhaseResult, error) {
	prep, err := e.PrepareMapPhase(job, inputs)
	if err != nil {
		return nil, err
	}
	return e.CommitMapPhase(prep, ready)
}

// runMapAttempts schedules attempts of one map task until one succeeds,
// charging each attempt's duration to its node. It returns the node of
// the successful attempt, its end time, the number of attempts, the
// summed virtual time spent across attempts, the winning attempt's
// span ID (0 without an observer) and the bytes it read locally. The
// task's last attempt span settles it: it carries the split's bytes,
// read where the winner ran, and the map output spilled.
func (e *Engine) runMapAttempts(job *Job, s Split, outBytes int64, ready simtime.Time, worker int) (*cluster.Node, simtime.Time, int, simtime.Duration, obs.SpanID, int64, error) {
	var spent simtime.Duration
	// prev chains retry attempts: each attempt's span depends on the
	// failed attempt whose detection made it schedulable.
	var prev obs.SpanID
	// id names the task to jitter and faults: formatted once, and only
	// when one of them reads it. Spans record the split's facts instead.
	var id string
	if e.Jitter > 0 || e.Faults != nil {
		id = s.ID()
	}
	for attempt := 0; attempt < maxAttempts; attempt++ {
		node := e.placementFor(job).PlaceMap(e, s, ready)
		if node == nil {
			return nil, 0, 0, spent, 0, 0, fmt.Errorf("mapreduce: job %q: no alive node for map over %s", job.Name, s.ID())
		}
		// A second read, not the placement's list: one handed through the
		// Placement interface would escape to the heap, once per attempt.
		var buf [8]int
		replicas := e.DFS.AppendReplicas(buf[:0], s.Path, s.Block.Index)
		localOn := func(n *cluster.Node) int64 {
			if slices.Contains(replicas, n.ID) {
				return s.Size()
			}
			return 0
		}
		local := localOn(node)
		base := e.Cost.MapTask(s.Size(), local, outBytes)
		dur := e.jittered(base, "map", job.Name, id, attempt)
		start, end := node.Map.Acquire(ready, dur)
		node.AddLoad(dur)
		spent += dur
		// span is the attempt's span as recorded; only its node, times
		// and outcome differ between attempts.
		span := obs.TaskSpan{
			Kind: obs.SpanMap, Track: obs.NodeTrack(node.ID),
			Start: start, End: end, Ready: ready,
			Parent: e.SpanParent, Deps: [2]obs.SpanID{prev},
			Job: job.Name, Input: s.Path, Block: s.Block.Index, Offset: s.Lo,
			Attempt: attempt + 1, Worker: worker,
		}
		if e.Faults != nil && e.Faults.MapAttemptFails(job.Name, id, attempt) {
			span.Failed = true
			prev = e.Obs.Task(span)
			e.Obs.Emit(end, eventlog.TaskRetry, job.Query, eventlog.TaskRetryData{
				Job: job.Name, Task: id, Phase: "map", Attempt: attempt + 1,
			})
			// The failed attempt occupied the slot for its full
			// duration; the retry becomes schedulable when the
			// failure is detected, i.e. at the attempt's end.
			ready = end
			continue
		}
		// A straggler gets a backup attempt once the original has
		// clearly fallen behind (the earlier finisher wins, but both
		// occupy slots: the cost the paper avoided by disabling
		// speculation), unless the straggler's node is the only alive
		// node, where a backup would just queue behind it.
		var backup *cluster.Node
		var detect simtime.Time
		if e.Speculative && float64(dur) > speculationThreshold*float64(base) {
			detect = start.Add(simtime.Duration(speculationThreshold * float64(base)))
			backup = pickMapNode(e, replicas, detect, node.ID)
		}
		span.Settles = backup == nil
		span.LocalBytes, span.RemoteBytes, span.OutBytes = local, s.Size()-local, outBytes
		won := e.Obs.Task(span)
		if backup == nil {
			return node, end, attempt + 1, spent, won, local, nil
		}
		bdur := e.jittered(base, "backup", job.Name, id, attempt)
		bstart, bend := backup.Map.Acquire(detect, bdur)
		backup.AddLoad(bdur)
		spent += bdur
		if bend < end {
			node, end, local = backup, bend, localOn(backup)
			span.LocalBytes, span.RemoteBytes = local, s.Size()-local
		}
		span.Kind, span.Track, span.Settles = obs.SpanBackup, obs.NodeTrack(backup.ID), true
		span.Start, span.End, span.Ready = bstart, bend, detect
		if bspan := e.Obs.Task(span); node == backup {
			won = bspan
		}
		return node, end, attempt + 1, spent, won, local, nil
	}
	return nil, 0, 0, spent, 0, 0, fmt.Errorf("mapreduce: job %q: map task %s failed %d attempts", job.Name, s.ID(), maxAttempts)
}

// viewSplits reads every referenced file once, validates it whole
// (files in parallel) and returns the records each split maps as spans of
// the files' views: split i maps spans[starts[i]:starts[i+1]], found by
// binary search on the offset columns. Every split searches for itself,
// so splits that overlap (a range listed twice) each map every record in
// their range, and the ranges of the whole phase share one array.
// Payloads are views of the stored file bytes (DFS.Read), immutable while
// anything holds them.
func (e *Engine) viewSplits(splits []Split) (spans []colfmt.Span, starts []int, err error) {
	var paths []string // in order of first appearance
	fileOf := make(map[string]int)
	for i := range splits {
		if _, ok := fileOf[splits[i].Path]; !ok {
			fileOf[splits[i].Path] = len(paths)
			paths = append(paths, splits[i].Path)
		}
	}
	views := make([]colfmt.RecordFile, len(paths))
	err = parallel.ForErr(e.WorkerCount(), len(paths), func(f int) error {
		data, err := e.DFS.Read(paths[f])
		if err != nil {
			return err
		}
		views[f], err = colfmt.ViewRecords(data)
		return err
	})
	if err != nil {
		return nil, nil, err
	}
	spans, starts = make([]colfmt.Span, 0, len(splits)), make([]int, len(splits)+1)
	for i, s := range splits {
		spans = views[fileOf[s.Path]].AppendRange(spans, s.Lo, s.Hi)
		starts[i+1] = len(spans)
	}
	return spans, starts, nil
}

// ReducerResult is the outcome of one reduce partition's task.
type ReducerResult struct {
	Part  int
	Node  int
	Start simtime.Time
	End   simtime.Time
	// Input is the partition's shuffled input, sorted (SortPairs) but
	// ungrouped; Redoop persists it as the pane's reduce-input cache.
	Input []records.Pair
	// Output is what the reduce function emitted, views of OutData.
	Output []records.Pair
	// OutData is Output encoded as one exactly-sized pair segment (what
	// colfmt.EncodePairs(Output) gives), nil when Output is empty: the
	// reduce emit wrote it as the pairs came, and Redoop stores it as the
	// pane's reduce-output cache.
	OutData  []byte
	InBytes  int64
	OutBytes int64
	// Span is the winning reduce attempt's span ID and ShuffleSpan its
	// shuffle's (0 without an observer, or when no shuffle time was
	// charged). Redoop records them as the dependency edges of cache
	// entries the reducer output feeds.
	Span        obs.SpanID
	ShuffleSpan obs.SpanID
	worker      int // the pool worker that reduced it (observability only)
}

// RunReducePhase shuffles the map output to reducers, then sorts,
// groups and reduces each non-empty partition: PrepareReducePhase over
// mp's key groups when PartsSorted, else over its partitions, one Grouper
// per pool worker, then CommitReducePhase. ready is the earliest instant
// reduce tasks may be scheduled (normally the map phase's ready time;
// slots and shuffle completion push actual starts later). Each partition
// of mp, sorted in place unless PartsSorted, becomes its reducer's Input.
func (e *Engine) RunReducePhase(job *Job, mp *MapPhaseResult, ready simtime.Time) ([]ReducerResult, Stats, error) {
	if err := job.Validate(); err != nil {
		return nil, Stats{}, err
	}
	groupers := e.Groupers(mp.Parts)
	results := e.PrepareReducePhase(job, mp.Parts, mp.groups, groupers)
	e.PutGroupers(groupers)
	return e.CommitReducePhase(job, results, mp, ready)
}

// PrepareReducePhase is the compute half of a reduce phase: each
// non-empty partition reduced (Grouper.Reduce), on len(gs) goroutines
// with a Grouper each — groups[r] as given when groups is not nil (a
// prep's, in key order), else parts[r] grouped in place (Grouper.Group).
// The reducers' Outputs are capacity-limited views on one array. It
// schedules nothing; hand the results to CommitReducePhase once.
func (e *Engine) PrepareReducePhase(job *Job, parts [][]records.Pair, groups [][]Group, gs []Grouper) []ReducerResult {
	R := max(len(parts), len(groups))
	live := func(r int) bool { return groups != nil && len(groups[r]) > 0 || groups == nil && len(parts[r]) > 0 }
	n, most := 0, 0 // the live partitions, the largest to group
	for r := range R {
		if live(r) {
			n++
		}
		if groups == nil {
			most = max(most, len(parts[r]))
		}
	}
	results, runs := make([]ReducerResult, 0, n), make([]colfmt.PairRun, n)
	for r := range R {
		if live(r) {
			results = append(results, ReducerResult{Part: r})
		}
	}
	parallel.ForWorker(len(gs), n, func(worker, i int) {
		rr, g := &results[i], &gs[worker]
		rr.worker = worker
		var in []Group
		if groups != nil {
			in = groups[rr.Part]
		} else {
			g.most = max(g.most, most) // sized for the largest partition (Groupers)
			in = g.Group(parts[rr.Part])
		}
		rr.OutData, runs[i] = g.Reduce(job.Reduce, in)
		rr.OutBytes = runs[i].Size()
	})
	pairs := 0
	for i := range runs {
		pairs += runs[i].Len()
	}
	out := make([]records.Pair, 0, pairs)
	for i := range runs {
		if lo := len(out); runs[i].Len() > 0 {
			out = runs[i].AppendTo(out)
			results[i].Output = out[lo:len(out):len(out)]
		}
	}
	return results
}

// CommitReducePhase is the accounting half: each prepared reducer is
// placed, shuffled from mp and attempted, serially in partition order,
// its Input set to its partition of mp.
func (e *Engine) CommitReducePhase(job *Job, results []ReducerResult, mp *MapPhaseResult, ready simtime.Time) ([]ReducerResult, Stats, error) {
	stats := Stats{Start: ready, End: ready}
	for i := range results {
		rr := &results[i]
		rr.Input = mp.Parts[rr.Part]
		for _, b := range mp.PartSrcBytes[rr.Part] {
			rr.InBytes += b
		}
		node := e.placementFor(job).PlaceReduce(e, job, rr.Part, ready)
		if node == nil {
			return nil, stats, fmt.Errorf("mapreduce: job %q: no alive node for reduce %d", job.Name, rr.Part)
		}
		shuffleDur, spent, err := e.runReduceAttempts(job, rr, node, mp, ready)
		if err != nil {
			return nil, stats, err
		}
		stats.ReduceTasks++
		stats.ShuffleTime += shuffleDur
		stats.ReduceTime += rr.End.Sub(rr.Start) // sort + group + reduce calls + write
		stats.BytesShuffled += rr.InBytes
		stats.BytesOutput += rr.OutBytes
		// Ledger: shuffle is elapsed copy time (no slot held); the slot
		// time spent across every attempt splits into the modeled sort
		// share and the rest of the reduce work, so the slot-phase sum
		// equals the AddLoad charges exactly.
		e.Account.AddCompute(job.Query, account.PhaseShuffle, shuffleDur)
		sortShare := e.Cost.Sort(rr.InBytes)
		if sortShare > spent {
			sortShare = spent
		}
		e.Account.AddCompute(job.Query, account.PhaseSort, sortShare)
		e.Account.AddCompute(job.Query, account.PhaseReduce, spent-sortShare)
		e.Account.AddIO(job.Query, account.IOShuffle, rr.InBytes)
		if rr.End > stats.End {
			stats.End = rr.End
		}
	}
	return results, stats, nil
}

// runReduceAttempts schedules one reduce partition's attempts and
// completes rr, which arrives holding the compute phase's share, with
// where and when the winning attempt ran. The first attempt runs on the
// placed node; a failed attempt re-places. The user reduce has already
// executed; attempts charge time only. spent sums every attempt's slot
// occupancy — failed attempts burn slots too — matching the AddLoad
// charges exactly.
func (e *Engine) runReduceAttempts(job *Job, rr *ReducerResult, node *cluster.Node, mp *MapPhaseResult, ready simtime.Time) (shuffle, spent simtime.Duration, err error) {
	part, inBytes, outBytes := rr.Part, rr.InBytes, rr.OutBytes
	var prev obs.SpanID // failed-attempt chain, as in runMapAttempts
	for attempt := 0; attempt < maxAttempts; attempt++ {
		if node == nil || !node.Alive() {
			node = e.placementFor(job).PlaceReduce(e, job, part, ready)
			if node == nil {
				return 0, spent, fmt.Errorf("mapreduce: job %q: no alive node for reduce %d", job.Name, part)
			}
		}
		local, remote, shuffleStart, shuffleEnd := mp.Shuffle(e.Cost, part, node.ID, ready)
		shuffleDur := shuffleEnd.Sub(shuffleStart)
		if inBytes == 0 {
			shuffleDur = 0
			shuffleEnd = simtime.Max(mp.LastMapEnd, ready)
		}

		dur := e.Cost.ReduceTask(inBytes, outBytes)
		if job.CacheReduceInput {
			dur += e.Cost.DiskWrite(inBytes) // reduce-input cache spill
		}
		if !job.LocalOutput {
			// Committing output to the DFS replicates it across the
			// network (pipeline to the replica nodes).
			dur += e.Cost.NetTransfer(outBytes)
		}
		dur = e.jittered(dur, "reduce", job.Name, strconv.Itoa(part), attempt)
		start, end := node.Reduce.Acquire(shuffleEnd, dur)
		node.AddLoad(dur)
		spent += dur
		// The attempt waited on every map span of the wave — sorting
		// can't start before the last one — or, once its shuffle is
		// recorded, on that.
		span := obs.TaskSpan{
			Kind: obs.SpanReduce, Track: obs.NodeTrack(node.ID),
			Start: start, End: end, Ready: shuffleEnd,
			Parent: e.SpanParent, Shared: mp.Spans, Deps: [2]obs.SpanID{prev},
			Job: job.Name, Part: part, Attempt: attempt + 1, Worker: rr.worker,
		}
		if e.Faults != nil && e.Faults.ReduceAttemptFails(job.Name, part, attempt) {
			span.Failed = true
			prev = e.Obs.Task(span)
			e.Obs.Emit(end, eventlog.TaskRetry, job.Query, eventlog.TaskRetryData{
				Job: job.Name, Task: "p" + strconv.Itoa(part), Phase: "reduce", Attempt: attempt + 1,
			})
			// A reduce failure entails retrieving the map outputs
			// again and re-executing (paper §2.2): the retry is
			// re-placed and re-pays the shuffle from its new start.
			ready = end
			node = nil
			continue
		}
		var shuffleSpan obs.SpanID
		if shuffleDur > 0 {
			// The shuffle's readiness is when the first map finished (it
			// can't copy earlier).
			shuffleSpan = e.Obs.Task(obs.TaskSpan{
				Kind: obs.SpanShuffle, Track: span.Track,
				Start: shuffleStart, End: shuffleEnd, Ready: shuffleStart,
				Parent: e.SpanParent, Shared: mp.Spans, Deps: [2]obs.SpanID{prev},
				Job: job.Name, Part: part,
			})
		}
		if shuffleSpan != 0 {
			span.Shared, span.Deps = nil, [2]obs.SpanID{shuffleSpan, prev}
		}
		span.LocalBytes, span.RemoteBytes, span.OutBytes, span.Shuffle = local, remote, outBytes, shuffleDur
		rr.Node, rr.Start, rr.End, rr.ShuffleSpan = node.ID, start, end, shuffleSpan
		rr.Span = e.Obs.Task(span)
		return shuffleDur, spent, nil
	}
	return 0, spent, fmt.Errorf("mapreduce: job %q: reduce %d failed %d attempts", job.Name, part, maxAttempts)
}

// Result is the outcome of a complete job run.
type Result struct {
	// Output is the concatenated reducer output in partition order.
	Output []records.Pair
	// Reducers holds each non-empty partition's task result.
	Reducers []ReducerResult
	// Stats aggregates both phases.
	Stats Stats
}

// Run executes a complete job starting (at the earliest) at start: map
// over all inputs, shuffle, sort, reduce, and optionally write the
// output to DFS. The paper's baseline (internal/baseline) does not call
// it: it runs one RunMapPhase per source, merges them with
// MergeMapPhases and reduces with RunReducePhase.
func (e *Engine) Run(job *Job, start simtime.Time) (*Result, error) {
	mp, err := e.RunMapPhase(job, WholeFiles(job.Inputs), start)
	if err != nil {
		return nil, err
	}
	reducers, rstats, err := e.RunReducePhase(job, mp, start)
	if err != nil {
		return nil, err
	}
	res := &Result{Reducers: reducers}
	res.Stats = mp.Stats
	res.Stats.Accumulate(rstats)
	res.Stats.Start = start
	for _, rr := range reducers {
		res.Output = append(res.Output, rr.Output...)
	}
	if job.OutputPath != "" {
		// The exactly-sized encode becomes the stored file.
		enc := colfmt.EncodePairs(res.Output)
		if err := e.DFS.Write(job.OutputPath, enc); err != nil {
			return nil, err
		}
		// Committing output to DFS costs a write charged to the span.
		res.Stats.End = res.Stats.End.Add(e.Cost.DiskWrite(int64(len(enc))))
	}
	return res, nil
}
