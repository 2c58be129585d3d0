package core

import (
	"bytes"
	"fmt"
	"slices"

	"redoop/internal/colfmt"
	"redoop/internal/mapreduce"
	"redoop/internal/obs"
	"redoop/internal/parallel"
	"redoop/internal/records"
	"redoop/internal/simtime"
	"redoop/internal/window"
)

// The join path generalizes the paper's binary joins to n sources: the
// cache status matrix is n-dimensional (§4.2 notes "the extension to
// higher dimensions is straightforward"), each source pane is mapped
// and shuffled once into reduce-input caches, each pane *tuple*
// (p1,...,pn) within the window is joined exactly once with its result
// cached, and a window's answer is the union of its tuples' outputs:
// W1 ⋈ ... ⋈ Wn = ∪ p1 ⋈ ... ⋈ pn for equi-joins over pane unions.

// paneTuple is one coordinate of the n-dimensional pane space.
type paneTuple []window.PaneID

// runJoin executes recurrence r of a multi-source query.
func (e *Engine) runJoin(r int, trigger simtime.Time) (*RecurrenceResult, error) {
	n := len(e.query.Sources)
	los, his := e.windowRanges(r)
	res := &RecurrenceResult{Recurrence: r, WindowLo: los[0], WindowHi: his[0], TriggerAt: trigger}
	res.Stats.Start = trigger
	res.Stats.End = trigger

	// Phase 1: reduce-input caches for every pane of every source.
	rins := make([]map[window.PaneID][]cacheRef, n)
	for src := 0; src < n; src++ {
		rins[src] = make(map[window.PaneID][]cacheRef, int(his[src]-los[src])+1)
		for p := los[src]; p <= his[src]; p++ {
			refs, reused, recovered, err := e.ensureJoinPaneInputs(src, p, trigger, &res.Stats)
			if err != nil {
				return nil, err
			}
			rins[src][p] = refs
			if reused {
				res.ReusedPanes++
			} else {
				res.NewPanes++
			}
			if recovered {
				res.CacheRecoveries++
			}
		}
	}

	// Phase 2: join every pane tuple of the window exactly once.
	// Tuples already computed in earlier windows are reused from their
	// output caches; the rest are grouped into batched tasks that
	// share one cached pane per slot occupancy. tuples and tupleRefs
	// are in forEachTupleRanges order: a tuple's index is its ordinal.
	var tuples []paneTuple
	var tupleRefs [][]cacheRef
	var needed []int
	forEachTupleRanges(los, his, func(t paneTuple) {
		refs, reused, recovered := e.reuseJoinTuple(t)
		if reused {
			res.ReusedPairs++
		} else {
			needed = append(needed, len(tuples))
			res.NewPairs++
		}
		if recovered {
			res.CacheRecoveries++
		}
		tuples = append(tuples, append(paneTuple(nil), t...))
		tupleRefs = append(tupleRefs, refs)
	})
	for _, group := range groupTuples(tuples, needed) {
		refs, err := e.joinTupleGroup(group, trigger, rins, &res.Stats)
		if err != nil {
			return nil, err
		}
		for i, ord := range group.ords {
			tupleRefs[ord] = refs[i]
		}
	}

	// Phase 3: combine the window's tuple outputs into the final result.
	out, endMax, err := e.finalizeJoinWindow(trigger, tupleRefs, &res.Stats)
	if err != nil {
		return nil, err
	}
	res.Output = out
	if endMax > res.Stats.End {
		res.Stats.End = endMax
	}
	res.CompletedAt = res.Stats.End
	res.ResponseTime = res.Stats.End.Sub(trigger)
	return res, nil
}

// windowRanges returns the inclusive pane range of recurrence r's
// window in every source's frame.
func (e *Engine) windowRanges(r int) (los, his []window.PaneID) {
	los = make([]window.PaneID, len(e.frames))
	his = make([]window.PaneID, len(e.frames))
	for d, f := range e.frames {
		los[d], his[d] = f.WindowRange(r)
	}
	return los, his
}

// forEachTupleRanges enumerates the pane tuples of the per-dimension
// ranges [los[d], his[d]] in lexicographic order.
func forEachTupleRanges(los, his []window.PaneID, fn func(paneTuple)) {
	n := len(los)
	t := make(paneTuple, n)
	var rec func(d int)
	rec = func(d int) {
		if d == n {
			fn(t)
			return
		}
		for p := los[d]; p <= his[d]; p++ {
			t[d] = p
			rec(d + 1)
		}
	}
	rec(0)
}

// ensureJoinPaneInputs guarantees the per-partition reduce-input caches
// of pane p of source src: reused when present, rebuilt by re-running
// the pane's map and shuffle when lost.
func (e *Engine) ensureJoinPaneInputs(src int, p window.PaneID, trigger simtime.Time, stats *mapreduce.Stats) (refs []cacheRef, reused, recovered bool, err error) {
	q := e.query
	R := q.NumReducers

	refs = make([]cacheRef, R)
	all := !e.noReuse
	anyKnown := false
	for part := 0; all && part < R; part++ {
		pid := q.rinPID(src, e.frames[src].Pane, p, part)
		if _, known := e.ctrl.Lookup(pid, ReduceInput); known {
			anyKnown = true
		}
		ref, ok := e.lookupCache(pid, ReduceInput)
		if !ok {
			all = false
			break
		}
		refs[part] = ref
	}
	if all {
		return refs, true, false, nil
	}
	recovered = anyKnown // signatures existed but bytes were lost

	id := fmt.Sprintf("%sP%d", q.Sources[src].Name, int64(p))
	e.sched.MapTasks.Push(id, nil)
	defer e.sched.MapTasks.Remove(id)

	mp, err := e.commitPaneMapPhase(src, p, trigger, e.preparePane(src, p), stats)
	if err != nil {
		return nil, false, recovered, err
	}

	// The per-partition sort + encode is pure compute; fan it out
	// before the serial shuffle-accounting pass. The cache is stored
	// sorted so pane-tuple joins later merge sorted runs instead of
	// re-sorting: the sort is paid once here, at cache-build time. It
	// runs in place — mp is this call's own merged map result and
	// nothing reads its partitions afterwards.
	sortedData := make([][]byte, R)
	inSizes := make([]int64, R)
	groupers := e.mr.Groupers(mp.Parts)
	parallel.ForWorker(len(groupers), R, func(worker, part int) {
		input := mp.Parts[part]
		inSizes[part] = records.PairsSize(input)
		if inSizes[part] == 0 {
			return
		}
		groupers[worker].Group(input) // into SortPairs order; the groups are not needed
		sortedData[part] = colfmt.EncodePairs(input)
	})
	e.mr.PutGroupers(groupers)
	mp.Release() // the encodes are the caches; the matrix and wave bounds below stay

	// Map cost is paid once for the whole pane; each live partition's
	// reduce-input entry carries an even share of it in its ledger
	// recompute, on top of its own shuffle and spill actuals.
	live := 0
	for part := 0; part < R; part++ {
		if inSizes[part] > 0 {
			live++
		}
	}
	mapShare := simtime.Duration(0)
	if live > 0 {
		mapShare = mp.Stats.MapTime / simtime.Duration(live)
	}
	jobName := fmt.Sprintf("%s/%s", q.Name, q.Sources[src].Name)
	for part := 0; part < R; part++ {
		home := e.sched.HomeNode(part)
		if home == nil {
			return nil, false, recovered, fmt.Errorf("core: no alive node to home partition %d", part)
		}
		inBytes := inSizes[part]
		readyAt := simtime.Max(mp.LastMapEnd, trigger)
		if e.proactive {
			readyAt = mp.LastMapEnd
		}
		rinMeta := cacheMeta{src: src, pane: p, part: part, job: jobName}
		if inBytes == 0 {
			refs[part] = e.registerCacheFor(q.rinPID(src, e.frames[src].Pane, p, part), ReduceInput, home.ID, readyAt, nil, e.rinUsers(src), rinMeta)
			continue
		}
		// The reducer-side copy: bytes from maps colocated with the
		// home are disk reads, the rest cross the network; the spill
		// to the reduce-input cache is a local write.
		var local, remote int64
		for srcNode, b := range mp.PartSrcBytes[part] {
			if srcNode == home.ID {
				local += b
			} else {
				remote += b
			}
		}
		shuffleStart := mp.FirstMapEnd
		copyDone := shuffleStart.Add(e.mr.Cost.NetTransfer(remote) + e.mr.Cost.DiskRead(local))
		availAt := simtime.Max(copyDone, mp.LastMapEnd)
		spill := e.mr.Cost.Sort(inBytes) + e.mr.Cost.DiskWrite(inBytes)
		start, end := home.Reduce.Acquire(availAt, spill)
		home.AddLoad(spill)
		stats.ShuffleTime += availAt.Sub(shuffleStart)
		stats.ReduceTime += spill
		stats.BytesShuffled += inBytes
		// The copy is shuffle (elapsed, not slot time); the slot-held
		// spill splits into its sort and disk-write (reduce) shares,
		// summing exactly to the AddLoad above.
		e.commit(commit{kind: kindCharged, phase: phaseShuffle, cost: availAt.Sub(shuffleStart), bytes: inBytes})
		e.commit(commit{kind: kindCharged, phase: phaseSort, cost: e.mr.Cost.Sort(inBytes)})
		e.commit(commit{kind: kindCharged, phase: phaseReduce, cost: spill - e.mr.Cost.Sort(inBytes)})
		shuffleSpan := e.obs.Task(obs.TaskSpan{
			Track: obs.NodeTrack(home.ID), Cat: "shuffle",
			Name:  fmt.Sprintf("shuffle %s pane %d p%d", q.Sources[src].Name, int64(p), part),
			Start: shuffleStart, End: availAt, Ready: shuffleStart,
			Parent: e.mr.SpanParent, Deps: mp.Spans,
			Args: []obs.Label{obs.L("query", q.Name)},
		})
		spillSpan := e.obs.Task(obs.TaskSpan{
			Track: obs.NodeTrack(home.ID), Cat: "spill",
			Name:  fmt.Sprintf("spill %s pane %d p%d", q.Sources[src].Name, int64(p), part),
			Start: start, End: end, Ready: availAt,
			Parent: e.mr.SpanParent, Deps: []obs.SpanID{shuffleSpan},
			Args: []obs.Label{obs.L("query", q.Name)},
		})
		rinMeta.span, rinMeta.recompute = spillSpan, mapShare+availAt.Sub(shuffleStart)+spill
		refs[part] = e.registerCacheFor(q.rinPID(src, e.frames[src].Pane, p, part), ReduceInput, home.ID,
			end, sortedData[part], e.rinUsers(src), rinMeta)
		if end > stats.End {
			stats.End = end
		}
	}
	return refs, false, recovered, nil
}

// reuseJoinTuple returns pane tuple t's cached per-partition output
// references when the tuple was computed in an earlier window and
// every cache survives. recovered reports a detected cache loss.
func (e *Engine) reuseJoinTuple(t paneTuple) (refs []cacheRef, reused, recovered bool) {
	q := e.query
	done, _ := e.matrix.Done(t...)
	if !done || e.noReuse {
		return nil, false, false
	}
	refs = make([]cacheRef, q.NumReducers)
	for part := 0; part < q.NumReducers; part++ {
		ref, ok := e.lookupCache(q.routTuplePID(t, part), ReduceOutput)
		if !ok {
			return nil, false, true
		}
		refs[part] = ref
	}
	return refs, true, false
}

// paneCoord names one source pane: a coordinate value of the pane space.
type paneCoord struct {
	dim  int
	pane window.PaneID
}

// tupleGroup is a batch of pane tuples sharing one (dimension, pane)
// coordinate that one reducer slot occupancy processes; ords are the
// tuples' ordinals in the window's forEachTupleRanges order.
type tupleGroup struct {
	tuples []paneTuple
	ords   []int
}

// groupTuples buckets the needed tuples (ordinals into tuples) so that
// tuples sharing a hot coordinate run in one batched task: each tuple
// joins the bucket of whichever of its coordinates participates in the
// most needed tuples, so joinTupleGroup decodes the hot new pane's
// cache once per partition for the whole bucket, not once per tuple.
func groupTuples(tuples []paneTuple, needed []int) []tupleGroup {
	count := make(map[paneCoord]int)
	for _, o := range needed {
		for d, p := range tuples[o] {
			count[paneCoord{d, p}]++
		}
	}
	buckets := make(map[paneCoord]*tupleGroup)
	var order []paneCoord
	for _, o := range needed {
		t := tuples[o]
		best := paneCoord{0, t[0]}
		for d, p := range t {
			if count[paneCoord{d, p}] > count[best] {
				best = paneCoord{d, p}
			}
		}
		g, ok := buckets[best]
		if !ok {
			g = &tupleGroup{}
			buckets[best] = g
			order = append(order, best)
		}
		g.tuples = append(g.tuples, t)
		g.ords = append(g.ords, o)
	}
	out := make([]tupleGroup, 0, len(order))
	for _, k := range order {
		out = append(out, *buckets[k])
	}
	return out
}

// joinTupleGroup computes a batch of pane-tuple joins per partition in
// one slot occupancy and returns each tuple's per-partition output
// references, in group order. Per partition every distinct input cache
// is decoded once for the whole group and, the caches being stored
// key-sorted, a tuple's reduce input is a merge of its panes' runs,
// grouped without sorting. Each tuple's output is cached separately
// (tuple-granular reuse and expiry); the status matrix is updated.
func (e *Engine) joinTupleGroup(group tupleGroup, trigger simtime.Time, rins []map[window.PaneID][]cacheRef, stats *mapreduce.Stats) ([][]cacheRef, error) {
	q := e.query
	R := q.NumReducers
	n := len(q.Sources)
	baseReady := trigger
	if e.proactive {
		baseReady = 0 // gated only by the input caches' readiness
	}
	id := groupID(q, group)
	e.sched.ReduceTasks.Push(id, nil)
	defer e.sched.ReduceTasks.Remove(id)

	out := make([][]cacheRef, len(group.tuples))
	for i := range out {
		out[i] = make([]cacheRef, R)
	}
	// Phase 1 (parallel): per partition, load the batch's distinct
	// input caches and compute every tuple's join — pure compute.
	type tupleOut struct {
		// inBytes is the tuple's summed input-cache bytes — the basis of
		// the ledger's modeled recompute for the tuple's output cache.
		inBytes int64
		data    []byte
	}
	type partCompute struct {
		caches     []cacheRef
		cacheBytes int64
		outs       []tupleOut // aligned with group.tuples
		inBytes    int64
		outBytes   int64
	}
	computed := make([]partCompute, R)
	// Scratch per pool worker, reused across its partitions and tuples:
	// groups and emitted pairs alias cache bytes, never these slices, and
	// each output is encoded at once.
	type scratch struct {
		spans         map[paneCoord][2]int // each distinct input cache's range of decoded
		decoded       []records.Pair       // the partition's input caches, each decoded once for the group
		runs          [][]records.Pair
		input, joined []records.Pair // one tuple's merged reduce input and its output
		grouper       mapreduce.Grouper
	}
	scratches := make([]scratch, e.mr.WorkerCount())
	errs := make([]error, R)
	parallel.ForWorker(len(scratches), R, func(worker, part int) {
		pc, s := &computed[part], &scratches[worker]
		pc.outs = make([]tupleOut, len(group.tuples))
		if s.spans == nil {
			s.spans = make(map[paneCoord][2]int)
		}
		clear(s.spans)
		s.decoded = s.decoded[:0]
		for _, t := range group.tuples {
			for d, p := range t {
				c := rins[d][p][part]
				if _, seen := s.spans[paneCoord{d, p}]; seen || c.bytes == 0 {
					continue
				}
				data, err := e.cacheBytes(c)
				lo := len(s.decoded)
				if err == nil {
					s.decoded, err = colfmt.AppendDecodedPairs(s.decoded, data)
				}
				if err != nil {
					errs[part] = err
					return
				}
				// Every writer stores its reduce inputs key-sorted; the
				// merge below silently mis-orders a run that is not, so one
				// linear check guards it against a foreign registration.
				if run := s.decoded[lo:]; !slices.IsSortedFunc(run, func(a, b records.Pair) int { return bytes.Compare(a.Key, b.Key) }) {
					mapreduce.SortPairs(run)
				}
				s.spans[paneCoord{d, p}] = [2]int{lo, len(s.decoded)}
				pc.caches = append(pc.caches, c)
				pc.cacheBytes += c.bytes
			}
		}
		emit := func(k, v []byte) { s.joined = append(s.joined, records.Pair{Key: k, Value: v}) }
		for i, t := range group.tuples {
			s.runs = s.runs[:0]
			var tupleIn int64
			for d, p := range t {
				if c := rins[d][p][part]; c.bytes != 0 {
					tupleIn += c.bytes
					span := s.spans[paneCoord{d, p}]
					s.runs = append(s.runs, s.decoded[span[0]:span[1]])
				}
			}
			if tupleIn == 0 {
				continue
			}
			s.input = mapreduce.MergeSortedRuns(s.input[:0], s.runs...)
			s.joined = s.joined[:0]
			for _, g := range s.grouper.Sorted(s.input) {
				q.Reduce(g.Key, g.Values, emit)
			}
			data := colfmt.EncodePairs(s.joined)
			pc.inBytes += tupleIn
			pc.outBytes += int64(len(data))
			pc.outs[i] = tupleOut{inBytes: tupleIn, data: data}
		}
	})
	for _, err := range errs { // the lowest partition's, whichever worker hit it
		if err != nil {
			return nil, err
		}
	}
	// Phase 2 (serial, partition order): Eq. 4 scheduling, cache
	// registration and stats.
	tupleMeta := func(t paneTuple, part int) cacheMeta {
		ins := make([]cacheRef, n)
		for d := range ins {
			ins[d] = rins[d][t[d]][part]
		}
		return cacheMeta{pane: t[0], part: part, inputs: ins}
	}
	for part, pc := range computed {
		if len(pc.caches) == 0 {
			// Entirely empty partition: register empty outputs.
			home := e.sched.HomeNode(part)
			for i, t := range group.tuples {
				out[i][part] = e.registerCache(q.routTuplePID(t, part),
					ReduceOutput, home.ID, baseReady, nil, tupleMeta(t, part))
			}
			continue
		}
		ct := e.runCacheTask(func() string { return fmt.Sprintf("join %s p%d", id, part) }, phaseReduce, baseReady, pc.caches,
			e.mr.Cost.CachedReduceTask(pc.inBytes, pc.outBytes))
		stats.ReduceTasks++
		stats.ReduceTime += ct.dur
		stats.BytesCacheRead += pc.cacheBytes
		for i, t := range group.tuples {
			// A hit on a tuple's output skips re-joining its inputs: the
			// modeled cached-reduce over this tuple's share of the batch.
			to := pc.outs[i]
			meta := tupleMeta(t, part)
			meta.span, meta.recompute = ct.span, e.mr.Cost.CachedReduceTask(to.inBytes, int64(len(to.data)))
			out[i][part] = e.registerCache(q.routTuplePID(t, part),
				ReduceOutput, ct.node, ct.end, to.data, meta)
		}
		if ct.end > stats.End {
			stats.End = ct.end
		}
	}
	for _, t := range group.tuples {
		if err := e.matrix.Update(t...); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// groupID names a batched tuple task for the reduce task list, e.g.
// "S1P3+S2P4" or "S1P3+8 tuples".
func groupID(q *Query, g tupleGroup) string {
	if len(g.tuples) == 1 && len(g.tuples[0]) == 2 {
		return fmt.Sprintf("%sP%d+%sP%d", q.Sources[0].Name, int64(g.tuples[0][0]),
			q.Sources[1].Name, int64(g.tuples[0][1]))
	}
	return fmt.Sprintf("%sP%d+%d tuples", q.Sources[0].Name, int64(g.tuples[0][0]), len(g.tuples))
}

// finalizeJoinWindow assembles the window's result from the cached
// tuple outputs, tupleRefs[ordinal][partition]. With no finalization
// function the result is the union of the already-materialized tuple
// outputs — the new tuples' results "combined with the cached reducer
// outputs from last occurrence" (§6.2.2) — so the finalize step
// publishes a manifest referencing those output files rather than
// physically rewriting them (Hadoop outputs are directories of part
// files; a Redoop recurrence's output directory lists its tuples' part
// files): the returned pairs are views decoded from the caches. With a
// Merge function the partial outputs are re-read and merged per partition.
func (e *Engine) finalizeJoinWindow(trigger simtime.Time, tupleRefs [][]cacheRef, stats *mapreduce.Stats) ([]records.Pair, simtime.Time, error) {
	q := e.query
	if q.Merge != nil {
		caches := make([][]cacheRef, q.NumReducers)
		for _, refs := range tupleRefs {
			for part, ref := range refs {
				if ref.bytes != 0 {
					caches[part] = append(caches[part], ref)
				}
			}
		}
		return e.finalizeMerged(caches, trigger, stats)
	}

	// Manifest publication: one metadata task covering the whole
	// window; the output bytes themselves are already on disk.
	ready := trigger
	var manifestBytes int64
	var deps []obs.SpanID
	caches := make([]cacheRef, 0, len(tupleRefs)*q.NumReducers)
	for _, refs := range tupleRefs {
		for _, ref := range refs {
			if ref.readyAt > ready {
				ready = ref.readyAt
			}
			if ref.span != 0 {
				deps = append(deps, ref.span)
			}
			if ref.bytes == 0 {
				continue
			}
			manifestBytes += int64(len(ref.pid)) + 16
			stats.BytesOutput += ref.bytes
			caches = append(caches, ref)
		}
	}
	outs, err := e.gatherCaches([][]cacheRef{caches})
	if err != nil {
		return nil, trigger, err
	}
	node := e.sched.PickCacheTaskNode(ready, nil)
	dur := e.mr.Cost.ConcatTask(manifestBytes)
	start, end := node.Reduce.Acquire(ready, dur)
	node.AddLoad(dur)
	stats.ReduceTime += dur
	e.commit(commit{kind: kindCharged, phase: phaseReduce, cost: dur})
	e.obs.Task(obs.TaskSpan{
		Track: obs.NodeTrack(node.ID), Cat: "cachetask", Name: "publish manifest",
		Start: start, End: end, Ready: ready,
		Parent: e.mr.SpanParent, Deps: deps,
		Args: []obs.Label{obs.L("query", q.Name), obs.L("tuples", fmt.Sprint(len(tupleRefs)))},
	})
	return outs[0], simtime.Max(end, trigger), nil
}
