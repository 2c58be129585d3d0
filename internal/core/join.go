package core

import (
	"cmp"
	"fmt"

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

// joinWindow computes the window of recurrence res from its source
// panes' reduce inputs, rins[src][pane]: every pane tuple in the window
// is joined exactly once. Tuples already computed in earlier windows are
// reused from their output caches; the rest are grouped into batched
// tasks that share one cached pane per slot occupancy. tuples and
// tupleRefs are in forEachTupleRanges order: a tuple's index is its
// ordinal. Their panes and their per-partition references are each one
// array. The window's tuple outputs are then combined into its result.
func (e *Engine) joinWindow(res *RecurrenceResult, los, his []window.PaneID, rins []windowRefs) ([]records.Pair, error) {
	n, R, count := len(los), e.query.NumReducers, 1
	for d := range los {
		count *= max(0, int(his[d]-los[d])+1)
	}
	panes, refs := make([]window.PaneID, 0, count*n), make([]cacheRef, count*R)
	tuples, tupleRefs := make([]paneTuple, 0, count), make([][]cacheRef, 0, count)
	var needed []int
	forEachTupleRanges(los, his, func(t paneTuple) {
		ord := len(tuples)
		tr := refs[ord*R : (ord+1)*R : (ord+1)*R]
		reused := false
		if done, _ := e.matrix.Done(t...); done && !e.noReuse {
			if reused, _ = e.probeParts(tr, ReduceOutput, 0, t); !reused {
				res.CacheRecoveries++ // tr is overwritten by the tuple's join
			}
		}
		if reused {
			res.ReusedPairs++
		} else {
			needed = append(needed, ord)
			res.NewPairs++
		}
		panes = append(panes, t...)
		tuples = append(tuples, panes[ord*n:(ord+1)*n:(ord+1)*n])
		tupleRefs = append(tupleRefs, tr)
	})
	for _, group := range groupTuples(tuples, needed) {
		if err := e.joinTupleGroup(group, res.TriggerAt, rins, tupleRefs, &res.Stats); err != nil {
			return nil, err
		}
	}
	return e.finalizeJoinWindow(res.TriggerAt, tupleRefs, &res.Stats)
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

// buildJoinInputs is the commit half of a join source pane's map rung:
// each partition is shuffled to its home node and spilled there as the
// reduce-input cache refs gets.
func (e *Engine) buildJoinInputs(src int, p window.PaneID, trigger simtime.Time, pp *panePrep, refs []cacheRef, stats *mapreduce.Stats) error {
	q := e.query
	R := q.NumReducers
	mp, err := e.commitPaneMapPhase(src, p, trigger, pp, stats)
	if err != nil {
		return err
	}

	// Map cost is paid once for the whole pane; each live partition's
	// reduce-input entry carries an even share of it in its ledger
	// recompute, on top of its own shuffle and spill actuals.
	inSizes, live := make([]int64, R), 0
	for part, row := range mp.PartSrcBytes {
		for _, b := range row {
			inSizes[part] += b
		}
		if inSizes[part] > 0 {
			live++
		}
	}
	mapShare := simtime.Duration(0)
	if live > 0 {
		mapShare = mp.Stats.MapTime / simtime.Duration(live)
	}
	users := e.rinUsers(src)
	var buf pidBuf
	for part := 0; part < R; part++ {
		home, err := e.home(part)
		if err != nil {
			return err
		}
		inBytes := inSizes[part]
		readyAt := simtime.Max(mp.LastMapEnd, trigger)
		if e.proactive {
			readyAt = mp.LastMapEnd
		}
		rinMeta := cacheMeta{src: src, pane: p, part: part, job: e.jobs[src].Name, users: users}
		pid := q.appendRinPID(buf[:0], src, e.frames[src].Pane, p, part)
		if inBytes == 0 {
			refs[part] = e.registerCache(pid, ReduceInput, home.ID, readyAt, nil, rinMeta)
			continue
		}
		// The reducer-side copy to the home; the spill to the
		// reduce-input cache is a local write.
		_, _, shuffleStart, availAt := mp.Shuffle(e.mr.Cost, part, home.ID, mp.FirstMapEnd)
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
		span := obs.TaskSpan{
			Kind: obs.SpanPaneShuffle, Track: obs.NodeTrack(home.ID),
			Start: shuffleStart, End: availAt, Ready: shuffleStart,
			Parent: e.mr.SpanParent, Shared: mp.Spans,
			Job: q.Name, Input: q.Sources[src].Name, Pane: int64(p), Part: part,
		}
		shuffleSpan := e.obs.Task(span)
		span.Kind, span.Start, span.End, span.Ready = obs.SpanSpill, start, end, availAt
		span.Shared, span.Deps = nil, [2]obs.SpanID{shuffleSpan}
		spillSpan := e.obs.Task(span)
		rinMeta.span, rinMeta.recompute = spillSpan, mapShare+availAt.Sub(shuffleStart)+spill
		refs[part] = e.registerCache(pid, ReduceInput, home.ID, end, pp.rin[part], rinMeta)
		if end > stats.End {
			stats.End = end
		}
	}
	return nil
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
// most needed tuples, so joinTupleGroup validates the hot new pane's
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
// one slot occupancy and stores each tuple's per-partition output
// references at tupleRefs[its ordinal]. Per partition every distinct
// input cache is validated once for the whole group and read in place:
// the caches being stored key-sorted, a tuple's reduce input is a merge
// of its panes' runs, grouped as it is merged, and the reducer's emits
// are the tuple's output cache as they come (Grouper.ReduceRuns). Each
// tuple's output is cached separately (tuple-granular reuse and expiry);
// the status matrix is updated.
func (e *Engine) joinTupleGroup(group tupleGroup, trigger simtime.Time, rins []windowRefs, tupleRefs [][]cacheRef, stats *mapreduce.Stats) error {
	q := e.query
	R := q.NumReducers
	n := len(q.Sources)
	baseReady := trigger
	if e.proactive {
		baseReady = 0 // gated only by the input caches' readiness
	}
	id := groupID(q, group)

	// The batch's distinct input panes in order of first use, and each
	// tuple's as indexes of them (at[i*n+d]): the same in every partition.
	var coords []paneCoord
	index := make(map[paneCoord]int)
	at := make([]int, len(group.tuples)*n)
	for i, t := range group.tuples {
		for d, p := range t {
			k, ok := index[paneCoord{d, p}]
			if !ok {
				k = len(coords)
				index[paneCoord{d, p}] = k
				coords = append(coords, paneCoord{d, p})
			}
			at[i*n+d] = k
		}
	}
	// Phase 1 (parallel): per partition, view the batch's distinct input
	// caches and compute every tuple's join — pure compute.
	type tupleOut struct {
		// inBytes is the tuple's summed input-cache bytes — the basis of
		// the ledger's modeled recompute for the tuple's output cache.
		inBytes int64
		data    []byte
	}
	type partCompute struct {
		outs     []tupleOut // aligned with group.tuples
		inBytes  int64
		outBytes int64
	}
	computed := make([]partCompute, R)
	T := len(group.tuples)
	outs := make([]tupleOut, R*T) // each partition's share, pc.outs
	// Per pool worker a Grouper from the engine's free list (the reduce
	// emit's writer and the merge's cursors) and a share of one array of
	// run views: the partition's input caches, then one tuple's runs.
	groupers := e.mr.Groupers(nil)
	stride := len(coords) + n
	views := make([]colfmt.PairRun, len(groupers)*stride)
	errs := make([]error, R)
	parallel.ForWorker(len(groupers), R, func(worker, part int) {
		pc, g := &computed[part], &groupers[worker]
		ins := views[worker*stride : worker*stride+len(coords)]
		runs := views[worker*stride+len(coords) : (worker+1)*stride : (worker+1)*stride]
		for k, c := range coords {
			ref := rins[c.dim].pane(c.pane)[part]
			if ref.bytes == 0 {
				continue
			}
			data, err := e.cacheBytes(ref)
			if err == nil {
				ins[k], err = mapreduce.SortedRun(data)
			}
			if err != nil {
				errs[part] = err
				return
			}
		}
		pc.outs = outs[part*T : (part+1)*T]
		for i, t := range group.tuples {
			runs = runs[:0]
			var tupleIn int64
			for d, p := range t {
				if ref := rins[d].pane(p)[part]; ref.bytes != 0 {
					tupleIn += ref.bytes
					runs = append(runs, ins[at[i*n+d]])
				}
			}
			if tupleIn == 0 {
				continue
			}
			data, _ := g.ReduceRuns(q.Reduce, runs)
			pc.inBytes += tupleIn
			pc.outBytes += int64(len(data))
			pc.outs[i] = tupleOut{inBytes: tupleIn, data: data}
		}
	})
	e.mr.PutGroupers(groupers)
	if err := cmp.Or(errs...); err != nil { // the lowest partition's, whichever worker hit it
		return err
	}
	// Phase 2 (serial, partition order): Eq. 4 scheduling, cache
	// registration and stats. Every output's inputs share one array.
	inputs := make([]cacheRef, 0, R*len(group.tuples)*n)
	tupleMeta := func(t paneTuple, part int) cacheMeta {
		lo := len(inputs)
		for d, p := range t {
			inputs = append(inputs, rins[d].pane(p)[part])
		}
		return cacheMeta{pane: t[0], part: part, inputs: inputs[lo:len(inputs):len(inputs)]}
	}
	caches := make([]cacheRef, 0, len(coords)) // a partition's distinct non-empty inputs
	var buf pidBuf
	for part, pc := range computed {
		caches = caches[:0]
		var cacheBytes int64
		for _, c := range coords {
			if ref := rins[c.dim].pane(c.pane)[part]; ref.bytes != 0 {
				caches, cacheBytes = append(caches, ref), cacheBytes+ref.bytes
			}
		}
		if len(caches) == 0 {
			// Entirely empty partition: register empty outputs.
			home, err := e.home(part)
			if err != nil {
				return err
			}
			for i, t := range group.tuples {
				tupleRefs[group.ords[i]][part] = e.registerCache(q.appendRoutTuplePID(buf[:0], t, part),
					ReduceOutput, home.ID, baseReady, nil, tupleMeta(t, part))
			}
			continue
		}
		ct := e.runCacheTask(obs.TaskSpan{Kind: obs.SpanJoin, Input: id, Part: part}, phaseReduce, baseReady, caches,
			e.mr.Cost.CachedReduceTask(pc.inBytes, pc.outBytes), stats)
		stats.ReduceTasks++
		stats.BytesCacheRead += cacheBytes
		for i, t := range group.tuples {
			// A hit on a tuple's output skips re-joining its inputs: the
			// modeled cached-reduce over this tuple's share of the batch.
			to := pc.outs[i]
			meta := tupleMeta(t, part)
			meta.span, meta.recompute = ct.span, e.mr.Cost.CachedReduceTask(to.inBytes, int64(len(to.data)))
			tupleRefs[group.ords[i]][part] = e.registerCache(q.appendRoutTuplePID(buf[:0], t, part),
				ReduceOutput, ct.node, ct.end, to.data, meta)
		}
	}
	for _, t := range group.tuples {
		if err := e.matrix.Update(t...); err != nil {
			return err
		}
		e.root.Updates++
	}
	return nil
}

// groupID names a batched tuple task's join span, e.g. "S1P3+S2P4" or
// "S1P3+8 tuples".
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
func (e *Engine) finalizeJoinWindow(trigger simtime.Time, tupleRefs [][]cacheRef, stats *mapreduce.Stats) ([]records.Pair, error) {
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
		}
	}
	out, err := e.gatherCaches(tupleRefs)
	if err != nil {
		return nil, err
	}
	pl := e.sched.PickCacheTaskNode(ready, nil, e.obs != nil)
	e.commit(commit{kind: kindPlaced, at: ready, place: pl})
	node := pl.Node
	dur := e.mr.Cost.ConcatTask(manifestBytes)
	start, end := node.Reduce.Acquire(ready, dur)
	node.AddLoad(dur)
	stats.ReduceTime += dur
	stats.End = simtime.Max(stats.End, end)
	e.commit(commit{kind: kindCharged, phase: phaseReduce, cost: dur})
	span := obs.TaskSpan{
		Kind: obs.SpanManifest, Track: obs.NodeTrack(node.ID),
		Start: start, End: end, Ready: ready, Parent: e.mr.SpanParent,
		Job: q.Name, Count: int64(len(tupleRefs)),
	}
	span.WaitOn(deps...)
	e.obs.Task(span)
	return out, nil
}
