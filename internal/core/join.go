package core

import (
	"fmt"
	"strings"

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

// key is the map key / identifier form of a tuple.
func (t paneTuple) key() string {
	parts := make([]string, len(t))
	for i, p := range t {
		parts[i] = fmt.Sprintf("%d", int64(p))
	}
	return strings.Join(parts, "_")
}

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
	// share one cached pane per slot occupancy.
	tupleRefs := make(map[string][]cacheRef)
	var needed []paneTuple
	forEachTupleRanges(los, his, func(t paneTuple) {
		refs, reused, recovered := e.reuseJoinTuple(t)
		if reused {
			tupleRefs[t.key()] = refs
			res.ReusedPairs++
		} else {
			needed = append(needed, append(paneTuple(nil), t...))
			res.NewPairs++
		}
		if recovered {
			res.CacheRecoveries++
		}
	})
	for _, group := range groupTuples(needed) {
		refsByTuple, err := e.joinTupleGroup(group, trigger, rins, &res.Stats)
		if err != nil {
			return nil, err
		}
		for key, refs := range refsByTuple {
			tupleRefs[key] = refs
		}
	}

	// Phase 3: combine the window's tuple outputs into the final result.
	out, endMax, err := e.finalizeJoinWindow(los, his, trigger, tupleRefs, &res.Stats)
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
		if _, known := e.ctrl.Lookup(q.rinPID(src, e.frames[src].Pane, p, part), ReduceInput); known {
			anyKnown = true
		}
		ref, ok := e.lookupCache(q.rinPID(src, e.frames[src].Pane, p, part), ReduceInput)
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

	mp, err := e.runPaneMapPhase(src, p, trigger, stats)
	if err != nil {
		return nil, false, recovered, err
	}

	// The per-partition sort + encode is pure compute; fan it out
	// before the serial shuffle-accounting pass. The cache is stored
	// sorted so pane-tuple joins later merge sorted runs instead of
	// re-sorting: the sort is paid once here, at cache-build time.
	sortedData := make([][]byte, R)
	inSizes := make([]int64, R)
	parallel.For(e.mr.WorkerCount(), R, func(part int) {
		input := mp.Parts[part]
		inSizes[part] = records.PairsSize(input)
		if inSizes[part] == 0 {
			return
		}
		sorted := append([]records.Pair(nil), input...)
		mapreduce.SortPairs(sorted)
		sortedData[part] = colfmt.EncodePairs(sorted)
	})

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

// tupleGroup is a batch of pane tuples sharing one (dimension, pane)
// coordinate that one reducer slot occupancy processes.
type tupleGroup struct {
	tuples []paneTuple
}

// groupTuples buckets the needed tuples so that tuples sharing a hot
// coordinate run in one batched task: each tuple joins the bucket of
// whichever of its coordinates participates in the most needed tuples,
// so the hot new pane's cache is read once per partition rather than
// once per tuple.
func groupTuples(needed []paneTuple) []tupleGroup {
	type coord struct {
		dim  int
		pane window.PaneID
	}
	count := make(map[coord]int)
	for _, t := range needed {
		for d, p := range t {
			count[coord{d, p}]++
		}
	}
	buckets := make(map[coord]*tupleGroup)
	var order []coord
	for _, t := range needed {
		best := coord{0, t[0]}
		for d, p := range t {
			if count[coord{d, p}] > count[best] {
				best = coord{d, p}
			}
		}
		g, ok := buckets[best]
		if !ok {
			g = &tupleGroup{}
			buckets[best] = g
			order = append(order, best)
		}
		g.tuples = append(g.tuples, t)
	}
	out := make([]tupleGroup, 0, len(order))
	for _, k := range order {
		out = append(out, *buckets[k])
	}
	return out
}

// joinTupleGroup computes a batch of pane-tuple joins per partition in
// one slot occupancy: distinct input caches are loaded once, each
// tuple's output is computed and cached separately (preserving
// tuple-granular reuse and expiry), and the status matrix is updated.
func (e *Engine) joinTupleGroup(group tupleGroup, trigger simtime.Time, rins []map[window.PaneID][]cacheRef, stats *mapreduce.Stats) (map[string][]cacheRef, error) {
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

	out := make(map[string][]cacheRef, len(group.tuples))
	for _, t := range group.tuples {
		out[t.key()] = make([]cacheRef, R)
	}
	// Phase 1 (parallel): per partition, load the batch's distinct
	// input caches and compute every tuple's join — pure compute.
	type tupleOut struct {
		key string
		// inBytes is the tuple's summed input-cache bytes — the basis of
		// the ledger's modeled recompute for the tuple's output cache.
		inBytes int64
		data    []byte
	}
	type partCompute struct {
		caches   []cacheRef
		outs     []tupleOut
		inBytes  int64
		outBytes int64
	}
	computed := make([]partCompute, R)
	if err := parallel.ForErr(e.mr.WorkerCount(), R, func(part int) error {
		pc := &partCompute{}
		seen := make(map[string]bool)
		addCache := func(c cacheRef) {
			if c.bytes == 0 || seen[c.pid] {
				return
			}
			seen[c.pid] = true
			pc.caches = append(pc.caches, c)
		}
		for _, t := range group.tuples {
			var tupleIn int64
			var pairs []records.Pair
			for d := 0; d < n; d++ {
				c := rins[d][t[d]][part]
				addCache(c)
				tupleIn += c.bytes
				if c.bytes == 0 {
					continue
				}
				ps, err := e.readCache(c)
				if err != nil {
					return err
				}
				pairs = append(pairs, ps...)
			}
			if tupleIn == 0 {
				pc.outs = append(pc.outs, tupleOut{key: t.key(), data: nil})
				continue
			}
			joined := mapreduce.ReduceGroups(q.Reduce, mapreduce.GroupPairs(pairs))
			data := colfmt.EncodePairs(joined)
			pc.inBytes += tupleIn
			pc.outBytes += int64(len(data))
			pc.outs = append(pc.outs, tupleOut{key: t.key(), inBytes: tupleIn, data: data})
		}
		computed[part] = *pc
		return nil
	}); err != nil {
		return nil, err
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
	for part := 0; part < R; part++ {
		caches := computed[part].caches
		outs := computed[part].outs
		inBytes := computed[part].inBytes
		outBytes := computed[part].outBytes
		if len(caches) == 0 {
			// Entirely empty partition: register empty outputs.
			home := e.sched.HomeNode(part)
			for i, to := range outs {
				out[to.key][part] = e.registerCache(q.routTuplePID(group.tuples[i], part),
					ReduceOutput, home.ID, baseReady, nil, tupleMeta(group.tuples[i], part))
			}
			continue
		}
		ct := e.runCacheTask(fmt.Sprintf("join %s p%d", id, part), phaseReduce, baseReady, caches,
			e.mr.Cost.CachedReduceTask(inBytes, outBytes))
		stats.ReduceTasks++
		stats.ReduceTime += ct.dur
		stats.BytesCacheRead += sumCacheBytes(caches)
		for i, to := range outs {
			// A hit on a tuple's output skips re-joining its inputs: the
			// modeled cached-reduce over this tuple's share of the batch.
			meta := tupleMeta(group.tuples[i], part)
			meta.span, meta.recompute = ct.span, e.mr.Cost.CachedReduceTask(to.inBytes, int64(len(to.data)))
			out[to.key][part] = e.registerCache(q.routTuplePID(group.tuples[i], part),
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

func sumCacheBytes(cs []cacheRef) int64 {
	var n int64
	for _, c := range cs {
		n += c.bytes
	}
	return n
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
// tuple outputs. With no finalization function the result is the union
// of the already-materialized tuple outputs — the new tuples' results
// "combined with the cached reducer outputs from last occurrence"
// (§6.2.2) — so the finalize step publishes a manifest referencing
// those output files rather than physically rewriting them (Hadoop
// outputs are directories of part files; a Redoop recurrence's output
// directory lists its tuples' part files). With a Merge function the
// partial outputs are genuinely re-read and merged per partition.
func (e *Engine) finalizeJoinWindow(los, his []window.PaneID, trigger simtime.Time, tupleRefs map[string][]cacheRef, stats *mapreduce.Stats) ([]records.Pair, simtime.Time, error) {
	q := e.query
	endMax := trigger
	var output []records.Pair

	if q.Merge == nil {
		// Manifest publication: one metadata task covering the whole
		// window; the output bytes themselves are already on disk.
		// Cache reads fan out per tuple; the manifest accounting and
		// output concatenation then replay in tuple order.
		var tuples []paneTuple
		forEachTupleRanges(los, his, func(t paneTuple) {
			tuples = append(tuples, append(paneTuple(nil), t...))
		})
		type tupleRead struct {
			pairs    []records.Pair
			bytes    int64
			manifest int64
			ready    simtime.Time
			spans    []obs.SpanID
		}
		reads := make([]tupleRead, len(tuples))
		if err := parallel.ForErr(e.mr.WorkerCount(), len(tuples), func(i int) error {
			tr := &reads[i]
			for part := 0; part < q.NumReducers; part++ {
				ref := tupleRefs[tuples[i].key()][part]
				if ref.readyAt > tr.ready {
					tr.ready = ref.readyAt
				}
				if ref.span != 0 {
					tr.spans = append(tr.spans, ref.span)
				}
				if ref.bytes == 0 {
					continue
				}
				tr.manifest += int64(len(ref.pid)) + 16
				ps, err := e.readCache(ref)
				if err != nil {
					return err
				}
				tr.pairs = append(tr.pairs, ps...)
				tr.bytes += ref.bytes
			}
			return nil
		}); err != nil {
			return nil, endMax, err
		}
		ready := trigger
		var manifestBytes int64
		var deps []obs.SpanID
		for _, tr := range reads {
			if tr.ready > ready {
				ready = tr.ready
			}
			manifestBytes += tr.manifest
			deps = append(deps, tr.spans...)
			output = append(output, tr.pairs...)
			stats.BytesOutput += tr.bytes
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
			Args: []obs.Label{obs.L("query", q.Name), obs.L("tuples", fmt.Sprint(len(tuples)))},
		})
		if end > endMax {
			endMax = end
		}
		return output, endMax, nil
	}

	// Phase 1 (parallel): per partition, gather tuple outputs and run
	// the finalization merge — pure compute.
	type finalPart struct {
		caches   []cacheRef
		out      []records.Pair
		inBytes  int64
		outBytes int64
	}
	parts := make([]finalPart, q.NumReducers)
	if err := parallel.ForErr(e.mr.WorkerCount(), q.NumReducers, func(part int) error {
		fp := &parts[part]
		var pairs []records.Pair
		var ferr error
		forEachTupleRanges(los, his, func(t paneTuple) {
			if ferr != nil {
				return
			}
			ref := tupleRefs[t.key()][part]
			if ref.bytes == 0 {
				return
			}
			fp.caches = append(fp.caches, ref)
			ps, err := e.readCache(ref)
			if err != nil {
				ferr = err
				return
			}
			pairs = append(pairs, ps...)
		})
		if ferr != nil {
			return ferr
		}
		if len(fp.caches) == 0 {
			return nil
		}
		fp.out = mapreduce.ReduceGroups(q.Merge, mapreduce.GroupPairs(pairs))
		fp.inBytes = records.PairsSize(pairs)
		fp.outBytes = records.PairsSize(fp.out)
		return nil
	}); err != nil {
		return nil, endMax, err
	}
	// Phase 2 (serial, partition order): Eq. 4 scheduling and stats.
	for part := 0; part < q.NumReducers; part++ {
		fp := parts[part]
		if len(fp.caches) == 0 {
			continue
		}
		ct := e.runCacheTask(fmt.Sprintf("finalize p%d", part), phaseReduce, trigger, fp.caches, e.mr.Cost.MergeTask(fp.inBytes, fp.outBytes))
		stats.ReduceTime += ct.dur
		stats.ReduceTasks++
		stats.BytesCacheRead += fp.inBytes
		stats.BytesOutput += fp.outBytes
		if ct.end > endMax {
			endMax = ct.end
		}
		output = append(output, fp.out...)
	}
	return output, endMax, nil
}
