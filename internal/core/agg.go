package core

import (
	"fmt"

	"redoop/internal/colfmt"
	"redoop/internal/mapreduce"
	"redoop/internal/parallel"
	"redoop/internal/records"
	"redoop/internal/simtime"
	"redoop/internal/window"
)

// runAggregation executes recurrence r of a single-source query: every
// pane is mapped, shuffled and reduced exactly once (its partial output
// cached per partition), and the window's answer is the finalization
// merge over the pane outputs in range — pane-based, not tuple-based
// (paper §6.2.1).
func (e *Engine) runAggregation(r int, trigger simtime.Time) (*RecurrenceResult, error) {
	lo, hi := e.frames[0].WindowRange(r)
	res := &RecurrenceResult{Recurrence: r, WindowLo: lo, WindowHi: hi, TriggerAt: trigger}
	res.Stats.Start = trigger
	res.Stats.End = trigger

	ahead := e.prepareNewPanes(lo, hi)
	routRefs := make(map[window.PaneID][]cacheRef, int(hi-lo)+1)
	for p := lo; p <= hi; p++ {
		refs, reused, recovered, err := e.ensureAggPane(p, trigger, ahead(p), &res.Stats)
		if err != nil {
			return nil, err
		}
		routRefs[p] = refs
		if reused {
			res.ReusedPanes++
		} else {
			res.NewPanes++
		}
		if recovered {
			res.CacheRecoveries++
		}
	}

	out, endMax, err := e.finalizeAggWindow(lo, hi, trigger, routRefs, &res.Stats)
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

// willMapPane reports that ensureAggPane is certain to take pane p to
// its map rung: no sibling can offer the pane's output (reuseEligible),
// and either caches are off or the status matrix has not seen the pane
// and it has no reduce-input signature. These are side-effect-free
// reads that no other pane's commit changes; the ladder checks its
// outcome against them on every pane.
func (e *Engine) willMapPane(p window.PaneID) bool {
	if e.reuseEligible() {
		return false
	}
	done, _ := e.matrix.Done(p)
	var buf pidBuf
	_, known := e.ctrl.lookup(e.query.appendRinPID(buf[:0], 0, e.frames[0].Pane, p, 0), ReduceInput)
	return e.noReuse || !(done || known)
}

// prepareNewPanes returns, for the serial ladder asking in pane order,
// each pane's map compute: nil for a pane to prepare in line (every pane
// of a one-worker engine); for a pane of [lo, hi] that willMapPane, the
// compute run ahead together with the next such panes, one per executor
// worker. The ladder has released a group's map outputs before the next
// group borrows their arrays, and commit records, slot acquisitions and
// ledger charges fall exactly where they do when a pane prepares in line.
func (e *Engine) prepareNewPanes(lo, hi window.PaneID) func(window.PaneID) *panePrep {
	workers := e.mr.WorkerCount()
	var fresh []window.PaneID
	for p := lo; workers > 1 && p <= hi; p++ {
		if e.willMapPane(p) {
			fresh = append(fresh, p)
		}
	}
	var group []*panePrep // prepared, for fresh[:len(group)]
	return func(p window.PaneID) *panePrep {
		if len(fresh) == 0 || p != fresh[0] {
			return nil
		}
		if len(group) == 0 {
			next := fresh[:min(workers, len(fresh))]
			group = make([]*panePrep, len(next))
			parallel.For(workers, len(next), func(i int) { group[i] = e.preparePane(0, next[i]) })
		}
		pp := group[0]
		fresh, group[0], group = fresh[1:], nil, group[1:] // garbage once committed
		return pp
	}
}

// ensureAggPane guarantees pane p's per-partition reduce-output caches
// exist, reusing them when present, rebuilding the reduce outputs from
// surviving reduce-input caches when only the outputs were lost, and
// re-running the pane's full map+shuffle+reduce when the inputs are
// gone too (the recovery ladder of §5). pp is the pane's map compute
// when prepareNewPanes ran it ahead, nil otherwise.
func (e *Engine) ensureAggPane(p window.PaneID, trigger simtime.Time, pp *panePrep, stats *mapreduce.Stats) (refs []cacheRef, reused, recovered bool, err error) {
	q := e.query
	R := q.NumReducers

	certain, mapped := pp != nil || e.willMapPane(p), false
	defer func() {
		if err == nil && certain && !mapped {
			err = fmt.Errorf("core: pane %d was certain to be mapped, yet a cache rung served it", int64(p))
		}
	}()
	paneDone, _ := e.matrix.Done(p)
	if e.noReuse {
		paneDone = false
	}
	var buf pidBuf
	if paneDone {
		refs = make([]cacheRef, R)
		allOut := true
		for part := 0; part < R; part++ {
			ref, ok := e.lookupCache(q.appendRoutTuplePID(buf[:0], paneTuple{p}, part), ReduceOutput)
			if !ok {
				allOut = false
				break
			}
			refs[part] = ref
		}
		if allOut {
			return refs, true, false, nil
		}
		recovered = true
	}
	// Cross-query reuse probe (ReStore-style): before walking the §5
	// recovery ladder, ask the reuse index whether another query over
	// the same shared stream already materialized this pane — exactly,
	// or at a finer pane unit the Merge can compose. A hit
	// short-circuits map+shuffle+reduce into a cheap copy/merge task
	// and counts as a reused pane, not a rebuild.
	if refs, hit, err := e.tryReuseAggPane(p, trigger, stats); err != nil {
		return nil, false, recovered, err
	} else if hit {
		return refs, true, recovered, nil
	}
	// Before re-mapping, try building the outputs from reduce-input
	// caches: they survive output-cache loss (§5's cheap recovery
	// rung) and may have been created by a sibling query sharing this
	// source's CacheKey.
	rins := make([]cacheRef, R)
	allIn := !e.noReuse
	for part := 0; allIn && part < R; part++ {
		ref, ok := e.lookupCache(q.appendRinPID(buf[:0], 0, e.frames[0].Pane, p, part), ReduceInput)
		if !ok {
			allIn = false
			break
		}
		rins[part] = ref
	}
	if allIn {
		refs, err = e.rebuildAggOutputs(p, trigger, rins, stats)
		if err != nil {
			return nil, false, recovered, err
		}
		return refs, false, recovered, nil
	}

	// New (or fully lost) pane: map + shuffle + per-pane reduce.
	mapped = true
	id := fmt.Sprintf("%sP%d", q.Sources[0].Name, int64(p))
	e.sched.MapTasks.Push(id, nil)
	defer e.sched.MapTasks.Remove(id)

	if pp == nil {
		pp = e.preparePane(0, p)
	}
	if e.proactive && len(pp.ins) > 1 {
		refs, err = e.processAggPaneProactive(p, trigger, pp, stats)
		if err != nil {
			return nil, false, recovered, err
		}
		return refs, false, recovered, nil
	}

	mp, err := e.commitPaneMapPhase(0, p, trigger, pp, stats)
	if err != nil {
		return nil, false, recovered, err
	}
	job := e.paneJob(0)
	rres, rstats, err := e.mr.RunReducePhase(job, mp, mp.FirstMapEnd)
	if err != nil {
		return nil, false, recovered, err
	}
	stats.Accumulate(rstats)

	// Encode the reduce-input caches in parallel (pure compute; the
	// outputs were encoded as the reducers emitted them); cache
	// registration below stays serial in partition order.
	rinData, routData := make([][]byte, R), make([][]byte, R)
	parallel.For(e.mr.WorkerCount(), len(rres), func(i int) {
		rr := rres[i]
		rinData[rr.Part], routData[rr.Part] = colfmt.EncodePairs(rr.Input), rr.OutData
	})
	mp.Release() // the caches exist: the map output, and every Input viewing it, is dead
	// Recompute attribution for the cost ledger: the map phase (and
	// shuffle) ran once for the whole pane, so each live partition's
	// reduce-input entry carries an even share of it plus its own
	// sort+spill cost; the reduce-output entry carries the partition's
	// actual reduce task duration.
	mapShare := simtime.Duration(0)
	if live := len(rres); live > 0 {
		mapShare = (mp.Stats.MapTime + rstats.ShuffleTime) / simtime.Duration(live)
	}
	refs = make([]cacheRef, R)
	for part, next := 0, 0; part < R; part++ { // rres[next:] is in partition order
		home := e.sched.HomeNode(part)
		if home == nil {
			return nil, false, recovered, fmt.Errorf("core: no alive node to home partition %d", part)
		}
		node := home.ID
		readyAt := simtime.Max(mp.LastMapEnd, trigger)
		var rinMeta, routMeta cacheMeta
		if next < len(rres) && rres[next].Part == part {
			rr := rres[next]
			next++
			node = rr.Node
			readyAt = rr.End
			rinBytes := int64(len(rinData[part]))
			rinMeta = cacheMeta{span: rr.Span,
				recompute: mapShare + e.mr.Cost.Sort(rinBytes) + e.mr.Cost.DiskWrite(rinBytes)}
			routMeta = cacheMeta{span: rr.Span, recompute: rr.End.Sub(rr.Start)}
		}
		refs[part] = e.registerAggPart(job.Name, p, part, node, readyAt, rinData[part], routData[part], rinMeta, routMeta)
	}
	if err := e.matrix.Update(p); err != nil {
		return nil, false, recovered, err
	}
	return refs, false, recovered, nil
}

// registerAggPart registers partition part of pane p, freshly built by
// job: its reduce-input cache, claimed by every query sharing the
// source, then the reduce-output cache derived from it.
func (e *Engine) registerAggPart(job string, p window.PaneID, part, node int, readyAt simtime.Time, rinData, routData []byte, rinMeta, routMeta cacheMeta) cacheRef {
	rinMeta.pane, rinMeta.part, rinMeta.job = p, part, job
	rin := e.registerCacheFor(e.query.rinPID(0, e.frames[0].Pane, p, part), ReduceInput, node, readyAt, rinData, e.rinUsers(0), rinMeta)
	routMeta.job, routMeta.inputs = job, []cacheRef{rin}
	return e.registerAggRout(p, part, node, readyAt, routData, routMeta)
}

// registerAggRout registers pane p's reduce-output cache for one
// partition, built from this query's own inputs (meta.inputs) and so
// advertised for cross-query reuse.
func (e *Engine) registerAggRout(p window.PaneID, part, node int, readyAt simtime.Time, data []byte, meta cacheMeta) cacheRef {
	meta.pane, meta.part, meta.publish = p, part, true
	return e.registerCache(e.query.routPanePID(p, part), ReduceOutput, node, readyAt, data, meta)
}

// processAggPaneProactive executes one pane at sub-pane granularity
// (§3.3): each sub-pane is mapped, shuffled and reduced independently
// as soon as its data arrives, so only the last sub-pane's (smaller)
// work remains after the window closes; a cheap pane-level combine of
// the sub-pane partials then forms the pane's caches at the usual
// pane granularity, keeping reuse and expiry unchanged.
func (e *Engine) processAggPaneProactive(p window.PaneID, trigger simtime.Time, pp *panePrep, stats *mapreduce.Stats) ([]cacheRef, error) {
	if pp.err != nil {
		return nil, pp.err
	}
	q := e.query
	R := q.NumReducers
	job := e.paneJob(0)

	// Each segment's scheduling commits serially in arrival order;
	// subIn collects, per partition, the sub-panes' sorted reduce inputs.
	subIn := make([][][]records.Pair, R)
	subOut := make([][]records.Pair, R)
	readyAt := make([]simtime.Time, R)
	for i, seg := range pp.ins {
		ready := simtime.Max(seg.AvailableAt, 0)
		mp, err := e.mr.CommitMapPhase(pp.preps[i], ready)
		if err != nil {
			return nil, err
		}
		defer mp.Release() // once the combine below has read its partitions (subIn)
		mp.Stats.BytesRead += seg.HeaderBytes
		stats.Accumulate(mp.Stats)
		rres, rstats, err := e.mr.RunReducePhase(job, mp, mp.FirstMapEnd)
		if err != nil {
			return nil, err
		}
		stats.Accumulate(rstats)
		for _, rr := range rres {
			subIn[rr.Part] = append(subIn[rr.Part], rr.Input)
			subOut[rr.Part] = append(subOut[rr.Part], rr.Output...)
			if rr.End > readyAt[rr.Part] {
				readyAt[rr.Part] = rr.End
			}
		}
	}

	// Pane-level combine of the sub-pane partials: the merge and the
	// cache encodes are pure compute, fanned out per partition.
	routData := make([][]byte, R)
	rinData := make([][]byte, R)
	groupers := e.mr.Groupers(subOut)
	parallel.ForWorker(len(groupers), R, func(worker, part int) {
		if len(subOut[part]) == 0 {
			return
		}
		g := &groupers[worker]
		routData[part], _ = g.Reduce(q.Merge, g.Group(subOut[part]))
		rinData[part] = colfmt.EncodePairs(mapreduce.MergeSortedRuns(nil, subIn[part]...))
	})
	e.mr.PutGroupers(groupers)

	refs := make([]cacheRef, R)
	for part := 0; part < R; part++ {
		home := e.sched.HomeNode(part)
		if home == nil {
			return nil, fmt.Errorf("core: no alive node to home partition %d", part)
		}
		if len(subOut[part]) == 0 {
			refs[part] = e.registerAggPart(job.Name, p, part, home.ID, trigger, nil, nil, cacheMeta{}, cacheMeta{})
			continue
		}
		inBytes := records.PairsSize(subOut[part])
		ct := e.runCacheTask(func() string { return fmt.Sprintf("combine pane %d p%d", int64(p), part) }, phaseCombine, readyAt[part],
			[]cacheRef{{node: home.ID, bytes: inBytes, readyAt: readyAt[part]}},
			e.mr.Cost.MergeTask(inBytes, int64(len(routData[part]))))
		stats.ReduceTime += ct.dur
		stats.BytesCacheRead += inBytes
		// A hit on these entries skips the modeled rebuild-from-inputs
		// reduce (outputs) or the sub-pane sort+spill work (inputs); the
		// sub-pane map/reduce actuals are not attributable per partition,
		// so the ledger uses the iocost floor here.
		rinBytes := int64(len(rinData[part]))
		rinMeta := cacheMeta{span: ct.span,
			recompute: e.mr.Cost.Sort(rinBytes) + e.mr.Cost.DiskWrite(rinBytes)}
		routMeta := cacheMeta{span: ct.span,
			recompute: e.mr.Cost.ReduceTask(rinBytes, int64(len(routData[part])))}
		refs[part] = e.registerAggPart(job.Name, p, part, ct.node, ct.end, rinData[part], routData[part], rinMeta, routMeta)
		if ct.end > stats.End {
			stats.End = ct.end
		}
	}
	if err := e.matrix.Update(p); err != nil {
		return nil, err
	}
	return refs, nil
}

// rebuildAggOutputs re-runs only the per-pane reduce over cached
// reduce inputs (no re-load, no re-shuffle), restoring lost output
// caches.
func (e *Engine) rebuildAggOutputs(p window.PaneID, trigger simtime.Time, rins []cacheRef, stats *mapreduce.Stats) ([]cacheRef, error) {
	q := e.query
	refs := make([]cacheRef, q.NumReducers)
	// Re-reducing cached inputs is pure compute; the serial commit pass
	// does the scheduling, cache registration, and ledger charges.
	rebuilt := make([][]byte, len(rins))
	if err := parallel.CommitOrderErr(e.mr.WorkerCount(), len(rins),
		func(part int) error {
			if rins[part].bytes == 0 {
				return nil
			}
			runs, err := e.sortedRuns(nil, rins[part:part+1])
			if err != nil {
				return err
			}
			var g mapreduce.Grouper
			rebuilt[part], _ = g.ReduceRuns(q.Reduce, runs)
			return nil
		},
		func(part int) error {
			rin := rins[part]
			// No job: the outputs come from cached inputs, not from a
			// MapReduce job's task attempts.
			routMeta := cacheMeta{span: rin.span, inputs: rins[part : part+1]}
			if rin.bytes == 0 {
				refs[part] = e.registerAggRout(p, part, rin.node, simtime.Max(rin.readyAt, trigger), nil, routMeta)
				return nil
			}
			outData := rebuilt[part]
			ct := e.runCacheTask(func() string { return fmt.Sprintf("rebuild pane %d p%d", int64(p), part) }, phaseReduce, trigger, []cacheRef{rin},
				e.mr.Cost.ReduceTask(rin.bytes, int64(len(outData))))
			stats.ReduceTime += ct.dur
			stats.ReduceTasks++
			stats.BytesCacheRead += rin.bytes
			routMeta.span = ct.span
			routMeta.recompute = ct.dur
			refs[part] = e.registerAggRout(p, part, ct.node, ct.end, outData, routMeta)
			if ct.end > stats.End {
				stats.End = ct.end
			}
			return nil
		}); err != nil {
		return nil, err
	}
	if err := e.matrix.Update(p); err != nil {
		return nil, err
	}
	return refs, nil
}

// finalizeAggWindow runs the per-partition finalization merge over the
// window's cached pane outputs; it usually lands on the partition's
// home node, where every pane output is local.
func (e *Engine) finalizeAggWindow(lo, hi window.PaneID, trigger simtime.Time, routRefs map[window.PaneID][]cacheRef, stats *mapreduce.Stats) ([]records.Pair, simtime.Time, error) {
	caches := make([][]cacheRef, e.query.NumReducers)
	for p := lo; p <= hi; p++ {
		for part, ref := range routRefs[p] {
			if ref.bytes != 0 {
				caches[part] = append(caches[part], ref)
			}
		}
	}
	return e.finalizeMerged(caches, trigger, stats)
}
