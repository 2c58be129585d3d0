package core

import (
	"redoop/internal/colfmt"
	"redoop/internal/mapreduce"
	"redoop/internal/obs"
	"redoop/internal/parallel"
	"redoop/internal/records"
	"redoop/internal/simtime"
	"redoop/internal/window"
)

// willMapPane reports that ensurePane is certain to take aggregation
// pane p to its map rung: no sibling can offer the pane's output
// (reuseEligible), and either caches are off or the status matrix has
// not seen the pane and its first reduce input is not resident. These are
// side-effect-free reads that no other pane's commit changes; the ladder
// checks its outcome against them on every pane. A join's panes are
// never reported, so never prepared ahead.
func (e *Engine) willMapPane(p window.PaneID) bool {
	if len(e.query.Sources) > 1 || e.reuseEligible() {
		return false
	}
	done, _ := e.matrix.Done(p)
	var buf pidBuf
	_, cached := e.ctrl.resolve(e.query.appendRinPID(buf[:0], 0, e.frames[0].Pane, p, 0), ReduceInput)
	return e.noReuse || !(done || cached)
}

// prepareNewPanes returns, for the serial ladder asking in pane order,
// each pane's compute half: nil for a pane to prepare in line (every pane
// of a one-worker or proactive engine); for a pane of [lo, hi] that
// willMapPane, the compute run ahead in one pass over the pool, a Grouper
// per worker. A prepared pane holds no map output, and commit records,
// slot acquisitions and ledger charges fall where they do in line.
func (e *Engine) prepareNewPanes(lo, hi window.PaneID) func(window.PaneID) *panePrep {
	var fresh []window.PaneID
	for p := lo; e.mr.WorkerCount() > 1 && !e.proactive && p <= hi; p++ {
		if e.willMapPane(p) {
			fresh = append(fresh, p)
		}
	}
	if len(fresh) == 0 {
		return func(window.PaneID) *panePrep { return nil }
	}
	prepared := make([]*panePrep, len(fresh))
	gs := e.mr.Groupers(nil)
	parallel.ForWorker(len(gs), len(fresh), func(worker, i int) {
		prepared[i] = e.preparePane(0, fresh[i], gs[worker:worker+1])
	})
	e.mr.PutGroupers(gs)
	return func(p window.PaneID) *panePrep {
		if len(fresh) == 0 || p != fresh[0] {
			return nil
		}
		pp := prepared[0]
		fresh, prepared = fresh[1:], prepared[1:]
		return pp
	}
}

// buildAggPane is the commit half of an aggregation pane's map rung: its
// tasks are scheduled, and refs gets the reduce-output caches, each
// registered after the reduce-input cache it derives from, which rins
// gets.
func (e *Engine) buildAggPane(p window.PaneID, trigger simtime.Time, pp *panePrep, refs, rins []cacheRef, stats *mapreduce.Stats) error {
	mp, err := e.commitPaneMapPhase(0, p, trigger, pp, stats)
	if err != nil {
		return err
	}
	job := e.jobs[0]
	rres, rstats, err := e.mr.CommitReducePhase(job, pp.red, mp, mp.FirstMapEnd)
	if err != nil {
		return err
	}
	stats.Accumulate(rstats)
	// Recompute attribution for the cost ledger: the map phase (and
	// shuffle) ran once for the whole pane, so each live partition's
	// reduce-input entry carries an even share of it plus its own
	// sort+spill cost; the reduce-output entry carries the partition's
	// actual reduce task duration.
	mapShare := simtime.Duration(0)
	if live := len(rres); live > 0 {
		mapShare = (mp.Stats.MapTime + rstats.ShuffleTime) / simtime.Duration(live)
	}
	users, set := e.rinUsers(0), e.paneSet(0, paneTuple{p}, true, true)
	for part, next := 0, 0; part < e.query.NumReducers; part++ { // rres[next:] is in partition order
		home, err := e.home(part)
		if err != nil {
			return err
		}
		node := home.ID
		readyAt := simtime.Max(mp.LastMapEnd, trigger)
		rinMeta, routMeta := cacheMeta{users: users}, cacheMeta{}
		var routData []byte
		if next < len(rres) && rres[next].Part == part {
			rr := rres[next]
			next++
			node, readyAt, routData = rr.Node, rr.End, rr.OutData
			rinBytes := int64(len(pp.rin[part]))
			rinMeta.span, rinMeta.recompute = rr.Span, mapShare+e.mr.Cost.Sort(rinBytes)+e.mr.Cost.DiskWrite(rinBytes)
			routMeta = cacheMeta{span: rr.Span, recompute: rr.End.Sub(rr.Start)}
		}
		refs[part] = e.registerAggPart(job.Name, p, part, node, readyAt, pp.rin[part], routData, rinMeta, routMeta, rins, &set)
	}
	return nil
}

// registerAggPart registers partition part of pane p, freshly built by
// job, from the pane's set: its reduce-input cache, claimed by
// rinMeta.users, into rins[part], then the reduce-output cache derived
// from it.
func (e *Engine) registerAggPart(job string, p window.PaneID, part, node int, readyAt simtime.Time, rinData, routData []byte, rinMeta, routMeta cacheMeta, rins []cacheRef, set *cacheSet) cacheRef {
	rinMeta.pane, rinMeta.part, rinMeta.job = p, part, job
	rins[part] = e.registerCache(&set.rin[part], node, readyAt, rinData, rinMeta)
	routMeta.job, routMeta.inputs = job, rins[part:part+1]
	return e.registerAggRout(p, part, node, readyAt, routData, routMeta, &set.rout[part])
}

// registerAggRout registers pane p's reduce-output cache for one
// partition, built from this query's own inputs (meta.inputs) and so
// advertised for cross-query reuse, as rec, its set's record, or alone
// when rec is nil.
func (e *Engine) registerAggRout(p window.PaneID, part, node int, readyAt simtime.Time, data []byte, meta cacheMeta, rec *cacheRecord) cacheRef {
	meta.pane, meta.part, meta.publish = p, part, true
	if rec == nil {
		var buf pidBuf
		rec = newRecord(e.query.appendRoutTuplePID(buf[:0], paneTuple{p}, part), ReduceOutput)
	}
	return e.registerCache(rec, node, readyAt, data, meta)
}

// processAggPaneProactive executes one pane at sub-pane granularity
// (§3.3): each sub-pane is mapped, shuffled and reduced independently
// as soon as its data arrives, so only the last sub-pane's (smaller)
// work remains after the window closes; a cheap pane-level combine of
// the sub-pane partials then forms the pane's caches at the usual
// pane granularity, keeping reuse and expiry unchanged. refs and rins
// get the pane's caches as buildAggPane's do.
func (e *Engine) processAggPaneProactive(p window.PaneID, trigger simtime.Time, pp *panePrep, refs, rins []cacheRef, stats *mapreduce.Stats) error {
	if pp.err != nil {
		return pp.err
	}
	q := e.query
	R := q.NumReducers
	job := e.jobs[0]

	// Each segment's scheduling commits serially in arrival order;
	// subIn collects, per partition, the sub-panes' sorted reduce inputs.
	subIn := make([][][]records.Pair, R)
	subOut := make([][]records.Pair, R)
	readyAt := make([]simtime.Time, R)
	for i, seg := range pp.ins {
		ready := simtime.Max(seg.AvailableAt, 0)
		mp, err := e.mr.CommitMapPhase(pp.preps[i], ready)
		if err != nil {
			return err
		}
		defer mp.Release() // once the combine below has read its partitions (subIn)
		mp.Stats.BytesRead += seg.HeaderBytes
		stats.Accumulate(mp.Stats)
		rres, rstats, err := e.mr.RunReducePhase(job, mp, mp.FirstMapEnd)
		if err != nil {
			return err
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

	users, set := e.rinUsers(0), e.paneSet(0, paneTuple{p}, true, true)
	for part := 0; part < R; part++ {
		home, err := e.home(part)
		if err != nil {
			return err
		}
		if len(subOut[part]) == 0 {
			refs[part] = e.registerAggPart(job.Name, p, part, home.ID, trigger, nil, nil, cacheMeta{users: users}, cacheMeta{}, rins, &set)
			continue
		}
		// The combine reads the sub-pane partials where the reducers
		// left them, at the home; rins[part] holds them until the
		// reduce input registered below takes their place.
		inBytes := records.PairsSize(subOut[part])
		rins[part] = cacheRef{node: home.ID, bytes: inBytes, readyAt: readyAt[part]}
		ct := e.runCacheTask(obs.TaskSpan{Kind: obs.SpanCombine, Pane: int64(p), Part: part}, phaseCombine, readyAt[part],
			rins[part:part+1], e.mr.Cost.MergeTask(inBytes, int64(len(routData[part]))), stats)
		stats.BytesCacheRead += inBytes
		// A hit on these entries skips the modeled rebuild-from-inputs
		// reduce (outputs) or the sub-pane sort+spill work (inputs); the
		// sub-pane map/reduce actuals are not attributable per partition,
		// so the ledger uses the iocost floor here.
		rinBytes := int64(len(rinData[part]))
		rinMeta := cacheMeta{span: ct.span, users: users,
			recompute: e.mr.Cost.Sort(rinBytes) + e.mr.Cost.DiskWrite(rinBytes)}
		routMeta := cacheMeta{span: ct.span,
			recompute: e.mr.Cost.ReduceTask(rinBytes, int64(len(routData[part])))}
		refs[part] = e.registerAggPart(job.Name, p, part, ct.node, ct.end, rinData[part], routData[part], rinMeta, routMeta, rins, &set)
	}
	return nil
}

// rebuildAggOutputs is the rebuild rung: it re-runs only the per-pane
// reduce over the pane's cached reduce inputs, rins (no re-load, no
// re-shuffle), restoring the lost output caches into refs.
func (e *Engine) rebuildAggOutputs(p window.PaneID, trigger simtime.Time, rins, refs []cacheRef, stats *mapreduce.Stats) error {
	caches := make([][]cacheRef, len(rins))
	for part := range rins {
		if rins[part].bytes != 0 {
			caches[part] = rins[part : part+1]
		}
	}
	rebuilt, err := e.reduceCached(e.query.Reduce, caches)
	if err != nil {
		return err
	}
	for part, rin := range rins {
		// No job: the outputs come from cached inputs, not from a
		// MapReduce job's task attempts.
		routMeta := cacheMeta{span: rin.span, inputs: rins[part : part+1]}
		if rin.bytes == 0 {
			refs[part] = e.registerAggRout(p, part, rin.node, simtime.Max(rin.readyAt, trigger), nil, routMeta, nil)
			continue
		}
		outData := rebuilt[part].data
		ct := e.runCacheTask(obs.TaskSpan{Kind: obs.SpanRebuild, Pane: int64(p), Part: part}, phaseReduce, trigger, caches[part],
			e.mr.Cost.ReduceTask(rin.bytes, int64(len(outData))), stats)
		stats.ReduceTasks++
		stats.BytesCacheRead += rin.bytes
		routMeta.span, routMeta.recompute = ct.span, ct.dur
		refs[part] = e.registerAggRout(p, part, ct.node, ct.end, outData, routMeta, nil)
	}
	return nil
}

// finalizeAggWindow runs the per-partition finalization merge over the
// window's cached pane outputs, routs; it usually lands on the
// partition's home node, where every pane output is local. Each
// partition's list of non-empty outputs is carved out of one slab.
func (e *Engine) finalizeAggWindow(trigger simtime.Time, routs windowRefs, stats *mapreduce.Stats) ([]records.Pair, error) {
	R, n := e.query.NumReducers, int(routs.hi-routs.lo)+1
	caches, slab := make([][]cacheRef, R), make([]cacheRef, R*n)
	for part := range caches {
		caches[part] = slab[part*n : part*n : (part+1)*n]
	}
	for p := routs.lo; p <= routs.hi; p++ {
		for part, ref := range routs.pane(p) {
			if ref.bytes != 0 {
				caches[part] = append(caches[part], ref)
			}
		}
	}
	return e.finalizeMerged(caches, trigger, stats)
}
