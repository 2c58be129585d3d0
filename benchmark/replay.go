package main

import (
	"fmt"
	"runtime"

	"redoop/internal/colfmt"
	"redoop/internal/core"
	"redoop/internal/mapreduce"
	"redoop/internal/records"
	"redoop/internal/simtime"
	"redoop/internal/window"
)

// replayer re-executes, after a traced recurrence and on a shadow
// runtime the engine never sees, the public per-layer calls that
// recurrence made for its new panes — one span per call. It is how the
// benchmark gets per-layer times without spans inside the program:
// packer, DFS, colfmt, map prepare/commit/merge, group and reduce run
// on the slide's real records with the query's own functions; the
// cache-read path (Registry.Get + DecodePairs) runs on the engine's own
// resident reduce-output caches, which is what finalization reads.
//
// What RunNext does beyond these calls — finalization merge, the join's
// pane-pair reduces, scheduling, cache bookkeeping — is not replayed; it
// is the residual engine.unattributed_ms.
type replayer struct {
	tr      *tracer
	mr      *mapreduce.Engine
	q       *core.Query
	frames  []window.Frame
	packers []*core.Packer
	reg     *core.Registry

	packerAlloc, mrAlloc uint64 // bytes allocated inside the respective spans
	pairsBytes           int64  // resident reduce-output cache bytes read back
}

// inRunNext names the replayed spans whose work RunNext contains; the
// rest (packer.ingest, the dfs and record-codec calls) happen in Ingest
// or inside one of these.
var inRunNext = []string{
	"packer.flush", "mapreduce.map_prepare", "mapreduce.map_commit", "mapreduce.map_merge",
	"mapreduce.reduce", "colfmt.encode_pairs", "registry.add", "registry.get", "colfmt.decode_pairs",
}

func newReplayer(tr *tracer, eng *core.Engine) (*replayer, error) {
	q := eng.Query()
	frames, err := q.Frames()
	if err != nil {
		return nil, err
	}
	cfg := clusterConfig(eng.MR().Workers)
	mr := cfg.NewRuntime(3)
	rp := &replayer{tr: tr, mr: mr, q: q, frames: frames, reg: core.NewRegistry(mr.Cluster.Node(0))}
	for i, src := range q.Sources {
		pk, err := core.NewPacker(mr.DFS, src.Name, "/replay/"+src.Name, frames[i], eng.Plans()[i])
		if err != nil {
			return nil, err
		}
		rp.packers = append(rp.packers, pk)
	}
	return rp, nil
}

func allocated() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.TotalAlloc
}

func (rp *replayer) job(src int) *mapreduce.Job {
	q := rp.q
	return &mapreduce.Job{
		Name: q.Name + "/" + q.Sources[src].Name,
		Map:  q.Maps[src], Reduce: q.Reduce, Combine: q.Combine,
		NumReducers: q.NumReducers, Partition: q.Partition,
		CacheReduceInput: true, LocalOutput: true,
	}
}

func (rp *replayer) replay(r int, batches []paneBatch, eng *core.Engine) (err error) {
	tr := rp.tr
	root := tr.begin("replay", -1, r)
	defer tr.finish(root)
	step := func(name string, fn func()) {
		if err == nil {
			tr.time(name, root, r, fn)
		}
	}
	closeUnit := rp.frames[0].WindowClose(r)
	trigger := simtime.Time(closeUnit)

	// Packer: what Engine.Ingest and the head of RunNext do.
	a0 := allocated()
	step("packer.ingest", func() {
		for _, b := range batches {
			if err = rp.packers[b.src].Ingest(b.recs); err != nil {
				return
			}
		}
	})
	step("packer.flush", func() {
		for _, pk := range rp.packers {
			if err = pk.FlushThrough(closeUnit); err != nil {
				return
			}
		}
	})
	rp.packerAlloc += allocated() - a0
	if err != nil {
		return err
	}

	// DFS and record codec, on the pane files the packer just wrote.
	inputs := make([][]mapreduce.Input, len(batches))
	var paths []string
	for i, b := range batches {
		ins, ok := rp.packers[b.src].PaneInputs(b.pane)
		if !ok {
			return fmt.Errorf("pane %d of source %d not flushed", b.pane, b.src)
		}
		for _, in := range ins {
			inputs[i] = append(inputs[i], in.Input)
			paths = append(paths, in.Input.Path)
		}
	}
	files := make([][]byte, len(paths))
	step("dfs.read", func() {
		for i, p := range paths {
			if files[i], err = rp.mr.DFS.Read(p); err != nil {
				return
			}
		}
	})
	step("colfmt.decode_records", func() {
		for _, f := range files {
			if _, err = colfmt.DecodeRecords(f); err != nil {
				return
			}
		}
	})
	encoded := make([][]byte, len(batches))
	step("colfmt.encode_records", func() {
		for i, b := range batches {
			encoded[i] = colfmt.EncodeRecords(b.recs)
		}
	})
	step("dfs.write", func() {
		for i, data := range encoded {
			if err = rp.mr.DFS.Write(fmt.Sprintf("/replay/scratch/%d", i), data); err != nil {
				return
			}
		}
	})
	if err != nil {
		return err
	}
	for i := range encoded {
		_ = rp.mr.DFS.Delete(fmt.Sprintf("/replay/scratch/%d", i)) // just written
	}

	// MapReduce: per new pane, every source's map phase, fused, reduced.
	// (The feeder emits a pane's batches together, one per source.)
	a1 := allocated()
	var reduced []mapreduce.ReducerResult
	for i := 0; i < len(batches) && err == nil; i += len(rp.packers) {
		var phases []*mapreduce.MapPhaseResult
		for j := i; j < i+len(rp.packers); j++ {
			var prep *mapreduce.MapPhasePrep
			step("mapreduce.map_prepare", func() {
				prep, err = rp.mr.PrepareMapPhase(rp.job(batches[j].src), inputs[j])
			})
			step("mapreduce.map_commit", func() {
				var mp *mapreduce.MapPhaseResult
				mp, err = rp.mr.CommitMapPhase(prep, trigger)
				phases = append(phases, mp)
			})
		}
		var merged *mapreduce.MapPhaseResult
		step("mapreduce.map_merge", func() {
			merged = mapreduce.MergeMapPhases(phases, rp.q.NumReducers, trigger)
		})
		if err != nil {
			break
		}
		// GroupPairs sorts in place; give it copies as RunReducePhase does.
		copies := make([][]records.Pair, len(merged.Parts))
		for p, part := range merged.Parts {
			copies[p] = append([]records.Pair(nil), part...)
		}
		step("mapreduce.group", func() {
			for _, part := range copies {
				mapreduce.GroupPairs(part)
			}
		})
		step("mapreduce.reduce", func() {
			var rres []mapreduce.ReducerResult
			rres, _, err = rp.mr.RunReducePhase(rp.job(0), merged, merged.FirstMapEnd)
			reduced = append(reduced, rres...)
		})
	}
	rp.mrAlloc += allocated() - a1
	if err != nil {
		return err
	}

	// Cache write path: encode and register the new panes' caches.
	var blobs [][]byte
	step("colfmt.encode_pairs", func() {
		for _, rr := range reduced {
			blobs = append(blobs, colfmt.EncodePairs(rr.Input), colfmt.EncodePairs(rr.Output))
		}
	})
	step("registry.add", func() {
		for i, b := range blobs {
			rp.reg.Add(fmt.Sprint(i), core.ReduceOutput, b)
		}
	})
	for i := range blobs {
		rp.reg.Evict(fmt.Sprint(i), core.ReduceOutput)
	}

	// Cache read path: copy out and decode what finalization reads.
	type entry struct {
		reg *core.Registry
		pid string
	}
	var resident []entry
	for _, id := range eng.MR().Cluster.NodeIDs() {
		reg := eng.Controller().Registry(id)
		if reg == nil {
			continue
		}
		for _, e := range reg.Entries() {
			if !e.Expired && e.Type == core.ReduceOutput {
				resident = append(resident, entry{reg, e.PID})
			}
		}
	}
	cached := make([][]byte, len(resident))
	step("registry.get", func() {
		for i, e := range resident {
			cached[i], _ = e.reg.Get(e.pid, core.ReduceOutput)
		}
	})
	step("colfmt.decode_pairs", func() {
		for _, c := range cached {
			if _, err = colfmt.DecodePairs(c); err != nil {
				return
			}
			rp.pairsBytes += int64(len(c))
		}
	})

	// The shadow DFS must not grow: the replayed panes are done with.
	for _, b := range batches {
		if derr := rp.packers[b.src].DropPaneFiles(b.pane); derr != nil && err == nil {
			err = derr
		}
	}
	return err
}
