// Package baseline implements the plain-Hadoop execution strategy the
// paper compares Redoop against: the "traditional driver approach" that
// issues a separate MapReduce job for every recurrence (§1, §6.1).
//
// Each arriving batch lands as one HDFS file (the log-collection
// pipeline of §2.1). For recurrence r the driver selects the batch
// files overlapping window r, wraps the user map with a timestamp
// filter restricting it to the window's range — exactly what a
// hand-written Hadoop driver's GetInputPaths plus record filter does —
// and runs a full map/shuffle/reduce over all of it. Nothing is cached
// or reused across recurrences: the overlapping data is re-loaded,
// re-shuffled and re-reduced every time, which is the cost Redoop
// eliminates.
package baseline

import (
	"fmt"

	"redoop/internal/colfmt"
	"redoop/internal/core"
	"redoop/internal/mapreduce"
	"redoop/internal/records"
	"redoop/internal/simtime"
	"redoop/internal/window"
)

// Result reports one recurrence of the baseline driver.
type Result struct {
	Recurrence   int
	Output       []records.Pair
	Stats        mapreduce.Stats
	TriggerAt    simtime.Time
	CompletedAt  simtime.Time
	ResponseTime simtime.Duration
}

// batchFile is one ingested batch in DFS with its covered unit range.
type batchFile struct {
	path   string
	loUnit int64 // inclusive
	hiUnit int64 // exclusive
}

// Driver re-executes a recurring query the plain-Hadoop way. It owns
// its MapReduce runtime (and thus its cluster timeline), so baseline
// and Redoop runs are independently timed over identical data.
type Driver struct {
	mr     *mapreduce.Engine
	query  *core.Query
	frames []window.Frame
	dir    string

	batches  [][]batchFile // per source
	batchSeq int
	next     int
}

// NewDriver validates the query and prepares the driver. The query's
// CacheKey/Merge fields are interpreted as in Redoop; the baseline uses
// Reduce directly over whole windows, so the query's Reduce must be
// window-decomposable (the standard algebraic-aggregate contract the
// Redoop engine also relies on).
func NewDriver(mr *mapreduce.Engine, q *core.Query) (*Driver, error) {
	if mr == nil {
		return nil, fmt.Errorf("baseline: driver needs a MapReduce runtime")
	}
	if err := q.Validate(); err != nil {
		return nil, err
	}
	frames, err := q.Frames()
	if err != nil {
		return nil, err
	}
	return &Driver{
		mr:      mr,
		query:   q,
		frames:  frames,
		dir:     "/hadoop/" + q.Name,
		batches: make([][]batchFile, len(q.Sources)),
	}, nil
}

// NextRecurrence returns the next recurrence RunNext will execute.
func (d *Driver) NextRecurrence() int { return d.next }

// Ingest stores one batch of records for source src as a new HDFS
// file. Batches must arrive in timestamp order with non-overlapping
// ranges (§2.1); the driver records each batch's covered range for
// window file selection.
func (d *Driver) Ingest(src int, recs []records.Record) error {
	if src < 0 || src >= len(d.batches) {
		return fmt.Errorf("baseline: query %q has no source %d", d.query.Name, src)
	}
	if len(recs) == 0 {
		return nil
	}
	lo, hi := recs[0].Ts, recs[0].Ts
	for _, r := range recs {
		if r.Ts < lo {
			lo = r.Ts
		}
		if r.Ts > hi {
			hi = r.Ts
		}
	}
	path := fmt.Sprintf("%s/%s/batch%06d", d.dir, d.query.Sources[src].Name, d.batchSeq)
	d.batchSeq++
	if err := d.mr.DFS.Write(path, colfmt.EncodeRecords(recs)); err != nil {
		return err
	}
	d.batches[src] = append(d.batches[src], batchFile{path: path, loUnit: lo, hiUnit: hi + 1})
	return nil
}

// srcWindow returns source src's unit range for recurrence r: the last
// win_src units before the shared trigger (sources may carry different
// window sizes on the common slide).
func (d *Driver) srcWindow(src, r int) (startUnit, closeUnit int64) {
	closeUnit = d.frames[src].WindowClose(r)
	return closeUnit - d.query.Sources[src].Spec.Win, closeUnit
}

// windowInputs selects the batch files of src overlapping window r.
func (d *Driver) windowInputs(src, r int) []mapreduce.Input {
	startUnit, closeUnit := d.srcWindow(src, r)
	var out []mapreduce.Input
	for _, b := range d.batches[src] {
		if b.hiUnit <= startUnit || b.loUnit >= closeUnit {
			continue
		}
		out = append(out, mapreduce.WholeFile(b.path))
	}
	return out
}

// filteredMap wraps a map function with the window's timestamp range.
func filteredMap(m mapreduce.MapFunc, startUnit, closeUnit int64) mapreduce.MapFunc {
	return func(ts int64, payload []byte, emit mapreduce.Emitter) {
		if ts < startUnit || ts >= closeUnit {
			return
		}
		m(ts, payload, emit)
	}
}

// RunNext executes the next recurrence as one full MapReduce job over
// the window's data.
func (d *Driver) RunNext() (*Result, error) {
	r := d.next
	q := d.query
	spec := q.Spec()
	closeUnit := d.frames[0].WindowClose(r) // shared trigger
	trigger := simtime.Time(0)
	if spec.Kind == window.TimeBased {
		trigger = simtime.Time(closeUnit)
	}

	// Map every source's window files (with the window filter), fuse
	// the waves, then reduce the whole window at once.
	// The baseline reduce composes the query's Reduce with its Merge
	// finalization so one full-window job computes exactly what
	// Redoop's pane-reduce + finalize pipeline computes (aggregates
	// emit under their input key, so the composition is per-group). The
	// partials are collected as every emit collects: copied.
	reduceFn := q.Reduce
	if q.Merge != nil {
		reduceFn = func(key []byte, values [][]byte, emit mapreduce.Emitter) {
			var partials [][]byte
			for _, p := range mapreduce.ReduceGroups(q.Reduce, []mapreduce.Group{{Key: key, Values: values}}) {
				partials = append(partials, p.Value)
			}
			q.Merge(key, partials, emit)
		}
	}
	var phases []*mapreduce.MapPhaseResult
	job := &mapreduce.Job{
		Name:        fmt.Sprintf("%s/w%d", q.Name, r),
		Reduce:      reduceFn,
		Combine:     q.Combine,
		NumReducers: q.NumReducers,
		Partition:   q.Partition,
	}
	for src := range q.Sources {
		srcStart, srcClose := d.srcWindow(src, r)
		srcJob := *job
		srcJob.Map = filteredMap(q.Maps[src], srcStart, srcClose)
		mp, err := d.mr.RunMapPhase(&srcJob, d.windowInputs(src, r), trigger)
		if err != nil {
			return nil, err
		}
		phases = append(phases, mp)
	}
	merged := mapreduce.MergeMapPhases(phases, q.NumReducers, trigger)

	job.Map = q.Maps[0] // any non-nil map satisfies validation for the reduce phase
	reducers, rstats, err := d.mr.RunReducePhase(job, merged, trigger)
	if err != nil {
		return nil, err
	}

	res := &Result{Recurrence: r, TriggerAt: trigger}
	res.Stats = merged.Stats
	res.Stats.Accumulate(rstats)
	res.Stats.Start = trigger
	if res.Stats.End < trigger {
		res.Stats.End = trigger
	}
	for _, rr := range reducers {
		res.Output = append(res.Output, rr.Output...)
	}
	res.CompletedAt = res.Stats.End
	res.ResponseTime = res.CompletedAt.Sub(trigger)
	d.next++
	return res, nil
}
