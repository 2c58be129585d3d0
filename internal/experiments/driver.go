package experiments

// The run driver: the one feed → trigger → verify loop behind every
// figure, ablation, chaos regime, reuse report and redoopctl run
// (DESIGN.md "Run driver"). Nothing else in this package or under cmd/
// calls RunNext.

import (
	"fmt"

	"redoop/internal/baseline"
	"redoop/internal/chaos"
	"redoop/internal/core"
	"redoop/internal/lineage"
	"redoop/internal/mapreduce"
	"redoop/internal/oracle"
	"redoop/internal/records"
)

// ingestFunc is the batch sink signature every link of the ingest
// chain shares.
type ingestFunc = func(src int, recs []records.Record) error

// lane is one recurring query of a run, built by the caller on the
// run's runtime: a Redoop engine or the plain-Hadoop baseline driver.
type lane struct {
	name    string       // system or query label in errors, verdicts and series
	eng     *core.Engine // nil for a baseline lane
	query   *core.Query
	next    func() int // the next recurrence to trigger
	ingest  ingestFunc
	runNext func() (*core.RecurrenceResult, error)
}

func redoopLane(name string, eng *core.Engine) lane {
	return lane{name, eng, eng.Query(), eng.NextRecurrence, eng.Ingest, eng.RunNext}
}

// hadoopLane lifts the baseline's results into the engine's result
// type; the pane, pair and recovery counters stay zero.
func hadoopLane(name string, drv *baseline.Driver, q *core.Query) lane {
	return lane{name, nil, q, drv.NextRecurrence, drv.Ingest, func() (*core.RecurrenceResult, error) {
		res, err := drv.RunNext()
		if err != nil {
			return nil, err
		}
		return &core.RecurrenceResult{
			Recurrence: res.Recurrence, Output: res.Output, Stats: res.Stats,
			TriggerAt: res.TriggerAt, CompletedAt: res.CompletedAt, ResponseTime: res.ResponseTime,
		}, nil
	}}
}

// drive is one run: k ≥ 1 lanes over one runtime.
type drive struct {
	mr      *mapreduce.Engine
	lanes   []lane
	windows int // recurrences per lane
	// sink is where fed batches land: the single lane's own Ingest, a
	// shared hub, a fan-out.
	sink ingestFunc
	// feed delivers every batch whose range starts before `through`.
	feed func(through int64, deliver ingestFunc) error
	// verified runs honour Config.OracleCheck and Config.Chaos; the
	// baseline, the ablation variants and the sharing sweep run clean.
	verified bool
	// before, when non-nil, runs between a lane's recurrence r's last
	// batch and its trigger, after the chaos injector: the scripted
	// fault hook (cache drops, node failures).
	before func(r int, mr *mapreduce.Engine)
	// window, when non-nil, receives lane l's every completed
	// recurrence, after Config.OnVerdict and before a failed verdict
	// aborts the run.
	window func(l int, res *core.RecurrenceResult)
}

// provenance is the store verified engines record into: the shared one
// or, under OracleCheck, a private one so the oracle's lineage audit
// always has provenance to check.
func (c Config) provenance() *lineage.Store {
	if c.Lineage == nil && c.OracleCheck {
		return lineage.New(0)
	}
	return c.Lineage
}

// run executes d's lanes in global window-close order. Lanes share one
// runtime whose slot timelines only advance, so a recurrence whose
// window closes earlier must run first even if it belongs to another
// lane; ties go to the lowest lane, which keeps the producer of an
// identical-geometry pair ahead of its sibling.
func (c Config) run(d drive) error {
	closes := make([]func(int) int64, len(d.lanes))
	for i, l := range d.lanes {
		frames, err := l.query.Frames()
		if err != nil {
			return err
		}
		closes[i] = frames[0].WindowClose
	}

	// Ingest chain, innermost first: sink ← oracle tee ← chaos delay
	// gate. Batches a DelayBatch action holds bypass the tee until the
	// injector releases them through `inner`, so the oracles always
	// retain exactly what the engines eventually receive.
	inner := d.sink
	oracles := make([]*oracle.Oracle, len(d.lanes))
	if d.verified && c.OracleCheck {
		for i, l := range d.lanes {
			ora, err := oracle.New(l.eng)
			if err != nil {
				return err
			}
			oracles[i], inner = ora, ora.WrapIngest(inner)
		}
	}
	ingest := inner
	var inj *chaos.Injector
	if d.verified && c.Chaos != nil {
		inj = chaos.NewInjector(c.Chaos, d.mr)
		inj.OnCorrupt = func(path string) {
			for _, ora := range oracles {
				if ora != nil {
					ora.ExcludePath(path)
				}
			}
		}
		// The delay gate holds batches by one engine's recurrence
		// counter, so it applies to single-lane runs only; a shared
		// feed has no one recurrence to key on.
		if len(d.lanes) == 1 {
			ingest = inj.WrapIngest(d.lanes[0].eng, inner)
		}
	}

	for done := 0; done < len(d.lanes)*d.windows; done++ {
		best := -1
		var through int64
		for i, l := range d.lanes {
			if r := l.next(); r < d.windows {
				if at := closes[i](r); best < 0 || at < through {
					best, through = i, at
				}
			}
		}
		l := d.lanes[best]
		r := l.next() // taken before the trigger: a failed RunNext returns no result to read it from
		failed := func(err error) error { return fmt.Errorf("%s window %d: %w", l.name, r+1, err) }
		if err := d.feed(through, ingest); err != nil {
			return err
		}
		if inj != nil {
			if err := inj.BeforeRecurrence(r, l.eng, inner); err != nil {
				return failed(err)
			}
		}
		if d.before != nil {
			d.before(r, d.mr)
		}
		res, err := l.runNext()
		if err != nil {
			return failed(err)
		}
		var verdictErr error
		if ora := oracles[best]; ora != nil {
			ver := ora.Check(res)
			if c.OnVerdict != nil {
				c.OnVerdict(l.name, ver)
			}
			verdictErr = ver.Err()
		}
		if d.window != nil {
			d.window(best, res)
		}
		if verdictErr != nil {
			return failed(verdictErr)
		}
	}
	return nil
}

// system is what executes a runSpec as a single-lane run.
type system struct {
	name string
	// seedShift is NewRuntime's per-call-site DFS seed shift. It is
	// data, not a knob: published numbers depend on block placement.
	seedShift int64
	// baseline selects the plain-Hadoop driver over a Redoop engine.
	baseline bool
	// measured marks the Redoop engine under test: it carries the
	// Config's sidecars (health, ledger, provenance, reuse index, disk
	// limit) and is verified under OracleCheck and Chaos. Ablation
	// variants run without either.
	measured bool
	// Ablation switches (core.Config fields of the same meaning).
	disableReuse, cacheOblivious bool
	// tune, when non-nil, adjusts the fresh runtime before anything is
	// built on it: fault plans, jitter, stragglers, speculation.
	tune func(mr *mapreduce.Engine)
	// before is the run's scripted fault hook (see drive.before).
	before func(r int, mr *mapreduce.Engine)
}

func hadoop(name string) system { return system{name: name, seedShift: 2, baseline: true} }
func redoop(name string) system { return system{name: name, seedShift: 1, measured: true} }

// runOne executes spec on sys over a fresh runtime, handing every
// completed recurrence to window. It returns the engine (nil for the
// baseline) so callers can read end-of-run state off it.
func (c Config) runOne(spec runSpec, sys system, window func(*core.RecurrenceResult)) (*core.Engine, error) {
	mr := c.NewRuntime(sys.seedShift)
	if sys.tune != nil {
		sys.tune(mr)
	}
	q := spec.query()
	var l lane
	if sys.baseline {
		drv, err := baseline.NewDriver(mr, q)
		if err != nil {
			return nil, err
		}
		l = hadoopLane(sys.name, drv, q)
	} else {
		ec := core.Config{
			MR: mr, Query: q, Adaptive: spec.adaptive,
			DisableCacheReuse: sys.disableReuse, CacheObliviousPlacement: sys.cacheOblivious,
		}
		if sys.measured {
			ec.Health, ec.Account, ec.Lineage = c.Health, c.Account, c.provenance()
			ec.Reuse, ec.CacheDiskLimit = c.Reuse, c.CacheDiskLimit
		}
		eng, err := core.NewEngine(ec)
		if err != nil {
			return nil, err
		}
		c.notifyEngine(eng)
		l = redoopLane(sys.name, eng)
	}
	return l.eng, c.run(drive{
		mr:       mr,
		lanes:    []lane{l},
		windows:  spec.windows,
		sink:     l.ingest,
		feed:     c.paneFeed(spec),
		verified: sys.measured,
		before:   sys.before,
		window:   func(_ int, res *core.RecurrenceResult) { window(res) },
	})
}

// series measures spec on sys as one figure series.
func (c Config) series(spec runSpec, sys system) (Series, error) {
	s := Series{System: sys.name, Overlap: spec.overlap}
	_, err := c.runOne(spec, sys, func(res *core.RecurrenceResult) {
		s.Windows = append(s.Windows, timingOf(res))
	})
	return s, err
}

// timingOf extracts the figure columns from one recurrence.
func timingOf(res *core.RecurrenceResult) WindowTiming {
	return WindowTiming{
		Window:   res.Recurrence + 1,
		Response: res.ResponseTime,
		Shuffle:  res.Stats.ShuffleTime,
		Reduce:   res.Stats.ReduceTime,
	}
}

// QueryRun describes the single-query run behind `redoopctl`: one of
// the two figure workloads on either system, with the CLI's fault and
// load hooks.
type QueryRun struct {
	// Kind is "agg" (Q1 over WCC, query q1) or "join" (Q2 over FFG,
	// query q2).
	Kind     string
	Overlap  float64
	Adaptive bool
	// Baseline runs the plain-Hadoop driver instead of Redoop.
	Baseline bool
	Tenant   string
	// Rate, when non-nil, scales the volume of the pane starting at
	// the given unit.
	Rate func(startUnit int64) float64
	// Before, when non-nil, runs between recurrence r's last batch
	// and its trigger.
	Before func(r int, mr *mapreduce.Engine)
	// Window receives every completed recurrence; a baseline run
	// fills only the fields baseline.Result has.
	Window func(res *core.RecurrenceResult)
}

// RunQuery executes one QueryRun over c.Windows recurrences through
// the run driver and returns the engine (nil for a baseline run).
// c.OracleCheck, c.Chaos and c.OnVerdict apply as in any figure run.
func (c Config) RunQuery(qr QueryRun) (*core.Engine, error) {
	var spec runSpec
	switch qr.Kind {
	case "agg":
		spec = c.aggSpec("q1", qr.Overlap)
	case "join":
		spec = c.joinSpec("q2", qr.Overlap)
	default:
		return nil, fmt.Errorf("unknown query %q (want agg or join)", qr.Kind)
	}
	spec.adaptive, spec.rate = qr.Adaptive, qr.Rate
	query := spec.query
	spec.query = func() *core.Query {
		q := query()
		q.TenantID = qr.Tenant
		return q
	}
	sys := system{name: query().Name, seedShift: 7, baseline: qr.Baseline, measured: !qr.Baseline, before: qr.Before}
	return c.runOne(spec, sys, qr.Window)
}
