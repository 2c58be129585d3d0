package main

import (
	"fmt"
	"runtime"
	"time"

	"redoop/internal/account"
	"redoop/internal/baseline"
	"redoop/internal/core"
	"redoop/internal/experiments"
	"redoop/internal/health"
	"redoop/internal/lineage"
	"redoop/internal/mapreduce"
	"redoop/internal/obs"
	"redoop/internal/oracle"
	"redoop/internal/records"
	"redoop/internal/reuse"
	"redoop/internal/window"
)

// system is one engine under test plus the path batches take into it.
type system struct {
	eng    *core.Engine
	ingest func(src int, recs []records.Record) error
	oracle *oracle.Oracle // nil unless the oracle sidecar is attached
}

// clusterConfig is the cluster and cost model every runtime in the
// benchmark is built from. Its Seed is the DFS placement seed and stays
// at the default: -seed reaches only the generators.
func clusterConfig(execWorkers int) experiments.Config {
	cfg := experiments.Default()
	cfg.ExecWorkers = execWorkers
	return cfg
}

func newSystem(w spec) (*system, error) {
	cfg := clusterConfig(w.execWorkers)
	sc := w.sidecars
	if sc.obs {
		cfg.Obs = obs.New()
	}
	q := w.query(w.slide)
	ec := core.Config{MR: cfg.NewRuntime(1), Query: q}
	if sc.obs {
		// The monitor cannot be detached (NewEngine always builds one),
		// so "obs" means what redoop-bench does: one observer feeding
		// the runtime, the engine and a shared health monitor.
		ec.Health = health.NewMonitor(health.DefaultConfig())
		ec.Health.SetObserver(cfg.Obs)
	}
	if sc.account {
		ec.Account = account.New()
	}
	if sc.lineage {
		ec.Lineage = lineage.New(0)
	}
	if sc.reuse {
		// Only a query over a CacheKey-shared stream publishes into the
		// index; without the key the sidecar would sit idle.
		q.Sources[0].CacheKey = q.Sources[0].Name
		ec.Reuse = reuse.NewIndex(0)
	}
	eng, err := core.NewEngine(ec)
	if err != nil {
		return nil, err
	}
	s := &system{eng: eng, ingest: eng.Ingest}
	if sc.oracle {
		if s.oracle, err = oracle.New(eng); err != nil {
			return nil, err
		}
		s.ingest = s.oracle.WrapIngest(eng.Ingest)
	}
	return s, nil
}

// paneBatch is one source's records for one pane.
type paneBatch struct {
	src  int
	pane window.PaneID
	recs []records.Record
}

// feeder hands out, recurrence by recurrence, the pane batches that
// complete the next window.
type feeder struct {
	pl    *pool
	frame window.Frame
	next  window.PaneID
}

func (f *feeder) slide(r int) []paneBatch {
	var out []paneBatch
	closeUnit := f.frame.WindowClose(r)
	for ; f.frame.PaneEnd(f.next) <= closeUnit; f.next++ {
		for src := range f.pl.slots {
			out = append(out, paneBatch{src, f.next, f.pl.batch(src, int64(f.next))})
		}
	}
	return out
}

// digest identifies a window output regardless of pair order: the pair
// count and the wrapping sum of per-pair FNV-1a hashes (key length, key,
// value). It replaces sort+hash so that verifying a 225 000-pair join
// window stays cheap.
type digest struct {
	pairs int
	sum   uint64
}

func digestOf(out []records.Pair) digest {
	const offset, prime = 14695981039346656037, 1099511628211
	d := digest{pairs: len(out)}
	for _, p := range out {
		h := (uint64(offset) ^ uint64(len(p.Key))) * prime
		for _, b := range p.Key {
			h = (h ^ uint64(b)) * prime
		}
		for _, b := range p.Value {
			h = (h ^ uint64(b)) * prime
		}
		d.sum += h * 0x9e3779b97f4a7c15 // spread before summing
	}
	return d
}

// sample is what the harness keeps of one recurrence.
type sample struct {
	calib          time.Duration // calibration kernel, just before the operation
	ingest, run    time.Duration
	alloc, mallocs uint64
	gcCycles       uint32 // collections that ran inside the timer
	gcPause        time.Duration
	records        int
	virt           time.Duration
	stats          mapreduce.Stats
	newPanes       int
	reusedPanes    int
	newPairs       int
	reusedPairs    int
	recoveries     int
	outputPairs    int
}

func (s sample) wall() time.Duration { return s.ingest + s.run }

// baseSample is one baseline recurrence of the warm-up verification.
type baseSample struct {
	host, virt time.Duration
}

// verifier checks every recurrence's output: against baseline.Driver on
// an isolated runtime while it has one (the warm-up), against the output
// one pool period earlier afterwards. Both queries' outputs depend on
// the records' payloads only, so replaying the pool repeats them, and
// each later check chains back to a baseline-verified recurrence.
type verifier struct {
	drv     *baseline.Driver
	period  int // pool period, in recurrences
	digests []digest
	base    []baseSample
}

func newVerifier(w spec, frame window.Frame, withBaseline bool) (*verifier, error) {
	v := &verifier{period: poolPanes / int(frame.PanesPerSlide())}
	if withBaseline {
		cfg := clusterConfig(w.execWorkers)
		var err error
		if v.drv, err = baseline.NewDriver(cfg.NewRuntime(2), w.query(w.slide)); err != nil {
			return nil, err
		}
	}
	return v, nil
}

// check returns what is wrong with recurrence r's output, "" if nothing.
func (v *verifier) check(r int, out []records.Pair, batches []paneBatch, tr *tracer) (string, error) {
	d := digestOf(out)
	v.digests = append(v.digests, d)
	if v.drv != nil {
		t0 := time.Now()
		for _, b := range batches {
			if err := v.drv.Ingest(b.src, b.recs); err != nil {
				return "", fmt.Errorf("baseline recurrence %d: %w", r, err)
			}
		}
		ref, err := v.drv.RunNext()
		if err != nil {
			return "", fmt.Errorf("baseline recurrence %d: %w", r, err)
		}
		t1 := time.Now()
		tr.add("baseline.run", t0, t1, -1, r)
		v.base = append(v.base, baseSample{host: t1.Sub(t0), virt: time.Duration(ref.ResponseTime)})
		if want := digestOf(ref.Output); d != want {
			return fmt.Sprintf("output %v differs from baseline.Driver's %v", d, want), nil
		}
		return "", nil
	}
	if r >= v.period && d != v.digests[r-v.period] {
		return fmt.Sprintf("output %v differs from recurrence %d's %v", d, r-v.period, v.digests[r-v.period]), nil
	}
	return "", nil
}

// runOpts sizes one pass over a workload.
type runOpts struct {
	seed      int64
	pool      *pool         // nil: generate from seed
	setups    int           // set-ups to time; the last one is used
	warm      int           // warm-up recurrences
	steadyMin int           // steady recurrences at least
	steadyFor time.Duration // ... and steady wall time at least
	verify    bool          // check warm-up outputs against baseline.Driver
	tr        *tracer       // nil: untraced
}

// result is everything one pass measured.
type result struct {
	setupS       []float64 // per set-up, host-speed scaled
	warm, steady []sample
	base         []baseSample
	attempted    int
	failed       int
	failure      string  // first failure, for the report
	liveHeapMB   float64 // after steady recurrence fixedSteady, over the reading after set-up
	heapGrowthKB float64 // live-heap growth per steady recurrence
	residentMB   float64
	dfsMB        float64
	replay       *replayer
}

func (r *result) fail(format string, args ...any) {
	r.failed++
	if r.failure == "" {
		r.failure = fmt.Sprintf(format, args...)
	}
}

// liveHeap is the heap in use after everything unreachable is gone. Two
// collections, because sync.Pool contents survive the first.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// setUp generates the pool (unless one is shared) and builds the engine,
// o.setups times over, keeping the last. Set-up time is the median.
func setUp(w spec, o runOpts, res *result) (*pool, *system, error) {
	var pl *pool
	var sys *system
	for i := 0; i < max(o.setups, 1); i++ {
		before := calibrate()
		t0 := time.Now()
		if pl = o.pool; pl == nil {
			pl = newPool(w, o.seed)
		}
		var err error
		if sys, err = newSystem(w); err != nil {
			return nil, nil, err
		}
		raw := time.Since(t0).Seconds()
		speed := float64(before+calibrate()) / 2 / float64(calibRef)
		res.setupS = append(res.setupS, raw/speed)
	}
	return pl, sys, nil
}

// run executes one pass: set-up, verified warm-up, measured steady
// state. One operation is one recurrence — Engine.Ingest of every batch
// of the new slide, then Engine.RunNext — issued by one client that
// waits for its window (closed loop). Only those calls are timed.
func run(w spec, o runOpts) (*result, error) {
	res := &result{}
	pl, sys, err := setUp(w, o, res)
	if err != nil {
		return nil, err
	}
	frames, err := sys.eng.Query().Frames()
	if err != nil {
		return nil, err
	}
	feed := &feeder{pl: pl, frame: frames[0]}
	ver, err := newVerifier(w, frames[0], o.verify)
	if err != nil {
		return nil, err
	}
	if o.tr != nil {
		if res.replay, err = newReplayer(o.tr, sys.eng); err != nil {
			return nil, err
		}
	}

	baseHeap := liveHeap()
	var steadyHeap uint64
	var steadyStart time.Time
	var m0, m1 runtime.MemStats
	for r := 0; ; r++ {
		steady := r - o.warm
		if steady == 0 {
			// Steady state starts from a heap that holds the engine's
			// retained state and the pool, nothing of the verification.
			ver.drv = nil
			steadyHeap = liveHeap()
			steadyStart = time.Now()
		}
		if steady >= o.steadyMin && time.Since(steadyStart) >= o.steadyFor {
			break
		}
		batches := feed.slide(r)

		calib := calibrate()
		// Every operation starts from a collected heap. Left to itself the
		// collector runs inside roughly every second 16 ms recurrence, the
		// samples split into a with-GC and a without-GC mode, and the
		// median wanders between the two from run to run.
		runtime.GC()
		runtime.ReadMemStats(&m0)
		t0 := time.Now()
		for _, b := range batches {
			if err = sys.ingest(b.src, b.recs); err != nil {
				break
			}
		}
		t1 := time.Now()
		var out *core.RecurrenceResult
		if err == nil {
			out, err = sys.eng.RunNext()
		}
		if err == nil && sys.oracle != nil {
			// The oracle's check is that sidecar's per-recurrence cost.
			err = sys.oracle.Check(out).Err()
		}
		t2 := time.Now()
		runtime.ReadMemStats(&m1)

		res.attempted++
		if err != nil {
			// The engine's state after an error is undefined: stop.
			res.fail("recurrence %d: %v", r, err)
			break
		}
		s := sample{
			calib: calib, ingest: t1.Sub(t0), run: t2.Sub(t1),
			alloc: m1.TotalAlloc - m0.TotalAlloc, mallocs: m1.Mallocs - m0.Mallocs,
			gcCycles: m1.NumGC - m0.NumGC, gcPause: time.Duration(m1.PauseTotalNs - m0.PauseTotalNs),
			virt: time.Duration(out.ResponseTime), stats: out.Stats,
			newPanes: out.NewPanes, reusedPanes: out.ReusedPanes,
			newPairs: out.NewPairs, reusedPairs: out.ReusedPairs,
			recoveries: out.CacheRecoveries, outputPairs: len(out.Output),
		}
		for _, b := range batches {
			s.records += len(b.recs)
		}
		root := o.tr.add("recurrence", t0, t2, -1, r)
		o.tr.add("engine.ingest", t0, t1, root, r)
		o.tr.add("engine.run", t1, t2, root, r)

		wrong, err := ver.check(r, out.Output, batches, o.tr)
		if err != nil {
			return nil, err
		}
		if wrong != "" {
			res.fail("recurrence %d: %s", r, wrong)
		}
		if steady < 0 {
			res.warm = append(res.warm, s)
			continue
		}
		res.steady = append(res.steady, s)
		if res.replay != nil {
			if err := res.replay.replay(r, batches, sys.eng); err != nil {
				return nil, fmt.Errorf("replay of recurrence %d: %w", r, err)
			}
		}
		if steady+1 == fixedSteady {
			batches, out = nil, nil
			res.liveHeapMB = (float64(liveHeap()) - float64(baseHeap)) / 1e6
		}
	}

	res.base = ver.base
	if n := len(res.steady); n > 0 {
		res.heapGrowthKB = (float64(liveHeap()) - float64(steadyHeap)) / 1e3 / float64(n)
	}
	runtime.KeepAlive(pl) // part of steadyHeap, so it must be part of the reading above
	for _, id := range sys.eng.MR().Cluster.NodeIDs() {
		if reg := sys.eng.Controller().Registry(id); reg != nil {
			res.residentMB += float64(reg.CachedBytes()) / 1e6
		}
	}
	res.dfsMB = float64(sys.eng.MR().DFS.TotalBytes()) / 1e6
	return res, nil
}
