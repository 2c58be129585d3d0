package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"redoop/internal/account"
	"redoop/internal/lineage"
	"redoop/internal/mapreduce"
	"redoop/internal/obs"
	"redoop/internal/obs/eventlog"
	"redoop/internal/records"
	"redoop/internal/reuse"
	"redoop/internal/simtime"
	"redoop/internal/window"
)

// Tests of the commit seam: the stream is the same at any worker
// width, every cache transition appears in it exactly once, and an
// engine without sidecars pays nothing for it.

func internalJoinQuery(win, slide simtime.Duration) *Query {
	tag := func(t string) mapreduce.MapFunc {
		return func(_ int64, payload []byte, emit mapreduce.Emitter) {
			i := bytes.IndexByte(payload, ':')
			emit.Emit(append([]byte(nil), payload[:i]...), append([]byte(t+"|"), payload[i+1:]...))
		}
	}
	return &Query{
		Name: "join",
		Sources: []Source{
			{Name: "S1", Spec: window.NewTimeSpec(win, slide)},
			{Name: "S2", Spec: window.NewTimeSpec(win, slide)},
		},
		Maps: []mapreduce.MapFunc{tag("A"), tag("B")},
		Reduce: func(key []byte, values [][]byte, emit mapreduce.Emitter) {
			var as, bs int
			for _, v := range values {
				if v[0] == 'A' {
					as++
				} else {
					bs++
				}
			}
			if as > 0 && bs > 0 {
				emit.Emit(key, []byte(fmt.Sprintf("%d", as*bs)))
			}
		},
		NumReducers: 2,
	}
}

func internalKV(seed int64, slide simtime.Duration, slideIdx, n, keys int) []records.Record {
	rng := rand.New(rand.NewSource(seed + int64(slideIdx)))
	base := int64(slideIdx) * int64(slide)
	out := make([]records.Record, n)
	for i := range out {
		out[i] = records.Record{
			Ts:   base + rng.Int63n(int64(slide)),
			Data: []byte(fmt.Sprintf("k%02d:%d", rng.Intn(keys), i)),
		}
	}
	return out
}

// seamRun is one engine with every sidecar attached and a recording
// fold appended behind the real consumers.
type seamRun struct {
	eng    *Engine
	ledger *account.Ledger
	stream []commit
}

// recordCommits appends a fold that keeps a copy of every record. Span
// IDs are zeroed: they are tracer state, not part of the transition. A
// placement's candidates are copied out of the scheduler's scratch.
func recordCommits(e *Engine, into *[]commit) {
	e.folds = append(e.folds, func(c *commit) {
		cp := *c
		cp.place.Candidates = append([]Candidate(nil), c.place.Candidates...)
		cp.inputs = append([]cacheRef(nil), c.inputs...)
		for i := range cp.inputs {
			cp.inputs[i].span = 0
		}
		*into = append(*into, cp)
	})
}

func newSeamRun(t testing.TB, q *Query, workers int, limit int64, withReuse bool, setup func(*Engine)) *seamRun {
	mr := internalRig(t, 3, 17)
	mr.Workers = workers
	mr.Obs = obs.New()
	r := &seamRun{ledger: account.New()}
	cfg := Config{MR: mr, Query: q, Account: r.ledger,
		Lineage: lineage.New(0), CacheDiskLimit: limit}
	if withReuse {
		cfg.Reuse = reuse.NewIndex(0)
	}
	r.eng = mustEngine(t, cfg)
	recordCommits(r.eng, &r.stream)
	if setup != nil {
		setup(r.eng)
	}
	return r
}

// drive runs windows recurrences, feeding every source one batch per
// slide; before, when set, runs ahead of each trigger.
func (r *seamRun) drive(t *testing.T, windows int, slide simtime.Duration, gen func(src, slideIdx int) []records.Record, before func(rec int)) {
	t.Helper()
	q := r.eng.query
	fed := 0
	for rec := 0; rec < windows; rec++ {
		for ; int64(fed)*int64(slide) < r.eng.frames[0].WindowClose(rec); fed++ {
			for src := range q.Sources {
				if err := r.eng.Ingest(src, gen(src, fed)); err != nil {
					t.Fatal(err)
				}
			}
		}
		if before != nil {
			before(rec)
		}
		if _, err := r.eng.RunNext(); err != nil {
			t.Fatalf("recurrence %d: %v", rec, err)
		}
	}
}

func kindCounts(stream []commit) map[commitKind]int {
	n := make(map[commitKind]int)
	for _, c := range stream {
		n[c.kind]++
	}
	return n
}

// seamScenarios are the three runs the seam is pinned on: a plain
// aggregation, a join, and an aggregation under cache loss with a disk
// limit tight enough that cost-based replacement fires. setup, when
// set, sees the engine before its first batch.
var seamScenarios = []struct {
	name string
	run  func(t *testing.T, workers int, setup func(*Engine)) *seamRun
	want []commitKind // kinds the scenario must exercise
}{
	{
		name: "agg",
		run: func(t *testing.T, workers int, setup func(*Engine)) *seamRun {
			win, slide := 40*simtime.Second, 10*simtime.Second
			r := newSeamRun(t, internalCountQuery(win, slide), workers, 0, true, setup)
			r.drive(t, 6, slide, func(_, s int) []records.Record { return internalWords(19, slide, s, 300, 8) }, nil)
			return r
		},
		want: []commitKind{kindIngested, kindStart, kindRegistered, kindHit, kindMiss, kindLoaded,
			kindCharged, kindExpired, kindRetired, kindWindow, kindFinish},
	},
	{
		name: "join",
		run: func(t *testing.T, workers int, setup func(*Engine)) *seamRun {
			win, slide := 30*simtime.Second, 10*simtime.Second
			r := newSeamRun(t, internalJoinQuery(win, slide), workers, 0, false, setup)
			r.drive(t, 5, slide, func(src, s int) []records.Record { return internalKV(int64(23+src), slide, s, 120, 6) }, nil)
			return r
		},
		want: []commitKind{kindRegistered, kindHit, kindMiss, kindLoaded, kindCharged, kindExpired, kindWindow},
	},
	{
		name: "chaos",
		run: func(t *testing.T, workers int, setup func(*Engine)) *seamRun {
			win, slide := 40*simtime.Second, 10*simtime.Second
			r := newSeamRun(t, internalCountQuery(win, slide), workers, 300, false, setup)
			r.drive(t, 8, slide, func(_, s int) []records.Record { return internalWords(19, slide, s, 300, 8) },
				func(rec int) {
					if rec == 3 || rec == 5 {
						r.eng.mr.Cluster.DropLocal(rec%3, "cache/")
					}
				})
			return r
		},
		want: []commitKind{kindLost, kindEvicted, kindRegistered, kindExpired},
	},
}

// TestCommitStreamIdenticalAcrossWorkers: the whole stream — kinds,
// order and every field — does not depend on the compute pool's width.
func TestCommitStreamIdenticalAcrossWorkers(t *testing.T) {
	for _, sc := range seamScenarios {
		t.Run(sc.name, func(t *testing.T) {
			serial, wide := sc.run(t, 1, nil).stream, sc.run(t, 4, nil).stream
			counts := kindCounts(serial)
			for _, k := range sc.want {
				if counts[k] == 0 {
					t.Errorf("scenario never committed a %v; the check is vacuous for it", k)
				}
			}
			if len(serial) != len(wide) {
				t.Fatalf("stream lengths differ: %d at 1 worker, %d at 4", len(serial), len(wide))
			}
			for i := range serial {
				if !reflect.DeepEqual(serial[i], wide[i]) {
					t.Fatalf("commit %d differs:\n1 worker:  %v %+v\n4 workers: %v %+v",
						i, serial[i].kind, serial[i], wide[i].kind, wide[i])
				}
			}
		})
	}
}

// TestCommitExactlyOnce reconciles the stream against the two parties
// that see cache transitions independently of it: the controller
// (every ready-state change and purge, through its hooks) and the
// ledger (every residency opened and closed).
func TestCommitExactlyOnce(t *testing.T) {
	type key struct {
		pid string
		typ CacheType
	}
	for _, sc := range seamScenarios[1:] { // no reuse index: the purge hook is ours
		t.Run(sc.name, func(t *testing.T) {
			available := make(map[key]int)
			rollbacks := make(map[key]int)
			purges := make(map[key]int)
			r := sc.run(t, 1, func(e *Engine) {
				e.ctrl.SetTransitionHook(func(pid string, typ CacheType, from, to Ready) {
					switch {
					case to == CacheAvailable:
						available[key{pid, typ}]++
					case from == CacheAvailable && to == HDFSAvailable:
						rollbacks[key{pid, typ}]++
					}
				})
				e.ctrl.SetPurgeHook(func(pid string, typ CacheType) { purges[key{pid, typ}]++ })
			})

			registered := make(map[key]int)
			rolled := make(map[key]int)
			expired := make(map[key]int)
			open := make(map[key]bool)
			opens, closes := 0, 0
			for _, c := range r.stream {
				k := key{c.pid, c.typ}
				switch c.kind {
				case kindRegistered:
					registered[k]++
					if open[k] {
						closes++ // a refresh closes the old residency
					}
					open[k] = true
					opens++
				case kindLost, kindEvicted:
					rolled[k]++
				case kindExpired:
					expired[k]++
				}
				if c.kind == kindLost || c.kind == kindEvicted || c.kind == kindExpired {
					if open[k] {
						closes++
						delete(open, k)
					}
				}
			}
			if !reflect.DeepEqual(registered, available) {
				t.Errorf("registered commits %v != controller transitions to cache-available %v", registered, available)
			}
			if !reflect.DeepEqual(rolled, rollbacks) {
				t.Errorf("lost+evicted commits %v != controller 2→1 rollbacks %v", rolled, rollbacks)
			}
			if !reflect.DeepEqual(expired, purges) {
				t.Errorf("expired commits %v != controller purges %v", expired, purges)
			}
			costs := r.ledger.Snapshot()
			if len(costs) != 1 {
				t.Fatalf("ledger holds %d accounts, want 1", len(costs))
			}
			if costs[0].CacheRegistered != opens || costs[0].CacheExpired != closes || costs[0].OpenResidencies != len(open) {
				t.Errorf("ledger opened/closed/open = %d/%d/%d, stream says %d/%d/%d",
					costs[0].CacheRegistered, costs[0].CacheExpired, costs[0].OpenResidencies, opens, closes, len(open))
			}
			for _, res := range r.ledger.OpenResidencies() {
				if !open[key{res.PID, CacheType(res.Type)}] {
					t.Errorf("ledger residency %s|%d is open but the stream closed it", res.PID, res.Type)
				}
			}
		})
	}
}

// TestRecorderFollowsStream: the tracer's decision record hears a
// rollback, a purge notice and an Equation 4 placement from the obs
// fold alone — one cache.rollback per lost or evicted record, one
// cache.purge per expired record, one placement per placed record —
// each emitted next to the record's own events, and stamped with its
// query, recurrence and instant.
func TestRecorderFollowsStream(t *testing.T) {
	var last []int // how many decisions were recorded once each record was folded
	r := seamScenarios[2].run(t, 1, func(e *Engine) {
		e.folds = append(e.folds, func(*commit) { last = append(last, len(e.obs.Decisions())) })
	})
	dec := r.eng.obs.Decisions()
	if len(dec) != last[len(last)-1] {
		t.Fatalf("record holds %d decisions, %d were recorded; the scenario must fit it", len(dec), last[len(last)-1])
	}
	got := make(map[eventlog.Type]int)
	for _, ev := range dec {
		got[ev.Type]++
	}
	want := make(map[eventlog.Type]int)
	at := func(n int, typ eventlog.Type, c *commit) {
		t.Helper()
		ev := dec[n-1]
		if ev.Type != typ || ev.Query != r.eng.query.Name || ev.At != c.at || ev.Data != c.cacheData() {
			t.Errorf("decision %d = %s %q at %d %+v, want %s of the %v record %+v", n, ev.Type, ev.Query, ev.At, ev.Data, typ, c.kind, c.cacheData())
		}
	}
	for i := range r.stream {
		c, n := &r.stream[i], last[i]
		switch c.kind {
		case kindLost: // the lookup, then the rollback it causes
			want[eventlog.CacheRollback]++
			at(n-1, eventlog.CacheLost, c)
			at(n, eventlog.CacheRollback, c)
		case kindEvicted: // the rollback, then the eviction
			want[eventlog.CacheRollback]++
			at(n-1, eventlog.CacheRollback, c)
			at(n, eventlog.CacheEvict, c)
		case kindExpired:
			want[eventlog.CachePurge]++
			at(n, eventlog.CachePurge, c)
		case kindPlaced:
			want[eventlog.Placement]++
			ev := dec[n-1]
			d, _ := ev.Data.(eventlog.PlacementData)
			if ev.Type != eventlog.Placement || ev.At != c.at || d.Recurrence != c.rec || d.Chosen != c.place.Node.ID ||
				d.Outcome != c.place.Outcome || len(d.Candidates) == 0 {
				t.Errorf("decision %d = %s %+v, want the placement of %+v", n, ev.Type, ev.Data, c.place)
			}
		}
	}
	for _, typ := range []eventlog.Type{eventlog.CacheRollback, eventlog.CachePurge, eventlog.Placement} {
		if want[typ] == 0 || got[typ] != want[typ] {
			t.Errorf("%d %s events, want %d (one per record)", got[typ], typ, want[typ])
		}
	}
}

// TestCommitFreeWithoutSidecars: with every Config sidecar nil the
// engine has no consumer — a cache transition costs a call and no
// allocation.
func TestCommitFreeWithoutSidecars(t *testing.T) {
	eng := mustEngine(t, Config{MR: internalRig(t, 3, 17), Query: internalCountQuery(40*simtime.Second, 10*simtime.Second)})
	if len(eng.folds) != 0 {
		t.Fatalf("engine without sidecars has %d consumers, want none", len(eng.folds))
	}
	data := []byte("payload")
	inputs := []cacheRef{{pid: "in", typ: ReduceInput}}
	allocs := testing.AllocsPerRun(200, func() {
		eng.commit(commit{kind: kindHit, at: 5, pid: "p", typ: ReduceOutput, node: 1, bytes: 7})
		eng.commit(commit{kind: kindRegistered, at: 5, pid: "p", typ: ReduceOutput, node: 1,
			bytes: 7, cost: 3, data: data, pane: 2, part: 1, inputs: inputs, publish: true})
		eng.commit(commit{kind: kindCharged, phase: phaseReduce, cost: 9})
	})
	if allocs != 0 {
		t.Fatalf("commit allocates %.1f times per call group with no sidecars attached", allocs)
	}
	// The parked record must not outlive the call: it would pin the
	// payload (or a whole window's output) until the next commit.
	if eng.pending.data != nil || eng.pending.inputs != nil {
		t.Fatal("commit left its record parked in the engine")
	}
}

// TestReplacementBookkeepingBounded is the regression test for the
// evictable-set leak: the engine used to remember every reduce-input
// pid it ever registered and forget them only inside a replacement
// scan, which never runs without a disk limit or under one that is
// never exceeded. Replacement candidates are now derived from
// controller and registry state, so after 200 recurrences at overlap
// 0.9 everything a scan looks at is proportional to the live panes.
func TestReplacementBookkeepingBounded(t *testing.T) {
	win, slide := 100*simtime.Second, 10*simtime.Second
	const panesPerWindow = 10
	for _, limit := range []int64{0, 1 << 40} {
		t.Run(fmt.Sprintf("limit%d", limit), func(t *testing.T) {
			q := internalCountQuery(win, slide)
			o := obs.New()
			mr := internalRig(t, 3, 17)
			mr.Obs = o
			eng := mustEngine(t, Config{MR: mr, Query: q, CacheDiskLimit: limit})
			fed := 0
			for rec := 0; rec < 200; rec++ {
				for ; int64(fed)*int64(slide) < eng.frames[0].WindowClose(rec); fed++ {
					if err := eng.Ingest(0, internalWords(19, slide, fed, 40, 8)); err != nil {
						t.Fatal(err)
					}
				}
				if _, err := eng.RunNext(); err != nil {
					t.Fatalf("recurrence %d: %v", rec, err)
				}
				// The tracer keeps the newest recurrences; looking after
				// each one sees every decision.
				for _, d := range o.Decisions() {
					if d.Type == eventlog.CacheEvict {
						t.Fatalf("recurrence %d: limit %d evicted %+v; the scenario is meant never to hit it", rec, limit, d.Data)
					}
				}
			}
			live := panesPerWindow * q.NumReducers
			candidates, rows := 0, 0
			for _, m := range eng.managers {
				candidates += len(eng.victimsOn(m.Registry))
				rows += len(m.Registry.Entries())
			}
			if candidates == 0 || candidates > live {
				t.Errorf("%d replacement candidates after 200 recurrences, want 1..%d (live panes × reducers)", candidates, live)
			}
			if sigs := len(eng.ctrl.Signatures()); sigs > 2*live || rows > 2*live {
				t.Errorf("%d signatures and %d registry rows after 200 recurrences, want ≤ %d (rin+rout per live pane partition)", sigs, rows, 2*live)
			}
		})
	}
}

// String names the kind, for test failure messages.
func (k commitKind) String() string {
	names := [...]string{"ingested", "start", "registered", "hit", "miss", "lost",
		"crosshit", "reused", "stale", "loaded", "placed", "charged", "expired", "evicted",
		"retired", "window", "replan", "finish"}
	if int(k) < len(names) {
		return names[k]
	}
	return fmt.Sprintf("commitKind(%d)", int(k))
}

// TestRejectedBatchLeavesNoProvenance is the regression test for a
// batch recorded as ingested before the packer had accepted it: a late
// batch failed with "arrives after flush bound", yet the provenance
// store kept it, and a later pane's derivation could claim records that
// were never packed. Only an accepted batch is committed.
func TestRejectedBatchLeavesNoProvenance(t *testing.T) {
	win, slide := 40*simtime.Second, 10*simtime.Second
	r := newSeamRun(t, internalCountQuery(win, slide), 1, 0, false, nil)
	gen := func(_, s int) []records.Record { return internalWords(19, slide, s, 300, 8) }
	r.drive(t, 2, slide, gen, nil)
	batches, ingested := r.eng.lin.Stats().Batches, kindCounts(r.stream)[kindIngested]
	if err := r.eng.Ingest(0, gen(0, 0)); err == nil || !strings.Contains(err.Error(), "after flush bound") {
		t.Fatalf("late batch: err = %v, want a flush-bound rejection", err)
	}
	if got := r.eng.lin.Stats().Batches; got != batches {
		t.Errorf("provenance store holds %d batches after a rejected one, want %d", got, batches)
	}
	if got := kindCounts(r.stream)[kindIngested]; got != ingested {
		t.Errorf("%d ingested commits after a rejected batch, want %d", got, ingested)
	}
	// The engine carries on: the next slide's batch is accepted and
	// recorded, and the window over it closes over claims that resolve.
	// (One source, one batch per slide: slides 0..batches-1 are in.)
	if err := r.eng.Ingest(0, gen(0, batches)); err != nil {
		t.Fatal(err)
	}
	if _, err := r.eng.RunNext(); err != nil {
		t.Fatal(err)
	}
	if got := r.eng.lin.Stats().Batches; got != batches+1 {
		t.Errorf("provenance store holds %d batches after one more slide, want %d", got, batches+1)
	}
	if bad := r.eng.lin.Closure(nil); len(bad) != 0 {
		t.Errorf("closure violations: %v", bad)
	}
}
