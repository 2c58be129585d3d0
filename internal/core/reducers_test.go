package core_test

import (
	"bytes"
	"fmt"
	"slices"
	"strconv"
	"testing"

	"redoop/internal/account"
	"redoop/internal/baseline"
	"redoop/internal/colfmt"
	"redoop/internal/core"
	"redoop/internal/lineage"
	"redoop/internal/mapreduce"
	"redoop/internal/oracle"
	"redoop/internal/records"
	"redoop/internal/reuse"
)

// Tests of the emit's contract: it copies, as Hadoop's collect and
// context.write do, so a mapper or a reducer may write every pair into
// one buffer it reuses.

// scribble overwrites a buffer once emit has returned: what an emit that
// kept a view would read from then on.
func scribble(b []byte) {
	for i := range b {
		b[i] = '~'
	}
}

// reusingSum is sumReduce writing key and total into one buffer, which
// it scribbles over once they are emitted.
func reusingSum(key []byte, values [][]byte, emit mapreduce.Emitter) {
	total := 0
	for _, v := range values {
		n, _ := strconv.Atoi(string(v))
		total += n
	}
	buf := strconv.AppendInt(append(make([]byte, 0, len(key)+20), key...), int64(total), 10)
	emit.Emit(buf[:len(key)], buf[len(key):])
	scribble(buf)
}

// reusingJoin is crossJoinReduce writing every output into one buffer,
// scribbled over after each emit.
func reusingJoin(key []byte, values [][]byte, emit mapreduce.Emitter) {
	var as, bs [][]byte
	for _, v := range values {
		switch {
		case bytes.HasPrefix(v, []byte("A|")):
			as = append(as, v[2:])
		case bytes.HasPrefix(v, []byte("B|")):
			bs = append(bs, v[2:])
		}
	}
	var buf []byte
	for _, a := range as {
		for _, b := range bs {
			buf = append(append(append(buf[:0], a...), ','), b...)
			emit.Emit(key, buf)
			scribble(buf)
		}
	}
}

// reducers is one way of writing the tests' two reduce functions.
type reducers struct{ sum, join mapreduce.ReduceFunc }

var (
	fresh   = reducers{sumReduce, crossJoinReduce} // a new array per emit
	reusing = reducers{reusingSum, reusingJoin}
)

// emitTrace is what a run leaves: per recurrence the window's output and
// every resident cache's bytes, and the baseline driver's output.
type emitTrace struct {
	outputs, baseline [][]byte
	caches            []map[string][]byte
	recoveries        int
}

// residentCaches maps every cache the controller vouches for to its
// stored bytes.
func residentCaches(ctrl *core.Controller) map[string][]byte {
	out := map[string][]byte{}
	for _, sig := range ctrl.Signatures() {
		if data, ok := ctrl.Registry(sig.NID).Get(sig.PID, sig.Type); ok {
			out[fmt.Sprintf("%s/%v", sig.PID, sig.Type)] = data
		}
	}
	return out
}

// runEmitTrace runs q for six windows with the differential oracle and a
// lineage store attached — every recurrence must pass the oracle's
// recompute and its lineage audit — next to a baseline driver running
// qb on the same batches, both on workers executor workers (0: the
// default). between runs before each trigger.
func runEmitTrace(t *testing.T, q, qb *core.Query, subPanes, workers int, between func(r int, mr *mapreduce.Engine)) emitTrace {
	t.Helper()
	mr, mrb := newRig(t, 4, 1), newRig(t, 4, 1)
	mr.Workers, mrb.Workers = workers, workers
	eng := mustEngine(t, core.Config{MR: mr, Query: q, Lineage: lineage.New(0)})
	if err := eng.ForceProactive(subPanes); err != nil {
		t.Fatal(err)
	}
	orc, err := oracle.New(eng)
	if err != nil {
		t.Fatal(err)
	}
	drv, err := baseline.NewDriver(mrb, qb)
	if err != nil {
		t.Fatal(err)
	}
	var tr emitTrace
	for r, fed := 0, 0; r < 6; r++ {
		for ; int64(fed)*int64(testSlide) < eng.Frames()[0].WindowClose(r); fed++ {
			for src := range q.Sources {
				batch := genWords(23, testSlide, fed, 300, 20)
				if len(q.Sources) > 1 {
					batch = genKV(int64(src*1000+29), testSlide, fed, 60, 6)
				}
				orc.Observe(src, batch)
				if err := eng.Ingest(src, batch); err != nil {
					t.Fatal(err)
				}
				if err := drv.Ingest(src, batch); err != nil {
					t.Fatal(err)
				}
			}
		}
		if between != nil {
			between(r, mr)
		}
		res, err := eng.RunNext()
		if err != nil {
			t.Fatalf("recurrence %d: %v", r, err)
		}
		if v := orc.Check(res); !v.OK() {
			t.Fatalf("recurrence %d: %v", r, v.Err())
		}
		br, err := drv.RunNext()
		if err != nil {
			t.Fatalf("baseline recurrence %d: %v", r, err)
		}
		tr.outputs = append(tr.outputs, records.EncodePairs(res.Output))
		tr.baseline = append(tr.baseline, records.EncodePairs(sortedClone(br.Output)))
		tr.caches = append(tr.caches, residentCaches(eng.Controller()))
		tr.recoveries += res.CacheRecoveries
	}
	return tr
}

// sameTraces fails unless two runs left byte-identical outputs and
// caches.
func sameTraces(t *testing.T, got, want emitTrace) {
	t.Helper()
	for r := range want.outputs {
		if !bytes.Equal(got.outputs[r], want.outputs[r]) {
			t.Fatalf("recurrence %d: window output differs from the fresh-allocating twin's", r)
		}
		if !bytes.Equal(got.baseline[r], want.baseline[r]) {
			t.Fatalf("recurrence %d: baseline output differs from the fresh-allocating twin's", r)
		}
		if len(got.caches[r]) != len(want.caches[r]) {
			t.Fatalf("recurrence %d: %d resident caches, the twin %d", r, len(got.caches[r]), len(want.caches[r]))
		}
		for id, data := range want.caches[r] {
			if !bytes.Equal(got.caches[r][id], data) {
				t.Fatalf("recurrence %d: cache %s differs from the twin's", r, id)
			}
		}
	}
}

// TestReducersMayReuseTheirBuffers runs a reducer that emits one reused
// buffer, scribbled over after each emit, through every reduce path — the
// pane reduce, the combiner, the finalization merge, the proactive
// combine, the rebuild rung, the join's tuples, the cross-query reuse
// merge, the Hadoop baseline and the oracle's recompute and lineage audit
// — and holds every output and cache to a fresh-allocating twin's.
func TestReducersMayReuseTheirBuffers(t *testing.T) {
	agg := func(rs reducers) *core.Query {
		q := countQuery("agg", testWin, testSlide, "")
		q.Reduce, q.Combine, q.Merge = rs.sum, rs.sum, rs.sum
		return q
	}
	join := func(rs reducers) *core.Query {
		q := joinQuery("join", testWin, testSlide)
		q.Reduce = rs.join
		return q
	}
	dropOutputs := func(r int, mr *mapreduce.Engine) { // the rebuild rung: outputs lost, inputs kept
		if r == 3 {
			for _, id := range mr.Cluster.NodeIDs() {
				mr.Cluster.DropLocal(id, "cache/rout/")
			}
		}
	}
	for _, c := range []struct {
		name     string
		query    func(reducers) *core.Query
		subPanes int
		between  func(int, *mapreduce.Engine)
	}{
		{"pane reduce, combiner, finalize, rebuild", agg, 1, dropOutputs},
		{"proactive combine", agg, 3, nil},
		{"join tuples", join, 1, nil},
	} {
		t.Run(c.name, func(t *testing.T) {
			want := runEmitTrace(t, c.query(fresh), c.query(fresh), c.subPanes, 0, c.between)
			got := runEmitTrace(t, c.query(reusing), c.query(reusing), c.subPanes, 0, c.between)
			sameTraces(t, got, want)
			if c.between != nil && got.recoveries == 0 {
				t.Fatal("scenario is vacuous: no cache was rebuilt")
			}
		})
	}

	t.Run("cross-query reuse merge", func(t *testing.T) {
		want, _ := runReuseMerge(t, fresh)
		got, hits := runReuseMerge(t, reusing)
		if hits == 0 {
			t.Fatal("scenario is vacuous: the roll-up composed no pane")
		}
		sameTraces(t, got, want)
	})
}

// freshWords emits (word, "1") and (word#, "2") per record, each key and
// value an array of its own.
func freshWords(_ int64, payload []byte, emit mapreduce.Emitter) {
	emit.Emit(append([]byte(nil), payload...), []byte("1"))
	emit.Emit(append(append([]byte(nil), payload...), '#'), []byte("2"))
}

// reusingWords is freshWords writing both pairs into one buffer, which it
// scribbles over after each emit.
func reusingWords(_ int64, payload []byte, emit mapreduce.Emitter) {
	var buf [64]byte
	b := append(append(buf[:0], payload...), '1')
	emit.Emit(b[:len(payload)], b[len(payload):])
	scribble(b)
	b = append(append(buf[:0], payload...), '#', '2')
	emit.Emit(b[:len(payload)+1], b[len(payload)+1:])
	scribble(b)
}

// freshTag and reusingTag are joinQuery's side-tagging mapper written
// both ways: "key:value" becomes (key, side|value).
func freshTag(side string) mapreduce.MapFunc {
	return func(_ int64, payload []byte, emit mapreduce.Emitter) {
		if i := bytes.IndexByte(payload, ':'); i >= 0 {
			emit.Emit(append([]byte(nil), payload[:i]...), append([]byte(side+"|"), payload[i+1:]...))
		}
	}
}

func reusingTag(side string) mapreduce.MapFunc {
	return func(_ int64, payload []byte, emit mapreduce.Emitter) {
		if i := bytes.IndexByte(payload, ':'); i >= 0 {
			var buf [64]byte
			b := append(append(append(append(buf[:0], payload[:i]...), side...), '|'), payload[i+1:]...)
			emit.Emit(b[:i], b[i:])
			scribble(b)
		}
	}
}

// mappedParts maps every batch of q's source src as one map phase on
// workers executor workers and returns its partitions encoded.
func mappedParts(t *testing.T, q *core.Query, src, workers int, batches [][]records.Record) [][]byte {
	t.Helper()
	mr := newRig(t, 4, 1)
	mr.Workers = workers
	var paths []string
	for i, b := range batches {
		paths = append(paths, fmt.Sprintf("/in/%d", i))
		if err := mr.DFS.Write(paths[i], colfmt.EncodeRecords(b)); err != nil {
			t.Fatal(err)
		}
	}
	job := &mapreduce.Job{Name: "parts", Map: q.Maps[src], Reduce: q.Reduce, Combine: q.Combine, NumReducers: q.NumReducers}
	mp, err := mr.RunMapPhase(job, mapreduce.WholeFiles(paths), 0)
	if err != nil {
		t.Fatal(err)
	}
	parts := make([][]byte, len(mp.Parts))
	for r, ps := range mp.Parts {
		parts[r] = records.EncodePairs(ps)
	}
	return parts
}

// TestMappersMayReuseTheirBuffers mirrors TestReducersMayReuseTheirBuffers
// on the map side: a mapper that writes every key and value into one
// buffer, scribbled over after each emit, gives the map phase's
// partitions, every cache and every window output a fresh-allocating
// twin gives, at one executor worker and at four, with and without a
// combiner, and for the join's two tagging mappers.
func TestMappersMayReuseTheirBuffers(t *testing.T) {
	agg := func(m mapreduce.MapFunc, combine bool) *core.Query {
		q := countQuery("agg", testWin, testSlide, "")
		q.Maps[0] = m
		if !combine {
			q.Combine = nil
		}
		return q
	}
	join := func(tag func(string) mapreduce.MapFunc) *core.Query {
		q := joinQuery("join", testWin, testSlide)
		q.Maps = []mapreduce.MapFunc{tag("A"), tag("B")}
		return q
	}
	var words, kvs [][]records.Record
	for fed := 0; fed < 4; fed++ {
		words = append(words, genWords(23, testSlide, fed, 300, 20))
		kvs = append(kvs, genKV(29, testSlide, fed, 60, 6))
	}
	for _, workers := range []int{1, 4} {
		for _, combine := range []bool{false, true} {
			t.Run(fmt.Sprintf("aggregation, workers %d, combiner %v", workers, combine), func(t *testing.T) {
				fresh, reusing := agg(freshWords, combine), agg(reusingWords, combine)
				if got, want := mappedParts(t, reusing, 0, workers, words), mappedParts(t, fresh, 0, workers, words); !slices.EqualFunc(got, want, bytes.Equal) {
					t.Fatal("map phase partitions differ from the fresh-allocating twin's")
				}
				sameTraces(t, runEmitTrace(t, reusing, agg(reusingWords, combine), 1, workers, nil),
					runEmitTrace(t, fresh, agg(freshWords, combine), 1, workers, nil))
			})
		}
		t.Run(fmt.Sprintf("join, workers %d", workers), func(t *testing.T) {
			fresh, reusing := join(freshTag), join(reusingTag)
			for src := range fresh.Maps {
				if got, want := mappedParts(t, reusing, src, workers, kvs), mappedParts(t, fresh, src, workers, kvs); !slices.EqualFunc(got, want, bytes.Equal) {
					t.Fatalf("source %d: map phase partitions differ from the fresh-allocating twin's", src)
				}
			}
			sameTraces(t, runEmitTrace(t, reusing, join(reusingTag), 1, workers, nil),
				runEmitTrace(t, fresh, join(freshTag), 1, workers, nil))
		})
	}
}

// wordOnes is countQuery's mapper as a named function: the reuse index
// matches queries by their operators' symbols, and a closure inlined at
// two call sites would have two.
func wordOnes(_ int64, payload []byte, emit mapreduce.Emitter) {
	emit.Emit(append([]byte(nil), payload...), []byte("1"))
}

// runReuseMerge runs a fine aggregation and a tumbling roll-up at twice
// its pane over one shared stream with a reuse index, so the roll-up
// composes its panes from the fine query's with Merge. It returns both
// queries' outputs, interleaved in trigger order, the resident caches
// after each, and the index's subsumption hits.
func runReuseMerge(t *testing.T, rs reducers) (emitTrace, int) {
	t.Helper()
	mr := newRig(t, 4, 1)
	ctrl, hub, idx := core.NewController(), core.NewSourceHub(mr.DFS, mr.DFS.BlockSize()), reuse.NewIndex(0)
	acct := account.New() // names each query's entries: a query never reuses its own
	fine := countQuery("fine", testWin, testSlide, "words")
	roll := countQuery("roll", 2*testSlide, 2*testSlide, "words")
	for _, q := range []*core.Query{fine, roll} {
		q.Maps[0], q.Reduce, q.Combine, q.Merge = wordOnes, rs.sum, rs.sum, rs.sum
	}
	if err := hub.Share("words", "words", fine.Spec(), 0); err != nil {
		t.Fatal(err)
	}
	engs := []*core.Engine{
		mustEngine(t, core.Config{MR: mr, Query: fine, Controller: ctrl, Hub: hub, Reuse: idx, Account: acct}),
		mustEngine(t, core.Config{MR: mr, Query: roll, Controller: ctrl, Hub: hub, Reuse: idx, Account: acct}),
	}
	var tr emitTrace
	fed := 0
	for step := 0; step < 10; step++ {
		// The engine whose window closes first runs next; on a tie the
		// fine query, so the roll-up finds its newest half-pane published.
		i := 0
		if c := engs[1].Frames()[0].WindowClose(engs[1].NextRecurrence()); c < engs[0].Frames()[0].WindowClose(engs[0].NextRecurrence()) {
			i = 1
		}
		for ; int64(fed)*int64(testSlide) < engs[i].Frames()[0].WindowClose(engs[i].NextRecurrence()); fed++ {
			if err := hub.Ingest("words", genWords(23, testSlide, fed, 300, 20)); err != nil {
				t.Fatal(err)
			}
		}
		res, err := engs[i].RunNext()
		if err != nil {
			t.Fatalf("%s recurrence %d: %v", engs[i].Query().Name, res.Recurrence, err)
		}
		tr.outputs = append(tr.outputs, records.EncodePairs(res.Output))
		tr.baseline = append(tr.baseline, nil)
		tr.caches = append(tr.caches, residentCaches(ctrl))
	}
	return tr, int(idx.Stats().SubsumHits)
}
