package core_test

import (
	"bytes"
	"fmt"
	"slices"
	"testing"

	"redoop/internal/colfmt"
	"redoop/internal/core"
	"redoop/internal/mapreduce"
	"redoop/internal/obs"
	"redoop/internal/obs/eventlog"
	"redoop/internal/records"
)

// Tests of the cache paths' ownership rule: writers hand exactly-sized
// encodings over, stored bytes are immutable, readers (and so window
// outputs) hold views of them, and nothing cached is a view of an input.

// deepCopyPairs copies headers and payload bytes.
func deepCopyPairs(ps []records.Pair) []records.Pair {
	out := make([]records.Pair, len(ps))
	for i, p := range ps {
		out[i] = records.Pair{Key: append([]byte(nil), p.Key...), Value: append([]byte(nil), p.Value...)}
	}
	return out
}

// TestRetainedOutputSurvivesCacheChurn keeps one window's Output — whose
// pairs alias cache bytes — while later recurrences expire, evict under
// CacheDiskLimit (the aggregation; a join takes no limit), drop,
// re-register and lose to a node crash the caches it was decoded from.
// The retained pairs must read exactly as they did when the window was
// returned. Run under -race in CI at both widths.
func TestRetainedOutputSurvivesCacheChurn(t *testing.T) {
	queries := map[string]func() *core.Query{
		// Manifest path: the output's keys and values are cache views.
		"join": func() *core.Query { return joinQuery("join", testWin, testSlide) },
		// Merge path: keys are views of the pane output caches; the one
		// byte per node budget evicts every reduce input each recurrence.
		"agg": func() *core.Query { return countQuery("agg", testWin, testSlide, "") },
	}
	for name, mk := range queries {
		for _, workers := range []int{1, 4} {
			t.Run(fmt.Sprintf("%s/workers%d", name, workers), func(t *testing.T) {
				q := mk()
				mr := newRig(4, 1)
				mr.Workers = workers
				cfg := core.Config{MR: mr, Query: q, Obs: obs.New()}
				if name == "agg" {
					cfg.CacheDiskLimit = 1
				}
				eng := mustEngine(t, cfg)
				var kept, want []records.Pair
				recoveries, fed := 0, 0
				for r := 0; r < 10; r++ {
					for ; int64(fed)*int64(testSlide) < eng.Frames()[0].WindowClose(r); fed++ {
						for src := range q.Sources {
							var batch []records.Record
							if name == "join" {
								batch = genKV(int64(src*1000+29), testSlide, fed, 60, 6)
							} else {
								batch = genWords(23, testSlide, fed, 300, 20)
							}
							if err := eng.Ingest(src, batch); err != nil {
								t.Fatal(err)
							}
						}
					}
					switch r {
					case 2: // every cache window 1 was read from is dropped...
						for _, id := range mr.Cluster.NodeIDs() {
							mr.Cluster.DropLocal(id, "cache/")
						}
					case 3: // ...rebuilt under the same names, then a home node crashes
						mr.DFS.FailNode(1)
						mr.Cluster.FailNode(1)
					}
					res, err := eng.RunNext()
					if err != nil {
						t.Fatalf("recurrence %d: %v", r, err)
					}
					recoveries += res.CacheRecoveries
					if r == 1 {
						kept, want = res.Output, deepCopyPairs(res.Output)
					}
				}
				if len(kept) == 0 || recoveries == 0 {
					t.Fatalf("scenario is vacuous: %d retained pairs, %d cache recoveries", len(kept), recoveries)
				}
				evicted := 0
				for _, d := range cfg.Obs.Tracer.Decisions() { // ten recurrences: all retained
					if d.Type == eventlog.CacheEvict {
						evicted++
					}
				}
				if (name == "agg") != (evicted > 0) {
					t.Fatalf("%d evictions; the aggregation's disk limit must evict and the join has none", evicted)
				}
				// By now window 1's panes have left every window: all its
				// caches are expired as well.
				for i := range want {
					if !bytes.Equal(kept[i].Key, want[i].Key) || !bytes.Equal(kept[i].Value, want[i].Value) {
						t.Fatalf("retained pair %d changed: %q=%q, was %q=%q",
							i, kept[i].Key, kept[i].Value, want[i].Key, want[i].Value)
					}
				}
			})
		}
	}
}

// TestJoinMergesUnsortedSharedInputs: the join builds a pane pair's
// reduce input by merging its panes' cached runs, which it stores
// sorted — but a reduce input registered under the same shared name by
// an aggregation sibling is in map-output order. Every resident reduce
// input is re-registered reversed between recurrences; the join must
// still equal the baseline.
func TestJoinMergesUnsortedSharedInputs(t *testing.T) {
	q := joinQuery("join", testWin, testSlide)
	qb := joinQuery("join", testWin, testSlide)
	gen := func(src, s int) []records.Record {
		return genKV(int64(src*1000+29), testSlide, s, 50, 6)
	}
	planted := 0
	between := func(r int, eng *core.Engine) {
		ctrl := eng.Controller()
		for _, sig := range ctrl.Signatures() {
			if sig.Type != core.ReduceInput || sig.Ready != core.CacheAvailable || sig.Bytes == 0 {
				continue
			}
			reg := ctrl.Registry(sig.NID)
			data, ok := reg.Get(sig.PID, sig.Type)
			if !ok {
				continue
			}
			pairs, err := colfmt.DecodePairs(data)
			if err != nil {
				t.Fatal(err)
			}
			for i, j := 0, len(pairs)-1; i < j; i, j = i+1, j-1 {
				pairs[i], pairs[j] = pairs[j], pairs[i]
			}
			if !slices.IsSortedFunc(pairs, func(a, b records.Pair) int { return bytes.Compare(a.Key, b.Key) }) {
				planted++
			}
			reg.Add(sig.PID, sig.Type, colfmt.EncodePairs(pairs))
		}
	}
	rres, bres := runBoth(t, q, qb, 6, false, gen, between)
	if planted == 0 {
		t.Fatal("no reduce input was out of order after reversal")
	}
	assertSameOutputs(t, rres, bres)
}

// residentReduceInputs decodes every non-empty resident reduce-input
// cache of eng's controller.
func residentReduceInputs(t *testing.T, eng *core.Engine) map[string][]records.Pair {
	t.Helper()
	out := map[string][]records.Pair{}
	ctrl := eng.Controller()
	for _, sig := range ctrl.Signatures() {
		if sig.Type != core.ReduceInput || sig.Ready != core.CacheAvailable || sig.Bytes == 0 {
			continue
		}
		data, ok := ctrl.Registry(sig.NID).Get(sig.PID, sig.Type)
		if !ok {
			continue
		}
		pairs, err := colfmt.DecodePairs(data)
		if err != nil {
			t.Fatal(err)
		}
		out[sig.PID] = pairs
	}
	return out
}

// TestReduceInputsAreStoredSorted: the join merges its panes' cached
// reduce inputs as sorted runs and the aggregation's rebuild rung groups
// them without sorting, whoever registered them. So every path that
// stores one — the aggregation's pane reduce, its proactive sub-pane
// merge, the join's pane shuffle — must store it key-sorted, and the
// two whole-pane paths in the (key, value) order the oracle audits.
func TestReduceInputsAreStoredSorted(t *testing.T) {
	byKey := func(a, b records.Pair) int { return bytes.Compare(a.Key, b.Key) }
	cases := []struct {
		name      string
		q         *core.Query
		subPanes  int
		totalSort bool
	}{
		{"agg", countQuery("agg", testWin, testSlide, ""), 1, true},
		{"agg-proactive", countQuery("aggp", testWin, testSlide, ""), 3, false},
		{"join", joinQuery("join", testWin, testSlide), 1, true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			eng := mustEngine(t, core.Config{MR: newRig(4, 1), Query: c.q})
			if err := eng.ForceProactive(c.subPanes); err != nil {
				t.Fatal(err)
			}
			checked := 0
			for r, fed := 0, 0; r < 4; r++ {
				for ; int64(fed)*int64(testSlide) < eng.Frames()[0].WindowClose(r); fed++ {
					for src := range c.q.Sources {
						if err := eng.Ingest(src, genKV(int64(src*1000+29), testSlide, fed, 200, 6)); err != nil {
							t.Fatal(err)
						}
					}
				}
				if _, err := eng.RunNext(); err != nil {
					t.Fatal(err)
				}
				for pid, pairs := range residentReduceInputs(t, eng) {
					checked++
					if !slices.IsSortedFunc(pairs, byKey) {
						t.Fatalf("recurrence %d: reduce input %s is not key-sorted", r, pid)
					}
					if c.totalSort && !pairsEqual(pairs, sortedClone(pairs)) {
						t.Fatalf("recurrence %d: reduce input %s is not in SortPairs order", r, pid)
					}
				}
			}
			if checked == 0 {
				t.Fatal("scenario is vacuous: no resident reduce input")
			}
		})
	}
}

// TestCachesOwnNothingOfTheirInputs: the write path hands views along —
// pane-file bytes to decoded records to emitted keys — and copies only
// into the cache encodings. After a recurrence, overwriting and
// deleting every pane file must leave the cached bytes and the window's
// Output exactly as they were, and the next window must still be right.
// (The ingested batch itself is handed over, not copied: see
// TestIngestNeverWritesTheBatch.)
func TestCachesOwnNothingOfTheirInputs(t *testing.T) {
	viewQuery := func(name string) *core.Query {
		q := countQuery(name, testWin, testSlide, "")
		one := []byte("1")
		// Emits views, as queries.WCCMap does.
		q.Maps[0] = func(_ int64, payload []byte, emit mapreduce.Emitter) { emit.Emit(payload, one) }
		q.Combine = nil
		return q
	}
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers%d", workers), func(t *testing.T) {
			mr, twinMR := newRig(4, 1), newRig(4, 1)
			mr.Workers, twinMR.Workers = workers, workers
			q := viewQuery("agg")
			eng := mustEngine(t, core.Config{MR: mr, Query: q})
			twin := mustEngine(t, core.Config{MR: twinMR, Query: viewQuery("agg")}) // never disturbed
			fed := 0
			feed := func(r int) {
				for ; int64(fed)*int64(testSlide) < eng.Frames()[0].WindowClose(r); fed++ {
					batch := genWords(23, testSlide, fed, 300, 20)
					if err := twin.Ingest(0, slices.Clone(batch)); err != nil {
						t.Fatal(err)
					}
					if err := eng.Ingest(0, batch); err != nil {
						t.Fatal(err)
					}
				}
			}
			feed(0)
			res, err := eng.RunNext()
			if err != nil {
				t.Fatal(err)
			}
			if _, err := twin.RunNext(); err != nil {
				t.Fatal(err)
			}
			wantOut := deepCopyPairs(res.Output)
			views := residentReduceInputs(t, eng)
			wantIn := map[string][]records.Pair{}
			for pid, pairs := range views {
				wantIn[pid] = deepCopyPairs(pairs)
			}
			if len(views) == 0 || len(wantOut) == 0 {
				t.Fatal("scenario is vacuous: nothing cached or nothing output")
			}

			churned := 0
			for p := res.WindowLo; p <= res.WindowHi; p++ {
				ins, _ := eng.PaneInputs(0, p)
				for _, in := range ins {
					size, err := mr.DFS.Size(in.Input.Path)
					if err != nil {
						t.Fatal(err)
					}
					if err := mr.DFS.Write(in.Input.Path, bytes.Repeat([]byte{0xA5}, int(size))); err != nil {
						t.Fatal(err)
					}
					if err := mr.DFS.Delete(in.Input.Path); err != nil {
						t.Fatal(err)
					}
					churned++
				}
			}
			if churned == 0 {
				t.Fatal("scenario is vacuous: no pane file to destroy")
			}

			if !pairsEqual(res.Output, wantOut) {
				t.Fatalf("window output changed under input churn:\n got  %s\n want %s", dumpPairs(res.Output, 8), dumpPairs(wantOut, 8))
			}
			for pid, pairs := range views {
				if !pairsEqual(pairs, wantIn[pid]) {
					t.Fatalf("cached reduce input %s changed under input churn", pid)
				}
			}
			// The next window needs only its new pane's file.
			feed(1)
			got, err := eng.RunNext()
			if err != nil {
				t.Fatal(err)
			}
			want, err := twin.RunNext()
			if err != nil {
				t.Fatal(err)
			}
			if !pairsEqual(sortedClone(got.Output), sortedClone(want.Output)) {
				t.Fatal("window after the churn differs from an undisturbed engine's")
			}
		})
	}
}
