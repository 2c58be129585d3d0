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

func byKey(a, b records.Pair) int { return bytes.Compare(a.Key, b.Key) }

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
				mr := newRig(t, 4, 1)
				mr.Workers = workers
				mr.Obs = obs.New()
				cfg := core.Config{MR: mr, Query: q}
				if name == "agg" {
					cfg.CacheDiskLimit = 1
				}
				eng := mustEngine(t, cfg)
				gen := func(src, s int) []records.Record {
					if name == "join" {
						return genKV(int64(src*1000+29), testSlide, s, 60, 6)
					}
					return genWords(23, testSlide, s, 300, 20)
				}
				fed, recoveries := 0, 0
				res := core.Drive(t, eng, &fed, 2, gen, nil)
				kept, want := res[1].Output, deepCopyPairs(res[1].Output)
				res = append(res, core.Drive(t, eng, &fed, 8, gen, func(r int) {
					switch r {
					case 2: // every cache window 1 was read from is dropped...
						for _, id := range mr.Cluster.NodeIDs() {
							mr.Cluster.DropLocal(id, "cache/")
						}
					case 3: // ...rebuilt under the same names, then a home node crashes
						mr.DFS.FailNode(1)
						mr.Cluster.FailNode(1)
					}
				})...)
				for _, r := range res {
					recoveries += r.CacheRecoveries
				}
				if len(kept) == 0 || recoveries == 0 {
					t.Fatalf("scenario is vacuous: %d retained pairs, %d cache recoveries", len(kept), recoveries)
				}
				evicted := 0
				for _, d := range mr.Obs.Decisions() { // ten recurrences: all retained
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
	mk := func() *core.Query { return joinQuery("join", testWin, testSlide) }
	gen := func(src, s int) []records.Record {
		return genKV(int64(src*1000+29), testSlide, s, 50, 6)
	}
	planted := 0
	between := func(r int, eng *core.Engine) {
		for pid, pairs := range residentReduceInputs(t, eng) {
			slices.Reverse(pairs)
			if !slices.IsSortedFunc(pairs, byKey) {
				planted++
			}
			sig, _ := eng.Controller().Lookup(pid, core.ReduceInput)
			eng.Controller().Registry(sig.NID).Add(pid, core.ReduceInput, colfmt.EncodePairs(pairs))
		}
	}
	runBoth(t, mk, 6, false, gen, between)
	if planted == 0 {
		t.Fatal("no reduce input was out of order after reversal")
	}
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
		check(t, err)
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
			eng := mustEngine(t, core.Config{MR: newRig(t, 4, 1), Query: c.q})
			check(t, eng.ForceProactive(c.subPanes))
			checked, fed := 0, 0
			for r := 0; r < 4; r++ {
				core.Drive(t, eng, &fed, 1, func(src, s int) []records.Record { return genKV(int64(src*1000+29), testSlide, s, 200, 6) }, nil)
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
			mr, twinMR := newRig(t, 4, 1), newRig(t, 4, 1)
			mr.Workers, twinMR.Workers = workers, workers
			q := viewQuery("agg")
			eng := mustEngine(t, core.Config{MR: mr, Query: q})
			twin := mustEngine(t, core.Config{MR: twinMR, Query: viewQuery("agg")}) // never disturbed
			gen := func(_, s int) []records.Record { return genWords(23, testSlide, s, 300, 20) }
			fed, twinFed := 0, 0
			res := core.Drive(t, eng, &fed, 1, gen, nil)[0]
			core.Drive(t, twin, &twinFed, 1, gen, nil)
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
					check(t, err)
					check(t, mr.DFS.Write(in.Input.Path, bytes.Repeat([]byte{0xA5}, int(size))))
					check(t, mr.DFS.Delete(in.Input.Path))
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
			got, want := core.Drive(t, eng, &fed, 1, gen, nil)[0], core.Drive(t, twin, &twinFed, 1, gen, nil)[0]
			if !pairsEqual(sortedClone(got.Output), sortedClone(want.Output)) {
				t.Fatal("window after the churn differs from an undisturbed engine's")
			}
		})
	}
}
