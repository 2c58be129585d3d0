package core_test

import (
	"bytes"
	"fmt"
	"slices"
	"testing"

	"redoop/internal/colfmt"
	"redoop/internal/core"
	"redoop/internal/records"
)

// Tests of the cache read path's ownership rule: writers copy in,
// stored bytes are immutable, readers (and so window outputs) hold
// views of them.

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
// CacheDiskLimit, drop, re-register and lose to a node crash the caches
// it was decoded from. The retained pairs must read exactly as they did
// when the window was returned. Run under -race in CI at both widths.
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
				eng := core.MustNewEngine(core.Config{MR: mr, Query: q, CacheDiskLimit: 1})
				var kept, want []records.Pair
				recoveries, fed := 0, 0
				for r := 0; r < 10; r++ {
					for ; int64(fed)*int64(testSlide) < q.Spec().WindowClose(r); fed++ {
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
				if name == "agg" && len(eng.EvictionLog()) == 0 {
					t.Fatal("scenario is vacuous: the disk limit evicted nothing")
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
