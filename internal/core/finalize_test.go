package core_test

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"strconv"
	"strings"
	"testing"

	"redoop/internal/colfmt"
	"redoop/internal/core"
	"redoop/internal/mapreduce"
	"redoop/internal/queries"
	"redoop/internal/records"
)

// maxMerge keeps a key's byte-wise largest value: like a sum, a Merge
// whose result does not depend on the order its values come in.
func maxMerge(key []byte, values [][]byte, emit mapreduce.Emitter) {
	emit.Emit(key, slices.MaxFunc(values, bytes.Compare))
}

// randomWindow builds parts partitions' cached partial outputs: none, one
// or up to twelve caches each, key-sorted runs over one small vocabulary
// (so keys repeat across runs), some values empty, now and then a key
// twice in one run, and, when disorder is set, one cache out of key order.
func randomWindow(rng *rand.Rand, parts int, disorder bool) [][][]byte {
	byKey := func(a, b records.Pair) int { return bytes.Compare(a.Key, b.Key) }
	data := make([][][]byte, parts)
	var caches [][]records.Pair
	for part := range data {
		for range []int{0, 1, 1 + rng.Intn(12), 1 + rng.Intn(12)}[rng.Intn(4)] {
			var ps []records.Pair
			for _, k := range rng.Perm(30)[:1+rng.Intn(12)] {
				v := strconv.Itoa(rng.Intn(1000))
				if rng.Intn(6) == 0 {
					v = ""
				}
				ps = append(ps, records.Pair{Key: fmt.Appendf(nil, "k%02d", k), Value: []byte(v)})
			}
			if rng.Intn(8) == 0 {
				ps = append(ps, records.Pair{Key: ps[0].Key, Value: []byte(strconv.Itoa(rng.Intn(1000)))})
			}
			slices.SortStableFunc(ps, byKey)
			caches = append(caches, ps)
			data[part] = append(data[part], nil)
		}
	}
	if disorder && len(caches) > 0 {
		c := rng.Intn(len(caches))
		caches[c] = append(caches[c], records.Pair{Key: []byte("a-first-key-last")})
	}
	i := 0
	for part := range data {
		for c := range data[part] {
			data[part][c] = colfmt.EncodePairs(caches[i])
			i++
		}
	}
	return data
}

// gatherGroupMerge is the finalization merge of one partition as it was
// before the merge read its caches as runs: decode every cache into one
// array, Grouper.Group it and reduce the groups with merge. It returns
// the output and the input and output sizes of the partition's merge task.
func gatherGroupMerge(t *testing.T, merge mapreduce.ReduceFunc, segs [][]byte) (out []records.Pair, in, outBytes int64) {
	t.Helper()
	var all []records.Pair
	for _, seg := range segs {
		ps, err := colfmt.DecodePairs(seg)
		check(t, err)
		all = append(all, ps...)
	}
	var g mapreduce.Grouper
	_, run := g.Reduce(merge, g.Group(all))
	out = run.AppendTo(nil)
	return out, records.PairsSize(all), records.PairsSize(out)
}

// TestFinalizeByRunsMatchesGatherGroupMerge holds the finalization merge,
// which reads each cached partial output as a run and merges the runs off
// their columns (SortedRun + Grouper.ReduceRuns), to the gather, Group and
// Merge it replaced, over random windows: the output's bytes and pairs,
// and each partition's merge task input bytes, for SumCounts and for a
// max, on one executor worker and on four.
func TestFinalizeByRunsMatchesGatherGroupMerge(t *testing.T) {
	const parts = 4
	for _, workers := range []int{1, 4} {
		for _, merge := range []struct {
			name string
			fn   mapreduce.ReduceFunc
		}{{"SumCounts", queries.SumCounts}, {"max", maxMerge}} {
			mr := newRig(t, 3, 5)
			mr.Workers = workers
			q := countQuery("finalize", testWin, testSlide, "")
			q.Merge, q.NumReducers = merge.fn, parts
			eng := mustEngine(t, core.Config{MR: mr, Query: q})
			rng := rand.New(rand.NewSource(int64(workers)))
			for trial := 0; trial < 60; trial++ {
				data := randomWindow(rng, parts, trial%3 == 0)
				got, stats, err := core.FinalizeCaches(eng, data)
				if err != nil {
					t.Fatalf("%s, %d workers, trial %d: %v", merge.name, workers, trial, err)
				}
				var want []records.Pair
				var in, out int64
				for part := range data {
					ps, pin, pout := gatherGroupMerge(t, merge.fn, data[part])
					want, in, out = append(want, ps...), in+pin, out+pout
					alone := make([][][]byte, parts)
					alone[part] = data[part]
					if _, pstats, err := core.FinalizeCaches(eng, alone); err != nil || pstats.BytesCacheRead != pin {
						t.Fatalf("%s, %d workers, trial %d, partition %d: the merge task reads %d bytes (%v), the pairs decoded size to %d",
							merge.name, workers, trial, part, pstats.BytesCacheRead, err, pin)
					}
				}
				if !bytes.Equal(records.EncodePairs(got), records.EncodePairs(want)) || !pairsEqual(got, want) {
					t.Fatalf("%s, %d workers, trial %d: merged %s\nwant %s", merge.name, workers, trial, dumpPairs(got, 12), dumpPairs(want, 12))
				}
				if stats.BytesCacheRead != in || stats.BytesOutput != out {
					t.Fatalf("%s, %d workers, trial %d: %d bytes read and %d output, want %d and %d",
						merge.name, workers, trial, stats.BytesCacheRead, stats.BytesOutput, in, out)
				}
			}
		}
	}
}

// TestCorruptPaneOutputFailsTheRecurrence: a damaged cached pane output
// fails the recurrence whose finalization merge reads it with
// colfmt.ErrCorrupt, and of two damaged partitions the error is the
// lower one's, whichever worker met which first.
func TestCorruptPaneOutputFailsTheRecurrence(t *testing.T) {
	for _, workers := range []int{1, 4} {
		for _, order := range [][2]string{{"checksum", "magic"}, {"magic", "checksum"}} {
			mr := newRig(t, 3, 7)
			mr.Workers = workers
			q := countQuery("corrupt", testWin, testSlide, "")
			q.NumReducers = 4
			eng := mustEngine(t, core.Config{MR: mr, Query: q})
			for s := 0; s < 4; s++ {
				check(t, eng.Ingest(0, genWords(31, testSlide, s, 300, 40)))
			}
			res, err := eng.RunNext()
			check(t, err)
			// Pane WindowHi is in the next window too: damage its outputs
			// in partitions 1 and 3.
			for i, part := range []int{1, 3} {
				pid := q.ReduceOutputPanePID(res.WindowHi, part)
				sig, ok := eng.Controller().Lookup(pid, core.ReduceOutput)
				if !ok {
					t.Fatalf("no output cache %s", pid)
				}
				data, ok := eng.Controller().Registry(sig.NID).Get(pid, core.ReduceOutput)
				if !ok || len(data) == 0 {
					t.Fatalf("output cache %s is empty", pid)
				}
				core.Damages[order[i]](data)
			}
			_, err = eng.RunNext()
			if !errors.Is(err, colfmt.ErrCorrupt) || !strings.Contains(err.Error(), order[0]) {
				t.Fatalf("%d workers, partition 1 damaged in its %s, 3 in its %s: %v", workers, order[0], order[1], err)
			}
		}
	}
}
