package mapreduce

import (
	"bytes"
	"fmt"
	"strconv"
	"sync"
	"testing"

	"redoop/internal/colfmt"
)

// concatReduce emits each key with its values joined in the order they
// came, so a reducer's output shows the order the grouping gave it.
func concatReduce(k []byte, vs [][]byte, emit Emitter) { emit.Emit(k, bytes.Join(vs, []byte("|"))) }

// stampMap emits the payload as the key and the timestamp as a fresh
// value, so values come out of byte order (ts 10 after ts 9).
func stampMap(ts int64, payload []byte, emit Emitter) {
	emit.Emit(payload, []byte(strconv.FormatInt(ts%23, 10)))
}

// encodedReduce is what RunReducePhase hands Redoop per partition: the
// reduce input and output as their cache encodings.
func encodedReduce(t *testing.T, e *Engine, job *Job, mp *MapPhaseResult) map[int][2]string {
	t.Helper()
	rr, _, err := e.RunReducePhase(job, mp, 0)
	check(t, err)
	out := map[int][2]string{}
	for _, r := range rr {
		out[r.Part] = [2]string{string(colfmt.EncodePairs(r.Input)), string(r.OutData)}
	}
	return out
}

// TestPartitionerCalledOncePerKeyPerWorker pins the Partitioner contract:
// the runtime calls it once per distinct key per pool worker, however
// many splits and pairs carry the key, and the reduce inputs and outputs
// it gives — what Redoop caches — are byte-identical to a reference that
// partitions every pair and sorts each partition.
func TestPartitionerCalledOncePerKeyPerWorker(t *testing.T) {
	vocab := []string{"ant", "bee", "cat", "dog", "eel", "fox", "gnu"}
	for _, workers := range []int{1, 4} {
		e := testRig(t, 3)
		e.Workers = workers
		writeWords(t, e, "/w", vocab, 3000)
		var mu sync.Mutex
		calls := map[string]int{}
		job := &Job{
			Name: "count", Map: stampMap, Reduce: concatReduce, NumReducers: 4,
			Partition: func(key []byte, r int) int {
				mu.Lock()
				calls[string(key)]++
				mu.Unlock()
				return DefaultPartitioner(key, r)
			},
		}
		mp, err := e.RunMapPhase(job, WholeFiles([]string{"/w"}), 0)
		check(t, err)
		if mp.Stats.MapTasks < 2*workers {
			t.Fatalf("workers %d: %d splits are too few to share keys", workers, mp.Stats.MapTasks)
		}
		for _, k := range vocab {
			if n := calls[k]; n < 1 || n > workers || workers == 1 && n != 1 {
				t.Fatalf("workers %d: the partitioner saw %q %d times", workers, k, n)
			}
		}
		if len(calls) != len(vocab) {
			t.Fatalf("workers %d: the partitioner saw %d keys, the input has %d", workers, len(calls), len(vocab))
		}
		got := encodedReduce(t, e, job, mp)
		want, _, _, _ := naiveMapPhase(t, e, job, WholeFiles([]string{"/w"}), nil)
		for r, ps := range want {
			out := ReduceGroups(job.Reduce, GroupPairs(ps))
			if w := [2]string{string(colfmt.EncodePairs(ps)), string(colfmt.EncodePairs(out))}; got[r] != w {
				t.Fatalf("workers %d: partition %d's caches differ from the reference's", workers, r)
			}
		}
	}
}

// TestMergedPhasesDropTheSortedMark: a committed phase is marked sorted,
// and so is a merge that takes over a sole live phase; a merge of two
// live phases — the baseline's two join sources, a pane of several
// segments — is not, and its reduce (through Group) gives the caches the
// marked phase over the same records gives, and those the hashing path
// gives it.
func TestMergedPhasesDropTheSortedMark(t *testing.T) {
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers%d", workers), func(t *testing.T) {
			e := testRig(t, 3)
			e.Workers = workers
			offs := writeRanged(t, e, "/in", 1500)
			job := &Job{Name: "merge", Map: stampMap, Reduce: concatReduce, NumReducers: 3}
			phase := func(ins ...Input) *MapPhaseResult {
				mp, err := e.RunMapPhase(job, ins, 0)
				check(t, err)
				return mp
			}
			half := int64(offs[700])
			whole := phase(WholeFile("/in"))
			sole := MergeMapPhases([]*MapPhaseResult{phase(), phase(WholeFile("/in"))}, job.NumReducers, 0)
			two := MergeMapPhases([]*MapPhaseResult{
				phase(Input{Path: "/in", Length: half}), phase(Input{Path: "/in", Offset: half, Length: -1}),
			}, job.NumReducers, 0)
			if !whole.PartsSorted() || !sole.PartsSorted() || two.PartsSorted() {
				t.Fatalf("sorted marks: committed %v, sole merge %v, merge of two %v; want true, true, false",
					whole.PartsSorted(), sole.PartsSorted(), two.PartsSorted())
			}
			hashed := &MapPhaseResult{Parts: cloneParts(whole.Parts), PartSrcBytes: whole.PartSrcBytes}
			want := encodedReduce(t, e, job, whole)
			if len(want) == 0 {
				t.Fatal("scenario is vacuous: nothing reduced")
			}
			for what, mp := range map[string]*MapPhaseResult{"hashing path": hashed, "sole merge": sole, "merge of two": two} {
				if got := encodedReduce(t, e, job, mp); fmt.Sprint(got) != fmt.Sprint(want) {
					t.Fatalf("the %s reduces to other caches than the sorted phase", what)
				}
			}
		})
	}
}

// checkScratchPinsNothing: no key table on e's free list still holds a
// key of a phase. (A split's value runs are its stage's own, garbage once
// the phase is laid out.)
func checkScratchPinsNothing(t *testing.T, e *Engine) {
	t.Helper()
	for _, tabs := range e.scratch.tables.spare {
		for w, tab := range tabs[:cap(tabs)] {
			for i, k := range tab.keys[:cap(tab.keys)] {
				if k.key != nil {
					t.Fatalf("key table %d still holds key %d (%q)", w, i, k.key)
				}
			}
		}
	}
}
