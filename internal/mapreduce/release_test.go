package mapreduce

import (
	"bytes"
	"fmt"
	"strconv"
	"sync"
	"testing"

	"redoop/internal/records"
)

// TestReleasedPhaseLeaksNothing: a released map-output array goes back
// cleared and comes out again under the next phase with no trace of the
// first, until DropScratch; releasing twice hands it back once; a merge
// takes over a sole live phase's array, so only one result ever hands it
// back; and a merge of several copies, so releasing it leaves theirs
// intact.
func TestReleasedPhaseLeaksNothing(t *testing.T) {
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers%d", workers), func(t *testing.T) {
			rig := func() *Engine {
				e := testRig(t, 3)
				e.Workers = workers
				writeRanged(t, e, "/a", 900)
				writeWords(t, e, "/b", []string{"ant", "bee", "cat", "dog", "eel"}, 700)
				return e
			}
			job := &Job{
				Name:        "release",
				Map:         func(ts int64, payload []byte, emit Emitter) { emit.Emit(payload, []byte(strconv.FormatInt(ts, 10))) },
				Reduce:      func(k []byte, vs [][]byte, emit Emitter) { emit.Emit(k, vs[0]) },
				NumReducers: 3,
			}
			phase := func(e *Engine, paths ...string) *MapPhaseResult {
				mp, err := e.RunMapPhase(job, WholeFiles(paths), 0)
				check(t, err)
				return mp
			}
			// What a fresh engine maps each file to, the headers copied out.
			fresh := rig()
			wantA, wantB := cloneParts(phase(fresh, "/a").Parts), cloneParts(phase(fresh, "/b").Parts)
			checkParts := func(what string, mp *MapPhaseResult, want [][]records.Pair) {
				t.Helper()
				if !equalParts(mp.Parts, want) {
					t.Fatalf("%s: partitions differ from a fresh engine's", what)
				}
			}

			e := rig()
			e.DropScratch()
			a := phase(e, "/a")
			checkParts("first phase", a, wantA)
			buf := a.out
			a.Release()
			if a.Parts != nil || a.out != nil {
				t.Fatal("a released phase still holds its partitions")
			}
			if len(e.scratch.tables.spare) == 0 {
				t.Fatal("the phase handed back no key tables")
			}
			checkScratchPinsNothing(t, e)
			for i, p := range buf[:cap(buf)] {
				if p.Key != nil || p.Value != nil {
					t.Fatalf("the released array still holds pair %d (%q, %q)", i, p.Key, p.Value)
				}
			}
			a.Release()
			(*MapPhaseResult)(nil).Release()
			b := phase(e, "/b")
			checkParts("phase on a recycled array", b, wantB)
			if &b.out[0] != &buf[0] {
				t.Fatal("the phase after a release did not come out on the released array")
			}
			b.Release()
			e.DropScratch()
			if c := phase(e, "/b"); &c.out[0] == &buf[0] {
				t.Fatal("a phase after DropScratch came out on an array released before it")
			}

			// A merge of one live phase (and one that ran no task) takes the
			// array over: only the merge hands it back.
			b = phase(e, "/b")
			sole := MergeMapPhases([]*MapPhaseResult{phase(e), b}, job.NumReducers, 0)
			if sole.out == nil || b.out != nil {
				t.Fatal("a merge of one live phase did not take its array over")
			}
			checkParts("merge of one live phase", sole, wantB)
			sole.Release()
			b.Release()
			// Had either handed the array back twice, two live phases
			// could now come out on one array.
			x, y := phase(e, "/b"), phase(e, "/b")
			if &x.out[0] == &y.out[0] {
				t.Fatal("two live phases share one array")
			}
			checkParts("second of two live phases", y, wantB)

			// A merge of several owns a copy: releasing it leaves theirs.
			a = phase(e, "/a")
			several := MergeMapPhases([]*MapPhaseResult{a, x}, job.NumReducers, 0)
			want := make([][]records.Pair, job.NumReducers)
			for r := range want {
				want[r] = append(append([]records.Pair(nil), wantA[r]...), wantB[r]...)
			}
			checkParts("merge of several", several, want)
			several.Release()
			checkParts("first merged phase after the merge's release", a, wantA)
			checkParts("second merged phase after the merge's release", x, wantB)
			for _, mp := range []*MapPhaseResult{a, x, y} {
				mp.Release()
			}
			checkScratchPinsNothing(t, e)
			e.DropScratch()
			if len(e.scratch.tables.spare)+len(e.scratch.ids.spare) != 0 {
				t.Fatal("DropScratch left a key table or stage array on the free lists")
			}
		})
	}
}

// TestFreeListsShareAcrossGoroutines: prepares running at once on one
// engine borrow distinct arrays and stages, what one goroutine releases
// another may take, and every phase maps what a fresh engine maps.
// Meant for -race -count=10.
func TestFreeListsShareAcrossGoroutines(t *testing.T) {
	e := testRig(t, 3)
	e.Workers = 2
	writeRanged(t, e, "/a", 900)
	writeWords(t, e, "/b", []string{"ant", "bee", "cat", "dog", "eel"}, 700)
	job := &Job{
		Name:        "share",
		Map:         func(ts int64, payload []byte, emit Emitter) { emit.Emit(payload, []byte(strconv.FormatInt(ts, 10))) },
		Reduce:      func(k []byte, vs [][]byte, emit Emitter) { emit.Emit(k, vs[0]) },
		NumReducers: 3,
	}
	paths := []string{"/a", "/b", "/a", "/b", "/a"}
	want := make([][][]records.Pair, len(paths))
	for i, p := range paths {
		mp, err := e.RunMapPhase(job, WholeFiles([]string{p}), 0)
		check(t, err)
		want[i] = cloneParts(mp.Parts) // never released: arrays of their own
	}
	for round := 0; round < 6; round++ {
		preps, errs := make([]*MapPhasePrep, len(paths)), make([]error, len(paths))
		var wg sync.WaitGroup
		for i, p := range paths {
			wg.Add(1)
			go func() {
				defer wg.Done()
				preps[i], errs[i] = e.PrepareMapPhase(job, WholeFiles([]string{p}))
			}()
		}
		wg.Wait()
		held := map[*records.Pair]int{}
		mps := make([]*MapPhaseResult, len(paths))
		for i := range preps {
			if errs[i] != nil {
				t.Fatal(errs[i])
			}
			mp, err := e.CommitMapPhase(preps[i], 0)
			check(t, err)
			if !equalParts(mp.Parts, want[i]) {
				t.Fatalf("round %d phase %d: partitions differ from a fresh engine's", round, i)
			}
			if j, ok := held[&mp.out[0]]; ok {
				t.Fatalf("round %d: phases %d and %d share one array", round, j, i)
			}
			held[&mp.out[0]], mps[i] = i, mp
		}
		for _, mp := range mps {
			wg.Add(1)
			go func() { defer wg.Done(); mp.Release() }()
		}
		wg.Wait()
		if round == 3 {
			e.DropScratch()
		}
	}
}

// TestFreeListSkipsEmptyArrays: a phase that emitted nothing hands back
// an array with no room, which must not hide the one beneath it.
func TestFreeListSkipsEmptyArrays(t *testing.T) {
	var p scratchPool[int]
	a := p.get(8)
	p.put(a)
	p.put(make([]int, 0))
	if b := p.get(8); &b[0] != &a[0] {
		t.Fatal("an empty array handed back hid the one beneath it")
	}
}

func cloneParts(parts [][]records.Pair) [][]records.Pair {
	out := make([][]records.Pair, len(parts))
	for r, ps := range parts {
		out[r] = append([]records.Pair(nil), ps...)
	}
	return out
}

func equalParts(got, want [][]records.Pair) bool {
	if len(got) != len(want) {
		return false
	}
	for r := range got {
		if len(got[r]) != len(want[r]) {
			return false
		}
		for i, p := range got[r] {
			if !bytes.Equal(p.Key, want[r][i].Key) || !bytes.Equal(p.Value, want[r][i].Value) {
				return false
			}
		}
	}
	return true
}
