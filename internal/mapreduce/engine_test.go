package mapreduce

import (
	"bytes"
	"errors"
	"fmt"
	"hash/fnv"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"strconv"
	"testing"
	"testing/quick"

	"redoop/internal/cluster"
	"redoop/internal/colfmt"
	"redoop/internal/dfs"
	"redoop/internal/iocost"
	"redoop/internal/records"
	"redoop/internal/simtime"
)

// testRig builds a small cluster + DFS + engine for runtime tests.
func testRig(t *testing.T, workers int) *Engine {
	t.Helper()
	return newRig(t, cluster.Config{Workers: workers, MapSlots: 2, ReduceSlots: 1},
		dfs.Config{BlockSize: 4 << 10, Replication: 2, Nodes: rangeInts(workers), Seed: 42})
}

// check fails t on err, from a call the test knows succeeds.
func check(t testing.TB, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
}

// newRig builds an engine over a cluster and a DFS of the given
// configurations; a configuration New refuses fails the test.
func newRig(t testing.TB, cc cluster.Config, dc dfs.Config) *Engine {
	t.Helper()
	c, err := cluster.New(cc)
	check(t, err)
	d, err := dfs.New(dc)
	check(t, err)
	e, err := New(c, d, iocost.Default())
	check(t, err)
	return e
}

func rangeInts(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

// writeWords stores count records of the form "word" cycling through the
// vocabulary, and returns the expected per-word counts.
func writeWords(t *testing.T, e *Engine, path string, vocab []string, count int) map[string]int {
	t.Helper()
	want := make(map[string]int)
	recs := make([]records.Record, count)
	for i := 0; i < count; i++ {
		w := vocab[i%len(vocab)]
		recs[i] = records.Record{Ts: int64(i), Data: []byte(w)}
		want[w]++
	}
	check(t, e.DFS.Write(path, colfmt.EncodeRecords(recs)))
	return want
}

func wordCountJob(inputs []string, reducers int) *Job {
	return &Job{
		Name:   "wordcount",
		Inputs: inputs,
		Map: func(_ int64, payload []byte, emit Emitter) {
			emit.Emit(append([]byte(nil), payload...), []byte("1"))
		},
		Reduce: func(key []byte, values [][]byte, emit Emitter) {
			total := 0
			for _, v := range values {
				n, _ := strconv.Atoi(string(v))
				total += n
			}
			emit.Emit(key, []byte(strconv.Itoa(total)))
		},
		NumReducers: reducers,
	}
}

func outputCounts(t *testing.T, out []records.Pair) map[string]int {
	t.Helper()
	got := make(map[string]int)
	for _, p := range out {
		n, err := strconv.Atoi(string(p.Value))
		if err != nil {
			t.Fatalf("non-numeric count %q for key %q", p.Value, p.Key)
		}
		if _, dup := got[string(p.Key)]; dup {
			t.Fatalf("duplicate key %q in output", p.Key)
		}
		got[string(p.Key)] = n
	}
	return got
}

func TestJobValidation(t *testing.T) {
	e := testRig(t, 2)
	bad := []*Job{
		{Name: "no-map", Reduce: func([]byte, [][]byte, Emitter) {}, NumReducers: 1},
		{Name: "no-reduce", Map: func(int64, []byte, Emitter) {}, NumReducers: 1},
		{Name: "no-reducers", Map: func(int64, []byte, Emitter) {}, Reduce: func([]byte, [][]byte, Emitter) {}},
	}
	for _, j := range bad {
		if _, err := e.Run(j, 0); err == nil {
			t.Errorf("job %q should fail validation", j.Name)
		}
	}
}

func TestWordCountEndToEnd(t *testing.T) {
	e := testRig(t, 4)
	vocab := []string{"apple", "banana", "cherry", "date", "elderberry"}
	want := writeWords(t, e, "/in/batch0", vocab, 5000)

	res, err := e.Run(wordCountJob([]string{"/in/batch0"}, 3), 0)
	check(t, err)
	got := outputCounts(t, res.Output)
	for w, n := range want {
		if got[w] != n {
			t.Errorf("count[%s] = %d, want %d", w, got[w], n)
		}
	}
	if len(got) != len(want) {
		t.Errorf("got %d distinct words, want %d", len(got), len(want))
	}
	if res.Stats.MapTasks == 0 || res.Stats.ReduceTasks == 0 {
		t.Errorf("stats should record tasks, got %+v", res.Stats)
	}
	if res.Stats.Makespan() <= 0 {
		t.Error("job should take positive virtual time")
	}
	if res.Stats.BytesRead == 0 || res.Stats.BytesShuffled == 0 {
		t.Errorf("byte accounting empty: %+v", res.Stats)
	}
}

func TestMultipleInputsAndBlocks(t *testing.T) {
	e := testRig(t, 4)
	vocab := []string{"x", "y", "z"}
	want1 := writeWords(t, e, "/in/b0", vocab, 3000)
	want2 := writeWords(t, e, "/in/b1", vocab, 2000)

	splits, err := e.Splits([]string{"/in/b0", "/in/b1"})
	check(t, err)
	if len(splits) < 3 {
		t.Fatalf("expected multiple block splits, got %d", len(splits))
	}

	res, err := e.Run(wordCountJob([]string{"/in/b0", "/in/b1"}, 2), 0)
	check(t, err)
	got := outputCounts(t, res.Output)
	for w := range want1 {
		if got[w] != want1[w]+want2[w] {
			t.Errorf("count[%s] = %d, want %d", w, got[w], want1[w]+want2[w])
		}
	}
}

func TestCombinerPreservesResultAndShrinksShuffle(t *testing.T) {
	e1 := testRig(t, 4)
	e2 := testRig(t, 4)
	vocab := []string{"a", "b"}
	writeWords(t, e1, "/in", vocab, 4000)
	writeWords(t, e2, "/in", vocab, 4000)

	plain := wordCountJob([]string{"/in"}, 2)
	combined := wordCountJob([]string{"/in"}, 2)
	combined.Combine = combined.Reduce

	r1, err := e1.Run(plain, 0)
	check(t, err)
	r2, err := e2.Run(combined, 0)
	check(t, err)
	g1, g2 := outputCounts(t, r1.Output), outputCounts(t, r2.Output)
	for w := range g1 {
		if g1[w] != g2[w] {
			t.Errorf("combiner changed result for %s: %d vs %d", w, g1[w], g2[w])
		}
	}
	if r2.Stats.BytesShuffled >= r1.Stats.BytesShuffled {
		t.Errorf("combiner should shrink shuffle: %d vs %d",
			r2.Stats.BytesShuffled, r1.Stats.BytesShuffled)
	}
}

func TestEmptyInput(t *testing.T) {
	e := testRig(t, 2)
	check(t, e.DFS.Write("/in/empty", nil))
	res, err := e.Run(wordCountJob([]string{"/in/empty"}, 2), 0)
	check(t, err)
	if len(res.Output) != 0 {
		t.Errorf("empty input should yield empty output, got %d pairs", len(res.Output))
	}
	if res.Stats.MapTasks != 0 || res.Stats.ReduceTasks != 0 {
		t.Errorf("no tasks should run for an empty file: %+v", res.Stats)
	}
}

func TestMissingInputFails(t *testing.T) {
	e := testRig(t, 2)
	if _, err := e.Run(wordCountJob([]string{"/does/not/exist"}, 1), 0); err == nil {
		t.Error("missing input should fail the job")
	}
}

// writeWordsColumnar is writeWords over the columnar pane encoding —
// the format the packer writes for every new pane file.
func writeWordsColumnar(t *testing.T, e *Engine, path string, vocab []string, count int) map[string]int {
	t.Helper()
	want := make(map[string]int)
	recs := make([]records.Record, count)
	for i := 0; i < count; i++ {
		w := vocab[i%len(vocab)]
		recs[i] = records.Record{Ts: int64(i), Data: []byte(w)}
		want[w]++
	}
	check(t, e.DFS.Write(path, colfmt.EncodeRecords(recs)))
	return want
}

// TestColumnarInputEndToEnd runs the same wordcount over columnar and
// row-encoded copies of one batch: identical output, so the two input
// framings are interchangeable at the job level.
func TestColumnarInputEndToEnd(t *testing.T) {
	e := testRig(t, 4)
	vocab := []string{"apple", "banana", "cherry"}
	want := writeWordsColumnar(t, e, "/in/col", vocab, 5000)
	writeWords(t, e, "/in/row", vocab, 5000)

	colRes, err := e.Run(wordCountJob([]string{"/in/col"}, 3), 0)
	check(t, err)
	rowRes, err := e.Run(wordCountJob([]string{"/in/row"}, 3), 0)
	check(t, err)
	got := outputCounts(t, colRes.Output)
	for w, n := range want {
		if got[w] != n {
			t.Errorf("count[%s] = %d, want %d", w, got[w], n)
		}
	}
	if !bytes.Equal(colfmt.EncodePairs(colRes.Output), colfmt.EncodePairs(rowRes.Output)) {
		t.Error("columnar and row inputs produce different outputs")
	}
}

// TestCorruptColumnarInputFailsDeterministically wires the columnar
// validator into the chaos pane-corruption contract: a pane file
// damaged the way the injector damages it (XOR 0xA5 over the middle
// third, or truncation to half) must fail the map phase with a
// detected decode error — feeding the §5 recovery ladder — never
// succeed with garbage records.
func TestCorruptColumnarInputFailsDeterministically(t *testing.T) {
	for _, mode := range []string{"xor", "truncate"} {
		e := testRig(t, 3)
		writeWordsColumnar(t, e, "/in/pane", []string{"alpha", "beta"}, 2000)
		data, err := e.DFS.Read("/in/pane")
		check(t, err)
		data = slices.Clone(data) // Read is a view of the stored file
		if mode == "xor" {
			for i := len(data) / 3; i < 2*len(data)/3; i++ {
				data[i] ^= 0xA5
			}
		} else {
			data = data[:len(data)/2]
		}
		check(t, e.DFS.Write("/in/pane", data))
		_, err = e.Run(wordCountJob([]string{"/in/pane"}, 2), 0)
		if err == nil {
			t.Fatalf("%s-corrupted columnar pane produced output instead of an error", mode)
		}
		if !errors.Is(err, colfmt.ErrCorrupt) {
			t.Fatalf("%s-corrupted pane error %v does not wrap colfmt.ErrCorrupt", mode, err)
		}
		// The verdict is deterministic: the same damage fails the same
		// way on a second run.
		_, err2 := e.Run(wordCountJob([]string{"/in/pane"}, 2), 0)
		if err2 == nil || err2.Error() != err.Error() {
			t.Fatalf("%s corruption verdict not deterministic: %v vs %v", mode, err, err2)
		}
	}
}

func TestOutputPathWritesToDFS(t *testing.T) {
	e := testRig(t, 3)
	writeWords(t, e, "/in", []string{"k"}, 100)
	job := wordCountJob([]string{"/in"}, 1)
	job.OutputPath = "/out/r0"
	res, err := e.Run(job, 0)
	check(t, err)
	data, err := e.DFS.Read("/out/r0")
	check(t, err)
	pairs, err := colfmt.DecodePairs(data)
	check(t, err)
	if len(pairs) != 1 || string(pairs[0].Key) != "k" || string(pairs[0].Value) != "100" {
		t.Errorf("DFS output = %v", pairs)
	}
	if res.Stats.BytesOutput == 0 {
		t.Error("output bytes unaccounted")
	}
}

func TestFaultInjectionRetriesAndSucceeds(t *testing.T) {
	e := testRig(t, 4)
	want := writeWords(t, e, "/in", []string{"p", "q"}, 2000)
	e.Faults = FailFirstAttempts{N: 2}

	res, err := e.Run(wordCountJob([]string{"/in"}, 2), 0)
	check(t, err)
	got := outputCounts(t, res.Output)
	for w, n := range want {
		if got[w] != n {
			t.Errorf("count[%s] = %d, want %d (failures must not corrupt output)", w, got[w], n)
		}
	}
	if res.Stats.FailedAttempts == 0 {
		t.Error("failed attempts should be recorded")
	}

	// The retried run must take longer than a clean one.
	clean := testRig(t, 4)
	writeWords(t, clean, "/in", []string{"p", "q"}, 2000)
	cleanRes, err := clean.Run(wordCountJob([]string{"/in"}, 2), 0)
	check(t, err)
	if res.Stats.Makespan() <= cleanRes.Stats.Makespan() {
		t.Errorf("retries should cost time: %v vs clean %v",
			res.Stats.Makespan(), cleanRes.Stats.Makespan())
	}
}

func TestFaultExhaustionFailsJob(t *testing.T) {
	e := testRig(t, 2)
	writeWords(t, e, "/in", []string{"w"}, 100)
	e.Faults = FailFirstAttempts{N: 100}
	if _, err := e.Run(wordCountJob([]string{"/in"}, 1), 0); err == nil {
		t.Error("exhausting attempts should fail the job")
	}
}

func TestDeadNodesAreAvoided(t *testing.T) {
	e := testRig(t, 3)
	want := writeWords(t, e, "/in", []string{"m", "n"}, 1000)
	e.Cluster.FailNode(0)
	res, err := e.Run(wordCountJob([]string{"/in"}, 2), 0)
	check(t, err)
	got := outputCounts(t, res.Output)
	for w, n := range want {
		if got[w] != n {
			t.Errorf("count[%s] = %d, want %d", w, got[w], n)
		}
	}
	for _, rr := range res.Reducers {
		if rr.Node == 0 {
			t.Error("reduce placed on dead node")
		}
	}
}

func TestAllNodesDeadFails(t *testing.T) {
	e := testRig(t, 2)
	writeWords(t, e, "/in", []string{"w"}, 10)
	e.Cluster.FailNode(0)
	e.Cluster.FailNode(1)
	if _, err := e.Run(wordCountJob([]string{"/in"}, 1), 0); err == nil {
		t.Error("job must fail with no alive nodes")
	}
}

func TestStartTimeShiftsSchedule(t *testing.T) {
	e := testRig(t, 2)
	writeWords(t, e, "/in", []string{"w"}, 500)
	start := simtime.Time(10 * simtime.Minute)
	res, err := e.Run(wordCountJob([]string{"/in"}, 1), start)
	check(t, err)
	if res.Stats.Start != start {
		t.Errorf("Start = %v, want %v", res.Stats.Start, start)
	}
	if !res.Stats.End.After(start) {
		t.Error("End should follow Start")
	}
}

func TestGroupPairs(t *testing.T) {
	pairs := []records.Pair{
		{Key: []byte("b"), Value: []byte("1")},
		{Key: []byte("a"), Value: []byte("2")},
		{Key: []byte("b"), Value: []byte("3")},
		{Key: []byte("a"), Value: []byte("4")},
	}
	groups := GroupPairs(pairs)
	if len(groups) != 2 {
		t.Fatalf("got %d groups, want 2", len(groups))
	}
	if string(groups[0].Key) != "a" || len(groups[0].Values) != 2 {
		t.Errorf("group 0 = %+v", groups[0])
	}
	if string(groups[1].Key) != "b" || len(groups[1].Values) != 2 {
		t.Errorf("group 1 = %+v", groups[1])
	}
	if GroupPairs(nil) != nil {
		t.Error("empty input should group to nil")
	}
}

// valueMultisets flattens groups into key -> sorted values, the form in
// which two groupings are equal regardless of within-key value order.
func valueMultisets(t *testing.T, groups []Group) map[string][]string {
	t.Helper()
	out := make(map[string][]string, len(groups))
	for i, g := range groups {
		if i > 0 && bytes.Compare(groups[i-1].Key, g.Key) >= 0 {
			t.Fatalf("group keys not strictly ascending at %d: %q then %q", i, groups[i-1].Key, g.Key)
		}
		vals := make([]string, len(g.Values))
		for j, v := range g.Values {
			vals[j] = string(v)
		}
		sort.Strings(vals)
		out[string(g.Key)] = vals
	}
	return out
}

// TestMergeSortedRunsGroupsLikeGroupPairs is the property the join
// relies on: merging 1-4 sorted runs and grouping without a sort gives
// the same key -> value-multiset map as GroupPairs over their
// concatenation — with duplicate keys within and across runs, empty
// runs, and keys that only one run holds.
func TestMergeSortedRunsGroupsLikeGroupPairs(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 300; trial++ {
		runs := make([][]records.Pair, 1+rng.Intn(4))
		var concat []records.Pair
		for r := range runs {
			n := rng.Intn(30)
			if rng.Intn(4) == 0 {
				n = 0
			}
			for i := 0; i < n; i++ {
				key := fmt.Sprintf("k%02d", rng.Intn(8))
				if rng.Intn(3) == 0 {
					key = fmt.Sprintf("only%d-%d", r, rng.Intn(3)) // held by run r alone
				}
				runs[r] = append(runs[r], records.Pair{Key: []byte(key), Value: []byte(fmt.Sprintf("r%d-%d", r, rng.Intn(5)))})
			}
			SortPairs(runs[r])
			concat = append(concat, runs[r]...)
		}
		prefix := records.Pair{Key: []byte("a-prefix"), Value: []byte("kept")}
		merged := MergeSortedRuns([]records.Pair{prefix}, runs...)
		if len(merged) != 1+len(concat) || string(merged[0].Key) != "a-prefix" {
			t.Fatalf("trial %d: merged %d pairs onto a 1-pair dst, want %d with the prefix kept", trial, len(merged), 1+len(concat))
		}
		got := valueMultisets(t, groupKeyRuns(merged[1:]))
		want := valueMultisets(t, GroupPairs(concat))
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d (%d runs): merge+groupKeyRuns = %v, GroupPairs(concat) = %v", trial, len(runs), got, want)
		}
	}
	if MergeSortedRuns(nil) != nil {
		t.Error("no input should merge to nil")
	}
}

// groupKeyRuns groups key-sorted pairs in one linear pass, each group's
// values in the order they came: the reference for a merge of sorted runs.
func groupKeyRuns(ps []records.Pair) []Group {
	var gs []Group
	for i, p := range ps {
		if i == 0 || !bytes.Equal(p.Key, ps[i-1].Key) {
			gs = append(gs, Group{Key: p.Key})
		}
		gs[len(gs)-1].Values = append(gs[len(gs)-1].Values, p.Value)
	}
	return gs
}

// TestGroupValuesDoNotOverlap pins that the groups' Values, views of one
// shared array — a Grouper's scratch, a map phase's values, scattered or
// one value filled in — are capacity-limited: a reducer appending to its
// values cannot write into the next group's.
func TestGroupValuesDoNotOverlap(t *testing.T) {
	groups := GroupPairs([]records.Pair{
		{Key: []byte("a"), Value: []byte("1")},
		{Key: []byte("b"), Value: []byte("2")},
	})
	_ = append(groups[0].Values, []byte("x"))
	if string(groups[1].Values[0]) != "2" {
		t.Errorf("append to group a's values clobbered group b: %q", groups[1].Values[0])
	}
	e := testRig(t, 3)
	writeWords(t, e, "/w", []string{"ant", "bee", "cat"}, 90)
	for name, value := range map[string][]byte{"scattered": nil, "one-valued": []byte("1")} {
		job := &Job{Name: name, NumReducers: 1, Reduce: concatReduce, Map: func(ts int64, payload []byte, emit Emitter) {
			v := value
			if v == nil {
				v = payload
			}
			emit.Emit(payload[:1], v)
		}}
		prep, err := e.PrepareMapPhase(job, WholeFiles([]string{"/w"}))
		check(t, err)
		gs := prep.groups[0]
		if len(gs) != 3 {
			t.Fatalf("%s: %d groups, want 3", name, len(gs))
		}
		next := string(gs[1].Values[0])
		_ = append(gs[0].Values, []byte("x"))
		if string(gs[1].Values[0]) != next {
			t.Errorf("%s: append to group a's values clobbered group b: %q", name, gs[1].Values[0])
		}
		prep.Release()
	}
}

func TestSortPairsDeterministic(t *testing.T) {
	ps := []records.Pair{
		{Key: []byte("b"), Value: []byte("2")},
		{Key: []byte("a"), Value: []byte("9")},
		{Key: []byte("b"), Value: []byte("1")},
	}
	SortPairs(ps)
	want := []string{"a:9", "b:1", "b:2"}
	for i, p := range ps {
		if got := fmt.Sprintf("%s:%s", p.Key, p.Value); got != want[i] {
			t.Errorf("pos %d = %s, want %s", i, got, want[i])
		}
	}
}

// The inlined FNV-1a must assign every key where hash/fnv did: cached
// reduce inputs stay aligned with reducers only while it does.
func TestDefaultPartitionerIsFNV1a(t *testing.T) {
	f := func(key []byte, rU uint8) bool {
		r := int(rU%32) + 1
		h := fnv.New32a()
		h.Write(key)
		return DefaultPartitioner(key, r) == int(h.Sum32()%uint32(r))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDefaultPartitionerInRangeProperty(t *testing.T) {
	f := func(key []byte, rU uint8) bool {
		r := int(rU%16) + 1
		p := DefaultPartitioner(key, r)
		return p >= 0 && p < r
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: the runtime computes exactly the same word counts as a
// direct sequential computation, for random vocabularies, record
// counts, reducer counts and cluster sizes.
func TestWordCountEquivalenceProperty(t *testing.T) {
	f := func(seed int64, nU uint16, redU, workU uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		workers := int(workU%5) + 2
		reducers := int(redU%4) + 1
		n := int(nU%3000) + 1
		e := testRig(t, workers)

		vocabSize := rng.Intn(20) + 1
		want := make(map[string]int)
		recs := make([]records.Record, n)
		for i := 0; i < n; i++ {
			w := fmt.Sprintf("w%d", rng.Intn(vocabSize))
			recs[i] = records.Record{Ts: int64(i), Data: []byte(w)}
			want[w]++
		}
		if err := e.DFS.Write("/in", colfmt.EncodeRecords(recs)); err != nil {
			return false
		}
		res, err := e.Run(wordCountJob([]string{"/in"}, reducers), 0)
		if err != nil {
			return false
		}
		got := make(map[string]int)
		for _, p := range res.Output {
			c, err := strconv.Atoi(string(p.Value))
			if err != nil {
				return false
			}
			got[string(p.Key)] += c
		}
		if len(got) != len(want) {
			return false
		}
		for w, c := range want {
			if got[w] != c {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 25, Rand: rand.New(rand.NewSource(11))}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// Recomputing the same job on the same rig twice must give identical
// timings: the simulation is deterministic apart from slot state.
func TestDeterministicTimings(t *testing.T) {
	run := func() (simtime.Duration, []records.Pair) {
		e := testRig(t, 4)
		writeWords(t, e, "/in", []string{"a", "b", "c"}, 3000)
		res, err := e.Run(wordCountJob([]string{"/in"}, 2), 0)
		check(t, err)
		SortPairs(res.Output)
		return res.Stats.Makespan(), res.Output
	}
	d1, o1 := run()
	d2, o2 := run()
	if d1 != d2 {
		t.Errorf("nondeterministic makespan: %v vs %v", d1, d2)
	}
	if len(o1) != len(o2) {
		t.Fatalf("output sizes differ: %d vs %d", len(o1), len(o2))
	}
	for i := range o1 {
		if !bytes.Equal(o1[i].Key, o2[i].Key) || !bytes.Equal(o1[i].Value, o2[i].Value) {
			t.Fatalf("output %d differs", i)
		}
	}
}
