package mapreduce

import (
	"strconv"
	"testing"

	"redoop/internal/cluster"
	"redoop/internal/colfmt"
	"redoop/internal/dfs"
	"redoop/internal/records"
	"redoop/internal/simtime"
)

// writeRanged stores count records and returns each record's file
// offset (the offset split bucketing attributes it to), plus the file
// length as a final entry, so tests can compute range boundaries.
func writeRanged(t *testing.T, e *Engine, path string, count int) []int {
	t.Helper()
	recs := make([]records.Record, count)
	for i := 0; i < count; i++ {
		recs[i] = records.Record{Ts: int64(i), Data: []byte("word" + strconv.Itoa(i%7))}
	}
	data := colfmt.EncodeRecords(recs)
	offsets := make([]int, 0, count+1)
	visitRecords(data, func(off int, _ int64, _ []byte) { offsets = append(offsets, off) })
	offsets = append(offsets, len(data))
	if err := e.DFS.Write(path, data); err != nil {
		t.Fatal(err)
	}
	return offsets
}

func TestSplitsOfWholeFileEqualsSplits(t *testing.T) {
	e := testRig(t, 3)
	writeRanged(t, e, "/in", 2000)
	a, err := e.Splits([]string{"/in"})
	if err != nil {
		t.Fatal(err)
	}
	b, err := e.SplitsOf(WholeFiles([]string{"/in"}))
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != len(b) {
		t.Fatalf("whole-file splits differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].ID() != b[i].ID() || a[i].Lo != b[i].Lo || a[i].Hi != b[i].Hi {
			t.Errorf("split %d differs: %+v vs %+v", i, a[i], b[i])
		}
		// SplitsOf formats the ID once; a hand-built split formats the same.
		if bare := (Split{Path: a[i].Path, Block: a[i].Block, Lo: a[i].Lo, Hi: a[i].Hi}); bare.ID() != a[i].ID() {
			t.Errorf("split %d: cached ID %q, formatted %q", i, a[i].ID(), bare.ID())
		}
	}
	// Whole-file splits tile the file.
	var covered int64
	for _, s := range a {
		covered += s.Size()
	}
	size, _ := e.DFS.Size("/in")
	if covered != size {
		t.Errorf("splits cover %d of %d bytes", covered, size)
	}
}

func TestRangedInputRestrictsRecords(t *testing.T) {
	e := testRig(t, 3)
	offs := writeRanged(t, e, "/in", 900)
	// Take the record-aligned middle third.
	lo, hi := offs[300], offs[600]
	in := Input{Path: "/in", Offset: int64(lo), Length: int64(hi - lo)}

	var mapped int
	job := &Job{
		Name:   "ranged",
		Map:    func(ts int64, _ []byte, emit Emitter) { emit.Emit([]byte("k"), []byte(strconv.FormatInt(ts, 10))) },
		Reduce: func(key []byte, values [][]byte, emit Emitter) { emit.Emit(key, []byte(strconv.Itoa(len(values)))) },

		NumReducers: 1,
	}
	mp, err := e.RunMapPhase(job, []Input{in}, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, pairs := range mp.Parts {
		for _, p := range pairs {
			ts, _ := strconv.ParseInt(string(p.Value), 10, 64)
			if ts < 300 || ts >= 600 {
				t.Fatalf("record %d mapped outside the requested range", ts)
			}
			mapped++
		}
	}
	if mapped != 300 {
		t.Errorf("mapped %d records, want exactly 300", mapped)
	}
	if mp.Stats.BytesRead != int64(hi-lo) {
		t.Errorf("read %d bytes, want the range's %d", mp.Stats.BytesRead, hi-lo)
	}
}

func TestRangedInputLengthClipping(t *testing.T) {
	e := testRig(t, 2)
	writeRanged(t, e, "/in", 100)
	size, _ := e.DFS.Size("/in")
	// Length beyond EOF clips; negative offset clips to zero.
	splits, err := e.SplitsOf([]Input{{Path: "/in", Offset: -5, Length: size * 10}})
	if err != nil {
		t.Fatal(err)
	}
	var covered int64
	for _, s := range splits {
		covered += s.Size()
	}
	if covered != size {
		t.Errorf("clipped range covers %d of %d", covered, size)
	}
}

func TestMergeMapPhases(t *testing.T) {
	e := testRig(t, 3)
	offs := writeRanged(t, e, "/in", 600)
	job := &Job{
		Name:        "m",
		Map:         func(_ int64, payload []byte, emit Emitter) { emit.Emit(append([]byte(nil), payload...), []byte("1")) },
		Reduce:      func(k []byte, vs [][]byte, emit Emitter) { emit.Emit(k, []byte(strconv.Itoa(len(vs)))) },
		NumReducers: 2,
	}
	half := int64(offs[300])
	mp1, err := e.RunMapPhase(job, []Input{{Path: "/in", Offset: 0, Length: half}}, 0)
	if err != nil {
		t.Fatal(err)
	}
	mp2, err := e.RunMapPhase(job, []Input{{Path: "/in", Offset: half, Length: -1}}, 0)
	if err != nil {
		t.Fatal(err)
	}
	merged := MergeMapPhases([]*MapPhaseResult{mp1, mp2}, 2, 0)
	var pairs int
	for r := range merged.Parts {
		pairs += len(merged.Parts[r])
	}
	if pairs != 600 {
		t.Errorf("merged parts hold %d pairs, want 600", pairs)
	}
	if merged.LastMapEnd < mp1.LastMapEnd || merged.LastMapEnd < mp2.LastMapEnd {
		t.Error("merged wave bounds should cover both phases")
	}
	if merged.Stats.MapTasks != mp1.Stats.MapTasks+mp2.Stats.MapTasks {
		t.Error("merged stats should sum task counts")
	}
	// Reducing the merged phase gives the same totals as one phase
	// over the whole file.
	reducers, _, err := e.RunReducePhase(job, merged, 0)
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, rr := range reducers {
		for _, p := range rr.Output {
			n, _ := strconv.Atoi(string(p.Value))
			total += n
		}
	}
	if total != 600 {
		t.Errorf("reduced total %d, want 600", total)
	}
}

// Redoop's modified reduce task spills its input to the reduce-input
// cache and must be charged for it; plain jobs instead pay replication
// on their DFS output.
func TestJobCostFlags(t *testing.T) {
	run := func(cacheInput, localOutput bool) int64 {
		e := testRig(t, 3)
		writeRanged(t, e, "/in", 3000)
		job := &Job{
			Name:             "flags",
			Inputs:           []string{"/in"},
			Map:              func(_ int64, payload []byte, emit Emitter) { emit.Emit(append([]byte(nil), payload...), payload) },
			Reduce:           func(k []byte, vs [][]byte, emit Emitter) { emit.Emit(k, vs[0]) },
			NumReducers:      2,
			CacheReduceInput: cacheInput,
			LocalOutput:      localOutput,
		}
		res, err := e.Run(job, 0)
		if err != nil {
			t.Fatal(err)
		}
		return int64(res.Stats.ReduceTime)
	}
	plain := run(false, true)
	withSpill := run(true, true)
	withReplication := run(false, false)
	if withSpill <= plain {
		t.Errorf("CacheReduceInput should add spill cost: %d vs %d", withSpill, plain)
	}
	if withReplication <= plain {
		t.Errorf("DFS output should add replication cost: %d vs %d", withReplication, plain)
	}
}

// With jitter and stragglers, speculative execution should shorten the
// map wave: backups outrun stragglers. Task durations are keyed by
// task identity, so the two runs' original attempts are identical and
// the comparison isolates the backups.
func TestSpeculativeExecution(t *testing.T) {
	mapWave := func(speculative bool) simtime.Time {
		// Ample slots: speculation's benefit shows when backups do not
		// have to steal slots from queued tasks (with scarce slots the
		// backups' slot pressure can win or lose — the very trade-off
		// that led the paper to disable speculation).
		e := newRig(t, cluster.Config{Workers: 8, MapSlots: 6, ReduceSlots: 2},
			dfs.Config{BlockSize: 32 << 10, Replication: 2, Nodes: rangeInts(8), Seed: 42})
		writeRanged(t, e, "/in", 20000)
		e.Jitter = 0.3
		e.StragglerProb = 0.15
		e.StragglerFactor = 8
		e.JitterSeed = 99
		e.Speculative = speculative
		job := &Job{
			Name:   "spec",
			Inputs: []string{"/in"},
			Map: func(_ int64, payload []byte, emit Emitter) {
				emit.Emit(append([]byte(nil), payload...), []byte("1"))
			},
			Reduce:      func(k []byte, vs [][]byte, emit Emitter) { emit.Emit(k, []byte(strconv.Itoa(len(vs)))) },
			NumReducers: 2,
		}
		mp, err := e.RunMapPhase(job, WholeFiles(job.Inputs), 0)
		if err != nil {
			t.Fatal(err)
		}
		return mp.LastMapEnd
	}
	with := mapWave(true)
	without := mapWave(false)
	if with >= without {
		t.Errorf("speculation should beat stragglers: with=%v without=%v", with, without)
	}
}

// Jitter off keeps the simulation bit-for-bit deterministic.
func TestNoJitterIsDeterministic(t *testing.T) {
	run := func() simtime.Duration {
		e := testRig(t, 4)
		writeRanged(t, e, "/in", 5000)
		job := &Job{
			Name:   "det",
			Inputs: []string{"/in"},
			Map: func(_ int64, payload []byte, emit Emitter) {
				emit.Emit(append([]byte(nil), payload...), []byte("1"))
			},
			Reduce:      func(k []byte, vs [][]byte, emit Emitter) { emit.Emit(k, []byte(strconv.Itoa(len(vs)))) },
			NumReducers: 2,
		}
		res, err := e.Run(job, 0)
		if err != nil {
			t.Fatal(err)
		}
		return res.Stats.Makespan()
	}
	if run() != run() {
		t.Error("jitter-free runs must be identical")
	}
}

// Jittered runs reproduce per seed.
func TestJitterSeedReproducible(t *testing.T) {
	run := func(seed int64) simtime.Duration {
		e := testRig(t, 4)
		writeRanged(t, e, "/in", 5000)
		e.Jitter = 0.5
		e.JitterSeed = seed
		job := &Job{
			Name:   "jit",
			Inputs: []string{"/in"},
			Map: func(_ int64, payload []byte, emit Emitter) {
				emit.Emit(append([]byte(nil), payload...), []byte("1"))
			},
			Reduce:      func(k []byte, vs [][]byte, emit Emitter) { emit.Emit(k, []byte(strconv.Itoa(len(vs)))) },
			NumReducers: 2,
		}
		res, err := e.Run(job, 0)
		if err != nil {
			t.Fatal(err)
		}
		return res.Stats.Makespan()
	}
	if run(7) != run(7) {
		t.Error("same seed must reproduce")
	}
	if run(7) == run(8) {
		t.Error("different seeds should differ")
	}
}
