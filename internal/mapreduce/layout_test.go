package mapreduce

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"testing"
	"unsafe"

	"redoop/internal/cluster"
	"redoop/internal/colfmt"
	"redoop/internal/dfs"
	"redoop/internal/records"
	"redoop/internal/simtime"
)

// recordingPlacement is DefaultPlacement that remembers where each map
// task went, in placement order, so a reference can rebuild the
// source-byte matrix.
type recordingPlacement struct {
	DefaultPlacement
	order []string
	node  map[string]int
}

func (p *recordingPlacement) PlaceMap(e *Engine, s Split, ready simtime.Time) *cluster.Node {
	n := p.DefaultPlacement.PlaceMap(e, s, ready)
	p.order = append(p.order, s.ID())
	p.node[s.ID()] = n.ID
	return n
}

// layoutCase is one random geometry: files of concatenated segments on a
// DFS whose blocks may be smaller than a record, disjoint input ranges
// over them in shuffled order, and a mapper emitting zero, one or many
// pairs per record over few enough keys to leave partitions empty.
type layoutCase struct {
	blockSize int64
	files     map[string][]byte
	inputs    []Input
	reducers  int
	combine   bool
	values    int  // what the mapper emits as values (mapper), 0 to 4
	emptyKeys bool // key k0 is emitted as an empty key
	partition bool // the job's partitioner is layoutPartition
}

func randomLayoutCase(rng *rand.Rand) layoutCase {
	c := layoutCase{
		blockSize: []int64{16, 64, 700, 4 << 10}[rng.Intn(4)],
		files:     map[string][]byte{},
		reducers:  1 + rng.Intn(9),
		combine:   rng.Intn(3) == 0,
		values:    rng.Intn(5),
		emptyKeys: rng.Intn(2) == 0,
		partition: rng.Intn(2) == 0,
	}
	for f := 0; f < 1+rng.Intn(3); f++ {
		path := fmt.Sprintf("/in/f%d", f)
		var data []byte
		for seg := 0; seg < 1+rng.Intn(4); seg++ { // a shared multi-pane file
			recs := make([]records.Record, 1+rng.Intn(60))
			for i := range recs {
				payload := fmt.Sprintf("%d,k%d,%s", rng.Intn(3), rng.Intn(4), "padding-padding-padding"[:2+rng.Intn(22)])
				recs[i] = records.Record{Ts: int64(f<<20 | i), Data: []byte(payload)} // the file in the high bits
			}
			data = colfmt.AppendRecords(data, recs)
		}
		c.files[path] = data
		// Disjoint ranges between random cut points, about half of them
		// taken: some start mid-file, mid-segment, even mid-record.
		cuts := []int64{0, int64(len(data))}
		for i := 0; i < rng.Intn(5); i++ {
			cuts = append(cuts, rng.Int63n(int64(len(data))+1))
		}
		slices.Sort(cuts)
		for i := 1; i < len(cuts); i++ {
			if cuts[i] > cuts[i-1] && (len(cuts) == 2 || rng.Intn(2) == 0) {
				c.inputs = append(c.inputs, Input{Path: path, Offset: cuts[i-1], Length: cuts[i] - cuts[i-1]})
			}
		}
	}
	rng.Shuffle(len(c.inputs), func(i, j int) { c.inputs[i], c.inputs[j] = c.inputs[j], c.inputs[i] })
	return c
}

// mapper emits as many pairs as the payload's first field says — none,
// one, or five — under the key field, k0 as an empty key when the case
// says so. Its values are views of the payload, five of them out of value
// order; with values 1 every emit shares one slice, as WCCMap's one; with
// values 2 key k1 shares that slice, k2 emits one empty value, and the
// others emit views, so a split's value runs start anywhere. The other
// two are one-valued but for a file: with values 3 every value is empty,
// and with values 4 it is the shared one, except that file f1's splits
// emit another, so no split has a value run and yet the phase has two.
func (c layoutCase) mapper() MapFunc {
	return func(ts int64, payload []byte, emit Emitter) {
		key, digit := payload[2:4], payload[3]
		if c.emptyKeys && digit == '0' {
			key = payload[2:2]
		}
		value := func(v []byte) []byte {
			switch {
			case c.values == 4 && ts>>20 == 1:
				return layoutOther
			case c.values == 1 || c.values == 4 || c.values == 2 && digit == '1':
				return layoutShared
			case c.values == 3 || c.values == 2 && digit == '2':
				return payload[:0]
			}
			return v
		}
		switch payload[0] {
		case '1':
			emit.Emit(key, value(payload))
		case '2':
			for i := 0; i < 5; i++ {
				emit.Emit(key, value(payload[:4+i%3]))
			}
		}
	}
}

var (
	layoutMap    = layoutCase{}.mapper()
	layoutShared = []byte("1")
	layoutOther  = []byte("2")
)

func layoutCombine(key []byte, values [][]byte, emit Emitter) {
	emit.Emit(key, []byte(fmt.Sprint(len(values))))
}

// layoutPartition is a custom partitioner, pure in the key: by its last
// byte, the empty key to the last partition.
func layoutPartition(key []byte, r int) int {
	if len(key) == 0 {
		return r - 1
	}
	return int(key[len(key)-1]) % r
}

func (c layoutCase) run(t *testing.T, workers int) (*MapPhaseResult, *recordingPlacement, *Engine, *Job) {
	t.Helper()
	e := newRig(t, cluster.Config{Workers: 3, MapSlots: 2, ReduceSlots: 1},
		dfs.Config{BlockSize: c.blockSize, Replication: 2, Nodes: rangeInts(3), Seed: 7})
	d := e.DFS
	e.Workers = workers
	for f := 0; f < len(c.files); f++ { // in a fixed order: placement is seeded
		path := fmt.Sprintf("/in/f%d", f)
		check(t, d.Write(path, c.files[path]))
	}
	place := &recordingPlacement{node: map[string]int{}}
	job := &Job{
		Name: "layout", Map: c.mapper(), NumReducers: c.reducers, Place: place,
		Reduce: func(k []byte, vs [][]byte, emit Emitter) { emit.Emit(k, vs[0]) },
	}
	if c.combine {
		job.Combine = layoutCombine
	}
	if c.partition {
		job.Partition = layoutPartition
	}
	prep, err := e.PrepareMapPhase(job, c.inputs)
	check(t, err)
	mp, err := e.CommitMapPhase(prep, 0)
	check(t, err)
	return mp, place, e, job
}

// naiveMapPhase is the deliberately simple reference: every record of a
// split's file is tested against the split, every emission partitioned
// and appended to its partition's slice, every size measured by walking
// the result, and each partition put in SortPairs order at the end.
func naiveMapPhase(t *testing.T, e *Engine, job *Job, inputs []Input, nodeOf map[string]int) (parts [][]records.Pair, src [][]int64, splitIDs []string, stats Stats) {
	t.Helper()
	splits, err := e.SplitsOf(inputs)
	check(t, err)
	R := job.NumReducers
	parts = make([][]records.Pair, R)
	src = make([][]int64, R)
	for r := range src {
		src[r] = make([]int64, len(e.Cluster.Nodes()))
	}
	for _, s := range splits {
		splitIDs = append(splitIDs, s.ID())
		data, err := e.DFS.Read(s.Path)
		check(t, err)
		mine := make([][]records.Pair, R)
		var w colfmt.PairWriter
		visitRecords(data, func(off int, ts int64, payload []byte) {
			if int64(off) >= s.Lo && int64(off) < s.Hi {
				job.Map(ts, payload, EmitTo(&w))
			}
		})
		if _, run := w.Segment(); run.Len() > 0 {
			for _, p := range run.AppendTo(nil) {
				r := job.partitioner()(p.Key, R)
				mine[r] = append(mine[r], p)
			}
		}
		stats.MapTasks++
		stats.BytesRead += s.Size()
		for r := range mine {
			if job.Combine != nil && len(mine[r]) > 1 {
				mine[r] = ReduceGroups(job.Combine, GroupPairs(mine[r]))
			}
			if size := records.PairsSize(mine[r]); size > 0 {
				parts[r] = append(parts[r], mine[r]...)
				src[r][nodeOf[s.ID()]] += size
				stats.BytesSpilled += size
			}
		}
	}
	for _, ps := range parts {
		SortPairs(ps)
	}
	return parts, src, splitIDs, stats
}

func samePairs(a, b []records.Pair) bool {
	return slices.EqualFunc(a, b, func(x, y records.Pair) bool {
		return string(x.Key) == string(y.Key) && string(x.Value) == string(y.Value)
	})
}

// checkLayout maps c at one, two and four workers: each partition must
// hold what the naive reference holds, in SortPairs order and marked so,
// encoded to the same bytes, the pairs of a key under one copy of it
// (Group's rule), its key groups in strictly ascending key order and
// expanding to the same pairs, with the same source-byte matrix and
// volume stats and tasks committed in split order, and the results must
// be equal. It returns how many partitions came out empty.
func checkLayout(t *testing.T, what string, c layoutCase) (emptyParts int) {
	t.Helper()
	var serial *MapPhaseResult
	for _, workers := range []int{1, 2, 4} {
		mp, place, e, job := c.run(t, workers)
		want, wantSrc, wantOrder, wantStats := naiveMapPhase(t, e, job, c.inputs, place.node)
		for r := range want {
			if !samePairs(mp.Parts[r], want[r]) {
				t.Fatalf("%s workers %d: partition %d holds %d pairs, reference %d (or another order)",
					what, workers, r, len(mp.Parts[r]), len(want[r]))
			}
			if !bytes.Equal(colfmt.EncodePairs(mp.Parts[r]), colfmt.EncodePairs(want[r])) {
				t.Fatalf("%s workers %d: partition %d encodes to other bytes than the reference's", what, workers, r)
			}
			if len(want[r]) == 0 {
				emptyParts++
			}
			gs := mp.groups[r]
			enc := make([]byte, colfmt.GroupsSize(gs))
			colfmt.PutGroups(enc, gs)
			if !samePairs(appendPairs(nil, gs), want[r]) || !bytes.Equal(enc, colfmt.EncodePairs(want[r])) {
				t.Fatalf("%s workers %d: partition %d's %d groups expand to other pairs than the reference's %d", what, workers, r, len(gs), len(want[r]))
			}
			for i := 1; i < len(gs); i++ {
				if bytes.Compare(gs[i-1].Key, gs[i].Key) >= 0 {
					t.Fatalf("%s workers %d: partition %d's groups %d and %d are out of key order", what, workers, r, i-1, i)
				}
			}
			for i := 1; i < len(mp.Parts[r]); i++ {
				a, b := mp.Parts[r][i-1].Key, mp.Parts[r][i].Key
				if string(a) == string(b) && (unsafe.SliceData(a) != unsafe.SliceData(b) || cap(a) != len(a)) {
					t.Fatalf("%s workers %d: partition %d pair %d is not under its key's one copy", what, workers, r, i)
				}
			}
		}
		if !mp.PartsSorted() {
			t.Fatalf("%s workers %d: a committed phase is not marked sorted", what, workers)
		}
		if !reflect.DeepEqual(mp.PartSrcBytes, wantSrc) {
			t.Fatalf("%s workers %d: PartSrcBytes %v, reference %v", what, workers, mp.PartSrcBytes, wantSrc)
		}
		if !slices.Equal(place.order, wantOrder) {
			t.Fatalf("%s workers %d: tasks committed as %v, splits are %v", what, workers, place.order, wantOrder)
		}
		got := mp.Stats
		if got.MapTasks != wantStats.MapTasks || got.BytesRead != wantStats.BytesRead ||
			got.BytesSpilled != wantStats.BytesSpilled || got.FailedAttempts != 0 {
			t.Fatalf("%s workers %d: stats %+v, reference %+v", what, workers, got, wantStats)
		}
		mp.from, mp.arenas = nil, nil // which engine's free lists the arrays go back to, and how the workers filled them
		if workers == 1 {
			serial = mp
		} else if !reflect.DeepEqual(mp, serial) {
			t.Fatalf("%s: the %d-worker result differs from the serial one", what, workers)
		}
	}
	return emptyParts
}

// TestMapLayoutMatchesNaiveReference: the map output, grouped as it is
// emitted and placed once, must be the naive reference's in SortPairs
// order, over random geometries: values out of order within a key,
// shared by every emit or fresh per emit, one value for the whole phase
// (empty or not) or for all but one file, empty keys and values, a custom
// partitioner, the combiner.
func TestMapLayoutMatchesNaiveReference(t *testing.T) {
	rng := rand.New(rand.NewSource(20260927))
	emptyParts, midFile, tinyBlocks := 0, 0, 0
	kinds := map[string]int{}
	for trial := 0; trial < 150; trial++ {
		c := randomLayoutCase(rng)
		if len(c.inputs) == 0 {
			continue
		}
		emptyParts += checkLayout(t, fmt.Sprintf("trial %d", trial), c)
		kinds[fmt.Sprintf("values %d", c.values)]++
		for kind, on := range map[string]bool{"combiner": c.combine, "empty keys": c.emptyKeys, "partitioner": c.partition} {
			if on {
				kinds[kind]++
			}
		}
		for _, in := range c.inputs {
			if in.Offset > 0 {
				midFile++
			}
		}
		if c.blockSize == 16 {
			tinyBlocks++
		}
	}
	if emptyParts == 0 || midFile == 0 || tinyBlocks == 0 || len(kinds) != 8 {
		t.Fatalf("geometries are vacuous: %d empty partitions, %d mid-file inputs, %d sub-record block sizes, cases %v",
			emptyParts, midFile, tinyBlocks, kinds)
	}
}

// FuzzMapLayout is TestMapLayoutMatchesNaiveReference over geometries the
// fuzzer steers: a seed draws the files and ranges, and the other inputs
// pick the block size, the reducers and the mapper's options.
func FuzzMapLayout(f *testing.F) {
	for seed := int64(0); seed < 8; seed++ {
		f.Add(seed, uint16([]int64{16, 64, 700, 4 << 10}[seed%4]), uint8(1+seed), uint8(seed*7)) // every mapper option among them
	}
	f.Fuzz(func(t *testing.T, seed int64, blockSize uint16, reducers, options uint8) {
		c := randomLayoutCase(rand.New(rand.NewSource(seed)))
		c.blockSize, c.reducers = 16+int64(blockSize%(8<<10)), 1+int(reducers%16)
		c.values, c.combine, c.emptyKeys, c.partition = int(options%5), options&4 != 0, options&8 != 0, options&16 != 0
		if len(c.inputs) > 0 {
			checkLayout(t, fmt.Sprintf("seed %d", seed), c)
		}
	})
}

// TestOneValuedRunMapPhaseLaysPairsOut: a one-valued phase (WCCMap's
// shape) holds its values as prefixes of one array of the largest group's
// length; RunMapPhase still lays its pairs out as the naive reference
// holds them, each key's under one copy of it; and a prep released before
// its commit lays none out.
func TestOneValuedRunMapPhaseLaysPairsOut(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	c := randomLayoutCase(rng)
	for len(c.inputs) == 0 {
		c = randomLayoutCase(rng)
	}
	c.values, c.combine = 1, false
	for _, workers := range []int{1, 4} {
		_, place, e, job := c.run(t, workers)
		mp, err := e.RunMapPhase(job, c.inputs, 0)
		check(t, err)
		want, _, _, _ := naiveMapPhase(t, e, job, c.inputs, place.node)
		pairs, most := 0, 0
		for r := range want {
			pairs += len(want[r])
			if !samePairs(mp.Parts[r], want[r]) {
				t.Fatalf("workers %d: partition %d holds %d pairs, reference %d (or another order)", workers, r, len(mp.Parts[r]), len(want[r]))
			}
			for i, p := range mp.Parts[r] {
				if i > 0 && string(p.Key) == string(mp.Parts[r][i-1].Key) && unsafe.SliceData(p.Key) != unsafe.SliceData(mp.Parts[r][i-1].Key) {
					t.Fatalf("workers %d: partition %d pair %d is not under its key's one copy", workers, r, i)
				}
			}
			for _, g := range mp.groups[r] {
				most = max(most, len(g.Values))
			}
		}
		if len(mp.vals) != most || most >= pairs {
			t.Fatalf("workers %d: %d pairs, the largest group %d, on a values array of %d", workers, pairs, most, len(mp.vals))
		}
		prep, err := e.PrepareMapPhase(job, c.inputs)
		check(t, err)
		prep.Release()
		released, err := e.CommitMapPhase(prep, 0)
		check(t, err)
		for r, ps := range released.Parts {
			if len(ps) > 0 || released.out != nil {
				t.Fatalf("workers %d: a released prep's commit laid out %d pairs of partition %d", workers, len(ps), r)
			}
		}
		if released.Stats.MapTasks != mp.Stats.MapTasks || released.Stats.BytesSpilled != mp.Stats.BytesSpilled {
			t.Fatalf("workers %d: a released prep commits %+v, the phase %+v", workers, released.Stats, mp.Stats)
		}
	}
}

// TestOverlappingInputsMapEveryRange: splits that overlap within a file
// (a range listed twice, a range inside another) each map every record
// in their range, as when each split scanned the file for itself.
func TestOverlappingInputsMapEveryRange(t *testing.T) {
	c := randomLayoutCase(rand.New(rand.NewSource(5)))
	size := int64(len(c.files["/in/f0"]))
	c.inputs = []Input{WholeFile("/in/f0"), {Path: "/in/f0", Offset: size / 3, Length: size / 2}, WholeFile("/in/f0")}
	for _, workers := range []int{1, 4} {
		mp, place, e, job := c.run(t, workers)
		want, _, wantOrder, wantStats := naiveMapPhase(t, e, job, c.inputs, place.node)
		pairs := 0
		for r := range want {
			pairs += len(want[r])
			if !samePairs(mp.Parts[r], want[r]) {
				t.Fatalf("workers %d: partition %d holds %d pairs, reference %d (or another order)",
					workers, r, len(mp.Parts[r]), len(want[r]))
			}
		}
		if pairs == 0 || !slices.Equal(place.order, wantOrder) || mp.Stats.BytesSpilled != wantStats.BytesSpilled {
			t.Fatalf("workers %d: %d pairs, tasks %v (splits %v), stats %+v (reference %+v)",
				workers, pairs, place.order, wantOrder, mp.Stats, wantStats)
		}
	}
}

// TestMapPhaseAllocationsFollowSplitsNotRecords: the map phase sizes its
// storage from counts, so what it allocates is a function of how many
// splits and partitions there are. Doubling the records (longer
// payloads would add splits; more records per split do not) must leave
// the allocation count where it was — and the bytes too, for a mapper
// that emits nothing: records are read off the file's columns, not
// turned back into 32-byte structs first. Doubling the splits adds
// little: a split's ID, block geometry and source bytes allocate nothing
// of their own.
func TestMapPhaseAllocationsFollowSplitsNotRecords(t *testing.T) {
	allocs := func(files, recsPerSplit int) (perRun, cold, silentBytes float64, splits int) {
		// One block holds any of the files below: one split per file.
		e := newRig(t, cluster.Config{Workers: 3, MapSlots: 2, ReduceSlots: 1},
			dfs.Config{BlockSize: 1 << 20, Replication: 2, Nodes: rangeInts(3), Seed: 7})
		d := e.DFS
		e.Workers = 1
		var inputs, silent []Input // the same records, emitting one pair each and none
		for f := 0; f < files; f++ {
			for emits, ins := range []*[]Input{&silent, &inputs} {
				recs := make([]records.Record, recsPerSplit)
				for i := range recs {
					recs[i] = records.Record{Ts: int64(i), Data: []byte(fmt.Sprintf("%d,k%d,x", emits, i%4))}
				}
				path := fmt.Sprintf("/in/f%d-%d", f, emits)
				check(t, d.Write(path, colfmt.EncodeRecords(recs)))
				*ins = append(*ins, WholeFile(path))
			}
		}
		job := &Job{Name: "allocs", Map: layoutMap, NumReducers: 5,
			Reduce: func(k []byte, vs [][]byte, emit Emitter) { emit.Emit(k, vs[0]) }}
		// Bytes of a prepare that emits nothing, its stage recycled: the
		// least of several, since under -race the pool drops stages at random.
		var m0, m1 runtime.MemStats
		for i := 0; i < 8; i++ {
			runtime.ReadMemStats(&m0)
			_, err := e.PrepareMapPhase(job, silent)
			check(t, err)
			runtime.ReadMemStats(&m1)
			if b := float64(m1.TotalAlloc - m0.TotalAlloc); i == 1 || (i > 1 && b < silentBytes) {
				silentBytes = b
			}
		}
		run := func() {
			prep, err := e.PrepareMapPhase(job, inputs)
			check(t, err)
			mp, err := e.CommitMapPhase(prep, 0)
			check(t, err)
			splits = mp.Stats.MapTasks
		}
		perRun = testing.AllocsPerRun(20, run)
		// And one phase right after the collector emptied the stage pool.
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(&m0)
		run()
		runtime.ReadMemStats(&m1)
		return perRun, float64(m1.Mallocs - m0.Mallocs), silentBytes, splits
	}
	small, _, smallBytes, splits := allocs(8, 500)
	large, cold, largeBytes, _ := allocs(8, 1000)
	wide, _, _, wideSplits := allocs(16, 500)
	t.Logf("allocations per map phase of %d splits: %.0f at 500 records per split, %.0f at 1000, %.0f at 1000 from an empty pool; %.0f for %d splits",
		splits, small, large, cold, wide, wideSplits)
	if splits != 8 || wideSplits != 16 {
		t.Fatalf("geometry drifted: %d and %d splits, want 8 and 16", splits, wideSplits)
	}
	// The stage is one array sized from the decoded record count before
	// the first Map call, recycled or — when the pool dropped it, as it
	// does at random under -race — allocated once with its header:
	// doubling 4 000 records to 8 000 makes it larger, never regrown.
	if large > small+2 {
		t.Fatalf("map phase allocations grew with records: %.0f for 500 per split, %.0f for 1000", small, large)
	}
	// From an empty pool the stage is allocated once, at its size (plus the
	// pool's header for it and whatever else the collection emptied, fmt's
	// buffers for one); regrown by doubling, 8 000 entries cost over 20.
	if cold > large+6 {
		t.Fatalf("a map phase from an empty stage pool allocates %.0f times, %.0f with a recycled stage: the stage is regrown", cold, large)
	}
	// 43 for 8 splits, 66 for 16: each split here is a file of its own,
	// viewed once, and has value runs (the mapper's values are views), and
	// the arrays that hold them grow. One allocation more per split, as a
	// formatted ID or a cloned replica list was, adds 8.
	if small > 50 || wide-small > 3.5*8 {
		t.Fatalf("map phase allocates %.0f times for %d splits and 5 partitions, %.0f for %d", small, splits, wide, wideSplits)
	}
	// 4 000 more input records, nothing emitted: a record array would be
	// 128 000 bytes more.
	t.Logf("bytes per silent map phase: %.0f at 500 records per split, %.0f at 1000", smallBytes, largeBytes)
	if grown := largeBytes - smallBytes; grown > 16*4000 {
		t.Fatalf("a map phase that emits nothing allocates %.0f bytes more for 4000 more records: %.0f per record", grown, grown/4000)
	}
}
