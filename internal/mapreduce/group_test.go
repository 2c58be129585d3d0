package mapreduce

import (
	"bytes"
	"errors"
	"fmt"
	"hash/maphash"
	"math/rand"
	"slices"
	"strconv"
	"testing"

	"redoop/internal/colfmt"
	"redoop/internal/records"
)

// naiveSort is the reference the grouping is checked against: the
// library sort under the (key, value) comparison SortPairs is defined by.
func naiveSort(ps []records.Pair) {
	slices.SortFunc(ps, func(a, b records.Pair) int {
		if c := bytes.Compare(a.Key, b.Key); c != 0 {
			return c
		}
		return bytes.Compare(a.Value, b.Value)
	})
}

// checkSorted fails unless got — what a grouping call left of a copy of
// input — holds the pairs the naive reference does, byte for byte, in
// (key, value) order. It returns the reference.
func checkSorted(t testing.TB, what string, input, got []records.Pair) []records.Pair {
	t.Helper()
	want := slices.Clone(input)
	naiveSort(want)
	if len(got) != len(want) {
		t.Fatalf("%s: %d pairs in, %d out", what, len(want), len(got))
	}
	for i := range want {
		if !bytes.Equal(got[i].Key, want[i].Key) || !bytes.Equal(got[i].Value, want[i].Value) {
			t.Fatalf("%s: pair %d of %d is %q=%q, the reference has %q=%q",
				what, i, len(want), got[i].Key, got[i].Value, want[i].Key, want[i].Value)
		}
	}
	return want
}

// checkGrouped is checkSorted plus the groups: strictly ascending keys,
// each group's Values the values of its run of the reference,
// capacity-limited, every value in exactly one group.
func checkGrouped(t testing.TB, what string, input, got []records.Pair, groups []Group) {
	t.Helper()
	want := checkSorted(t, what, input, got)
	at := 0
	for gi, g := range groups {
		if gi > 0 && bytes.Compare(groups[gi-1].Key, g.Key) >= 0 {
			t.Fatalf("%s: group keys not strictly ascending at %d: %q then %q", what, gi, groups[gi-1].Key, g.Key)
		}
		if len(g.Values) == 0 || cap(g.Values) != len(g.Values) {
			t.Fatalf("%s: group %q holds %d values with room for %d", what, g.Key, len(g.Values), cap(g.Values))
		}
		for _, v := range g.Values {
			if at >= len(want) || !bytes.Equal(want[at].Key, g.Key) || !bytes.Equal(want[at].Value, v) {
				t.Fatalf("%s: group %q holds %q where the reference continues differently (position %d)", what, g.Key, v, at)
			}
			at++
		}
	}
	if at != len(want) {
		t.Fatalf("%s: groups hold %d of %d values", what, at, len(want))
	}
}

// groupingShapes are the inputs every grouping path is run over.
func groupingShapes(rng *rand.Rand) map[string][]records.Pair {
	pair := func(k, v string) records.Pair { return records.Pair{Key: []byte(k), Value: []byte(v)} }
	shapes := map[string][]records.Pair{
		"none":   nil,
		"one":    {pair("k", "v")},
		"two":    {pair("b", "1"), pair("a", "2")},
		"twins":  {pair("a", "2"), pair("a", "1")},
		"single": nil, "dupes": nil, "distinct": nil, "repeated": nil, "sorted": nil,
		"empty-keys": {pair("", "2"), {Key: nil, Value: []byte("1")}, pair("a", "0"), pair("", "1"), {Key: []byte{}, Value: nil}},
		"nil-values": {{Key: []byte("k"), Value: nil}, pair("k", "a"), {Key: []byte("k"), Value: []byte{}}, {Key: []byte("j"), Value: nil}, pair("k", "")},
		"prefixes":   {pair("ab", "1"), pair("a", "b1"), pair("abc", ""), pair("a", "b"), pair("", "abc"), pair("ab", "")},
	}
	for i := 0; i < 300; i++ {
		shapes["single"] = append(shapes["single"], pair("the-key", fmt.Sprint(rng.Intn(40))))
		shapes["dupes"] = append(shapes["dupes"], pair(fmt.Sprintf("k%02d", rng.Intn(12)), "1"))
		shapes["distinct"] = append(shapes["distinct"], pair(fmt.Sprintf("k%04d", (i*7919)%300), fmt.Sprint(i)))
		shapes["repeated"] = append(shapes["repeated"], pair(fmt.Sprintf("k%d", rng.Intn(5)), fmt.Sprint(rng.Intn(3))))
		shapes["sorted"] = append(shapes["sorted"], pair(fmt.Sprintf("k%04d", i/3), fmt.Sprintf("%04d", i)))
	}
	// Keys and values as overlapping views of one array, the way a mapper
	// emits sub-slices of its payload.
	backing := []byte("abcabcabdabcabcabdxyzxyzxyabcab")
	for i := 0; i < 200; i++ {
		klo, vlo := rng.Intn(len(backing)-3), rng.Intn(len(backing)-3)
		shapes["shared"] = append(shapes["shared"], records.Pair{
			Key: backing[klo : klo+rng.Intn(4)], Value: backing[vlo : vlo+rng.Intn(4)]})
	}
	// Every small size: the table doubles where 1.5n crosses a power of two,
	// and a reused scratch regrows where n passes its headroom.
	for n := 3; n <= 130; n++ {
		var ps []records.Pair
		for i := 0; i < n; i++ {
			ps = append(ps, pair(fmt.Sprintf("k%d", rng.Intn(n)), fmt.Sprint(rng.Intn(4))))
		}
		shapes[fmt.Sprintf("n=%d", n)] = ps
	}
	return shapes
}

// TestGroupingMatchesNaiveReference runs SortPairs, GroupPairs, a reused
// scratch, two scratches under different maphash seeds, and scratches
// whose hash collides always or half the time over every shape.
func TestGroupingMatchesNaiveReference(t *testing.T) {
	rng := rand.New(rand.NewSource(20261002))
	shapes := groupingShapes(rng)
	names := make([]string, 0, len(shapes))
	for name := range shapes {
		names = append(names, name)
	}
	slices.Sort(names)

	var reused Grouper
	seedA, seedB := Grouper{seed: maphash.MakeSeed()}, Grouper{seed: maphash.MakeSeed()}
	collide := Grouper{hash: func([]byte) uint64 { return 0 }}
	oneBit := Grouper{hash: func(k []byte) uint64 { return uint64(len(k)&1) << 63 }} // same slot, two tags
	for _, name := range names {
		input := shapes[name]
		got := slices.Clone(input)
		SortPairs(got)
		checkSorted(t, name+"/SortPairs", input, got)

		got = slices.Clone(input)
		checkGrouped(t, name+"/GroupPairs", input, got, GroupPairs(got))

		for what, g := range map[string]*Grouper{"reused": &reused, "collide": &collide, "one-bit": &oneBit} {
			got = slices.Clone(input)
			checkGrouped(t, name+"/"+what, input, got, g.Group(got))
		}

		// Not only the bytes but the slices are seed-independent: a
		// group's key is the Key of the first pair that had it.
		a, b := slices.Clone(input), slices.Clone(input)
		ga, gb := seedA.Group(a), seedB.Group(b)
		checkGrouped(t, name+"/seed-a", input, a, ga)
		checkGrouped(t, name+"/seed-b", input, b, gb)
		for i := range a {
			if len(a[i].Key) > 0 && &a[i].Key[0] != &b[i].Key[0] {
				t.Fatalf("%s: pair %d carries a different key slice under another seed", name, i)
			}
		}
	}
}

// TestGrouperReuseDoesNotLeak: one scratch over inputs that shrink and
// grow, with keys and values no two inputs share, must give each input
// the result a fresh scratch gives — nothing of an earlier, larger call
// may show in a later, smaller one.
func TestGrouperReuseDoesNotLeak(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var g Grouper
	for round, n := range []int{500, 3, 120, 0, 1, 900, 2, 64, 901, 10} {
		input := make([]records.Pair, n)
		for i := range input {
			input[i] = records.Pair{
				Key:   []byte(fmt.Sprintf("r%d-k%d", round, rng.Intn(1+n/4))),
				Value: []byte(fmt.Sprintf("r%d-v%d", round, rng.Intn(9))),
			}
		}
		got := slices.Clone(input)
		groups := g.Group(got)
		checkGrouped(t, fmt.Sprintf("round %d (n=%d)", round, n), input, got, groups)
		prefix := []byte(fmt.Sprintf("r%d-", round))
		for _, grp := range groups {
			for _, v := range grp.Values {
				if !bytes.HasPrefix(grp.Key, prefix) || !bytes.HasPrefix(v, prefix) {
					t.Fatalf("round %d: group %q=%q comes from another call", round, grp.Key, v)
				}
			}
		}
	}
}

// TestGroupedPairsShareOneKeySlice pins what the encoder relies on: after
// grouping, every pair of a group carries the group's Key slice itself.
func TestGroupedPairsShareOneKeySlice(t *testing.T) {
	ps := []records.Pair{
		{Key: []byte("b"), Value: []byte("2")}, {Key: []byte("a"), Value: []byte("9")},
		{Key: []byte("b"), Value: []byte("1")}, {Key: []byte("b"), Value: []byte("3")},
	}
	first := &ps[0].Key[0]
	groups := GroupPairs(ps)
	if len(groups) != 2 || &groups[1].Key[0] != first {
		t.Fatalf("group b's key is not the first b pair's slice: %v", groups)
	}
	for i := 1; i < 4; i++ {
		if &ps[i].Key[0] != first {
			t.Errorf("pair %d does not share the group's key slice", i)
		}
	}
}

// panePartitions builds the reduce partitions of one aggregation pane:
// about 1 200 pairs over 38 keys each, sizes a few percent apart (inside
// the scratch's headroom).
func panePartitions(rng *rand.Rand) [][]records.Pair {
	one := []byte("1")
	parts := make([][]records.Pair, 20)
	for p := range parts {
		parts[p] = make([]records.Pair, 1150+rng.Intn(100))
		for i := range parts[p] {
			parts[p][i] = records.Pair{Key: []byte(fmt.Sprintf("/images/obj%04d.gif", p+20*rng.Intn(38))), Value: one}
		}
	}
	return parts
}

// TestGrouperAllocatesPerScratchNotPerPartition: one scratch over the 20
// partitions of a pane allocates for the first of them (and a little to
// regrow for a larger one); a warmed scratch allocates nothing at all.
func TestGrouperAllocatesPerScratchNotPerPartition(t *testing.T) {
	base := panePartitions(rand.New(rand.NewSource(3)))
	work := make([][]records.Pair, len(base))
	for p := range base {
		work[p] = make([]records.Pair, len(base[p]))
	}
	pane := func(g *Grouper, parts int) {
		for p := 0; p < parts; p++ {
			copy(work[p], base[p])
			g.Group(work[p])
		}
	}
	first := testing.AllocsPerRun(10, func() { pane(new(Grouper), 1) })
	all := testing.AllocsPerRun(10, func() { pane(new(Grouper), len(base)) })
	t.Logf("a fresh scratch allocates %.0f times for one partition, %.0f for all %d", first, all, len(base))
	if all > first+8 {
		t.Errorf("grouping %d partitions allocates %.0f times, the first alone %.0f: the scratch is not reused", len(base), all, first)
	}
	var warm Grouper
	pane(&warm, len(base))
	if again := testing.AllocsPerRun(10, func() { pane(&warm, len(base)) }); again != 0 {
		t.Errorf("a warmed scratch allocates %.0f times per pane, want 0", again)
	}
	// Skewed partitions arriving smallest first regrow a scratch that starts
	// at the first one's size; one told the largest (Groupers) allocates as
	// for that one alone.
	skewed := [][]records.Pair{work[0][:100], work[1][:400], work[2][:900], work[3]}
	group := func(g *Grouper, parts [][]records.Pair) {
		for p, ps := range parts {
			copy(ps, base[len(skewed)-len(parts)+p])
			g.Group(ps)
		}
	}
	e := &Engine{Workers: 1}
	gs := e.Groupers(skewed)
	if most := gs[0].most; most != len(skewed[3]) {
		t.Fatalf("Groupers announced %d pairs, the largest partition has %d", most, len(skewed[3]))
	}
	e.PutGroupers(gs)
	told := testing.AllocsPerRun(10, func() { group(&Grouper{most: len(skewed[3])}, skewed) })
	largest := testing.AllocsPerRun(10, func() { group(&Grouper{most: len(skewed[3])}, skewed[3:]) })
	untold := testing.AllocsPerRun(10, func() { group(new(Grouper), skewed) })
	t.Logf("four partitions, smallest first: %.0f allocations told the largest, %.0f for the largest alone, %.0f untold", told, largest, untold)
	if told != largest || untold <= told {
		t.Errorf("a scratch told its largest partition allocates %.0f times (%.0f for that partition alone, %.0f untold): it is regrown", told, largest, untold)
	}
}

// FuzzGroupPairs decodes arbitrary bytes into pairs — keys and values
// are views of the fuzz input, lengths 0–3 so that keys repeat — and
// holds every grouping path to the naive reference.
func FuzzGroupPairs(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0x11, 'a', 'x', 0x11, 'a', 'w', 0x10, 'b'})
	f.Add([]byte("\x00\x00\x01k\x10k\x11kv\x11kv\x12kvv\x21kkv"))
	f.Add(bytes.Repeat([]byte{0x11, 'k', '1', 0x11, 'j', '1'}, 40))
	f.Add(bytes.Repeat([]byte{0x33, 1, 2, 3, 4, 5, 6, 7}, 9))
	f.Fuzz(func(t *testing.T, data []byte) {
		var input []records.Pair
		for len(data) > 0 {
			kl, vl := int(data[0]>>4)&3, int(data[0])&3
			data = data[1:]
			if kl+vl > len(data) {
				break
			}
			input = append(input, records.Pair{Key: data[:kl:kl], Value: data[kl : kl+vl : kl+vl]})
			data = data[kl+vl:]
		}
		got := slices.Clone(input)
		SortPairs(got)
		checkSorted(t, "SortPairs", input, got)
		var reused Grouper
		collide := Grouper{hash: func(k []byte) uint64 { return uint64(len(k)) }}
		for round := 0; round < 2; round++ {
			got = slices.Clone(input)
			checkGrouped(t, "reused", input, got, reused.Group(got))
			got = slices.Clone(input[:len(input)/2])
			checkGrouped(t, "collide", input[:len(input)/2], got, collide.Group(got))
		}
	})
}

// TestPutGroupersPinsNothing: scratch handed back to the pool holds no
// view of the keys and values it grouped, however many partitions each
// worker grouped.
func TestPutGroupersPinsNothing(t *testing.T) {
	parts := panePartitions(rand.New(rand.NewSource(5)))
	e := &Engine{Workers: 2}
	gs := e.Groupers(parts)
	for p, ps := range parts {
		gs[p%2].Group(ps)
	}
	e.PutGroupers(gs)
	for w, g := range gs {
		for i, v := range g.vals[:cap(g.vals)] {
			if v != nil {
				t.Fatalf("worker %d's scratch still holds value %d", w, i)
			}
		}
		for i, k := range g.keys[:cap(g.keys)] {
			if k.key != nil {
				t.Fatalf("worker %d's scratch still holds key %d", w, i)
			}
		}
		for i, gr := range g.groups[:cap(g.groups)] {
			if gr.Key != nil || gr.Values != nil {
				t.Fatalf("worker %d's scratch still holds group %d", w, i)
			}
		}
	}
	// Nor do a map phase's key tables and value runs, the combiner's
	// tables included, once it has been reduced through the same scratch.
	for _, combine := range []ReduceFunc{nil, reuseReduce} {
		e := testRig(t, 3)
		e.Workers = 2
		writeRanged(t, e, "/in", 900)
		job := &Job{Name: "pin", Map: stampMap, Reduce: concatReduce, Combine: combine, NumReducers: 3}
		mp, err := e.RunMapPhase(job, WholeFiles([]string{"/in"}), 0)
		check(t, err)
		encodedReduce(t, e, job, mp)
		mp.Release()
		checkScratchPinsNothing(t, e)
	}
}

// reuseReduce is a reducer that writes every output into one buffer it
// reuses — what a reduce emit's copy allows: per value "key#i=value",
// then the count. An emit that kept views would read only its last write.
func reuseReduce(key []byte, values [][]byte, emit Emitter) {
	var buf []byte
	for i, v := range values {
		buf = append(append(strconv.AppendInt(append(append(buf[:0], key...), '#'), int64(i), 10), '='), v...)
		emit.Emit(key, buf)
	}
	emit.Emit([]byte("count:"), strconv.AppendInt(buf[:0], int64(len(values)), 10))
}

// freshReduce is reuseReduce with a new array per emit, so that what it
// emits is never written again: the reference.
func freshReduce(key []byte, values [][]byte, emit Emitter) {
	for i, v := range values {
		emit.Emit(key, fmt.Appendf(nil, "%s#%d=%s", key, i, v))
	}
	emit.Emit([]byte("count:"), strconv.AppendInt(nil, int64(len(values)), 10))
}

// collect is what fn emits over groups, in a writer of its own.
func collect(fn ReduceFunc, groups []Group) []records.Pair {
	var w colfmt.PairWriter
	for _, gr := range groups {
		fn(gr.Key, gr.Values, EmitTo(&w))
	}
	_, run := w.Segment()
	return run.AppendTo(nil)
}

// TestGrouperReduceCopiesEachEmit: Grouper.Reduce and ReduceGroups over
// a reducer that reuses its buffer encode exactly what the reference
// reducer's fresh arrays give, and their pairs are those, views of the
// segment.
func TestGrouperReduceCopiesEachEmit(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	var g Grouper
	for name, input := range groupingShapes(rng) {
		want := collect(freshReduce, GroupPairs(slices.Clone(input)))
		seg, run := g.Reduce(reuseReduce, g.Group(slices.Clone(input)))
		pairs := run.AppendTo(nil)
		if !bytes.Equal(seg, colfmt.EncodePairs(want)) || !pairsEqual(pairs, want) {
			t.Fatalf("%s: Grouper.Reduce differs from a copying collector", name)
		}
		if got := ReduceGroups(reuseReduce, GroupPairs(slices.Clone(input))); !pairsEqual(got, want) {
			t.Fatalf("%s: ReduceGroups differs from a copying collector", name)
		}
	}
}

func pairsEqual(a, b []records.Pair) bool {
	return slices.EqualFunc(a, b, func(x, y records.Pair) bool {
		return bytes.Equal(x.Key, y.Key) && bytes.Equal(x.Value, y.Value)
	})
}

// storedRun encodes one run of pairs as a reduce-input cache in one of
// the shapes a cache may have: key-sorted as every writer stores it, out
// of order (a foreign registration), or as several segments.
func storedRun(rng *rand.Rand, ps []records.Pair, shape int) []byte {
	switch shape {
	case 0: // SortPairs order
		SortPairs(ps)
	case 1: // key-sorted, values in arrival order
		slices.SortStableFunc(ps, func(a, b records.Pair) int { return bytes.Compare(a.Key, b.Key) })
	case 2: // out of order
		rng.Shuffle(len(ps), func(i, j int) { ps[i], ps[j] = ps[j], ps[i] })
	case 3, 4: // two segments, key-sorted overall (3) or each on its own (4)
		SortPairs(ps)
		mid := len(ps) / 2
		if shape == 4 {
			return append(colfmt.EncodePairs(ps[mid:]), colfmt.EncodePairs(ps[:mid])...)
		}
		return append(colfmt.EncodePairs(ps[:mid]), colfmt.EncodePairs(ps[mid:])...)
	}
	return colfmt.EncodePairs(ps)
}

// TestReduceRunsMatchesMergeThenSorted holds the join's columnar
// merge-group (SortedRun + Grouper.ReduceRuns) to what it replaced:
// decode each cache, sort it when its keys are out of order,
// MergeSortedRuns, a linear grouping (groupKeyRuns), reduce, EncodePairs —
// over 1-4 runs in every stored shape, empty runs and keys one run holds
// alone.
func TestReduceRunsMatchesMergeThenSorted(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	byKey := func(a, b records.Pair) int { return bytes.Compare(a.Key, b.Key) }
	var g Grouper // reused across trials, as a worker's are
	for trial := 0; trial < 400; trial++ {
		datas := make([][]byte, 1+rng.Intn(4))
		for r := range datas {
			var ps []records.Pair
			for i, n := 0, rng.Intn(40); i < n; i++ {
				key := fmt.Sprintf("k%02d", rng.Intn(10))
				if rng.Intn(4) == 0 {
					key = fmt.Sprintf("only%d-%d", r, rng.Intn(3))
				}
				ps = append(ps, records.Pair{Key: []byte(key), Value: []byte(fmt.Sprintf("r%d-%d", r, rng.Intn(6)))})
			}
			datas[r] = storedRun(rng, ps, rng.Intn(5))
		}

		var decoded [][]records.Pair
		runs := make([]colfmt.PairRun, 0, len(datas))
		for _, data := range datas {
			ps, err := colfmt.DecodePairs(data)
			check(t, err)
			if !slices.IsSortedFunc(ps, byKey) {
				SortPairs(ps)
			}
			decoded = append(decoded, ps)
			run, err := SortedRun(data)
			check(t, err)
			runs = append(runs, run)
		}
		want := collect(freshReduce, groupKeyRuns(MergeSortedRuns(nil, decoded...)))
		got, view := g.ReduceRuns(reuseReduce, runs)
		if !bytes.Equal(got, colfmt.EncodePairs(want)) {
			t.Fatalf("trial %d (%d runs): ReduceRuns encodes %d bytes, the merge reference %d", trial, len(runs), len(got), len(colfmt.EncodePairs(want)))
		}
		if !pairsEqual(view.AppendTo(nil), want) {
			t.Fatalf("trial %d: ReduceRuns' view is not its output", trial)
		}
	}
	if got, view := g.ReduceRuns(reuseReduce, nil); got != nil || view.Len() != 0 {
		t.Error("no runs should reduce to nothing")
	}
}

// TestSortedRunRejectsCorruption: the columnar view keeps the checks
// decoding made — a flipped byte anywhere in a cache is ErrCorrupt.
func TestSortedRunRejectsCorruption(t *testing.T) {
	data := colfmt.EncodePairs([]records.Pair{{Key: []byte("a"), Value: []byte("1")}, {Key: []byte("b"), Value: []byte("2")}})
	for i := range data {
		bad := slices.Clone(data)
		bad[i] ^= 0x40
		if _, err := SortedRun(bad); !errors.Is(err, colfmt.ErrCorrupt) {
			t.Fatalf("byte %d flipped: SortedRun returned %v", i, err)
		}
	}
	if _, err := SortedRun(append(slices.Clone(data), 'R')); !errors.Is(err, colfmt.ErrCorrupt) {
		t.Fatalf("trailing garbage after a segment: SortedRun returned %v", err)
	}
}
