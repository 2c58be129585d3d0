package mapreduce

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"hash/maphash"
	"math/bits"
	"slices"

	"redoop/internal/colfmt"
	"redoop/internal/records"
)

// Grouper is the scratch of the sort/group stage that precedes every
// reduce. A reduce partition is mostly equal keys, so instead of
// comparison-sorting its pairs a Grouper finds each pair's group by
// hashing the key, orders only the distinct keys, and places every pair
// at its group's rank. The zero value is ready; a hot loop holds one per
// pool worker and reuses it across that worker's partitions. Positions
// are 32-bit: a partition's columnar encoding holds no more pairs either.
// It also holds the reduce's emit, a writer that copies what the reducer
// emits and encodes it (Reduce, ReduceRuns).
type Grouper struct {
	most   int // the largest partition announced (Groupers): what a first use sizes the scratch for
	seed   maphash.Seed
	hash   func(key []byte) uint64 // replaces maphash under seed when set: tests force collisions
	table  []slot                  // open addressing, linear probing, a power of two >= 1.5n slots
	ints   []uint32                // per pair its group (gid), then per group its count or position (next)
	keys   []keyed                 // per group its key, in order of first appearance, then sorted
	vals   [][]byte                // every value, group after group: what the groups' Values view
	groups []Group
	w      colfmt.PairWriter // the reduce emit (Reduce, ReduceRuns): copies what a reducer emits
	at     []int             // ReduceRuns' cursor per run
}

// slot is a table entry: the hash's upper half, tried before the key
// bytes, and the group's number + 1 (0 is free). keyed is a group's key
// — the Key slice of the first pair that had it — and its number; a
// keyTable's id is the split that first emitted the key, part its
// partition.
type slot struct{ tag, gid uint32 }
type keyed struct {
	key      []byte
	id, part uint32
}

// probe finds key's slot in table, whose occupied slots hold keys[gid-1]:
// the slot that holds key, or the free one where it goes. h is key's hash.
func probe(table []slot, keys []keyed, key []byte, h uint64) (j uint64, tag uint32) {
	mask := uint64(len(table) - 1)
	tag, j = uint32(h>>32), h&mask
	for table[j].gid != 0 && (table[j].tag != tag || !bytes.Equal(keys[table[j].gid-1].key, key)) {
		j = (j + 1) & mask
	}
	return j, tag
}

// Group reorders ps in place into SortPairs order and returns its
// groups, keys strictly ascending. Every pair of a group leaves with the
// group's one key slice (identical bytes, fewer arrays for the encoder to
// read); a group's values are compared only to check, linearly, that they
// are already in order, and sorted when not. The result depends on key
// and value bytes alone — not on the hash seed, the table size or an
// earlier call. The groups view the scratch, valid until the next call.
func (g *Grouper) Group(ps []records.Pair) []Group {
	n := len(ps)
	if n == 0 {
		return nil
	}
	if g.seed == (maphash.Seed{}) {
		g.seed = maphash.MakeSeed()
	}
	size := tableSize(n)
	if cap(g.table) < size {
		g.table = make([]slot, tableSize(max(n, g.most)))
	}
	table := g.table[:size]
	clear(table)
	if len(g.ints) < 2*n {
		g.ints = make([]uint32, 2*g.room(n))
	}
	if cap(g.vals) < n {
		g.vals = make([][]byte, g.room(n))
	}
	if g.keys == nil { // room for a pane's few dozen keys without regrowing
		g.keys, g.groups = make([]keyed, 0, min(n, 64)), make([]Group, 0, min(n, 64))
	}
	// A group number is below n, so n entries serve next as well.
	gid, next, vals, keys := g.ints[:n], g.ints[n:2*n], g.vals[:n], g.keys[:0]

	// Number the groups and count their pairs.
	for i := range ps {
		k := ps[i].Key
		h := maphash.Bytes(g.seed, k)
		if g.hash != nil {
			h = g.hash(k)
		}
		j, tag := probe(table, keys, k, h)
		if table[j].gid == 0 { // the first pair of a new group
			id := uint32(len(keys))
			table[j], next[id], keys = slot{tag, id + 1}, 0, append(keys, keyed{key: k, id: id})
		}
		gid[i] = table[j].gid - 1
		next[gid[i]]++
	}

	// Order the distinct keys; counts become each group's first position.
	slices.SortFunc(keys, func(a, b keyed) int { return bytes.Compare(a.key, b.key) })
	pos := uint32(0)
	for _, k := range keys {
		pos, next[k.id] = pos+next[k.id], pos
	}
	// A stable counting pass places the values; each group's end up in
	// arrival order, which is sorted order for a mapper's constant.
	for i, id := range gid {
		vals[next[id]] = ps[i].Value
		next[id]++
	}
	groups := g.groups[:0]
	lo := uint32(0)
	for _, k := range keys {
		hi := next[k.id]
		vs := vals[lo:hi:hi]
		if !slices.IsSortedFunc(vs, bytes.Compare) {
			slices.SortFunc(vs, bytes.Compare)
		}
		for j, v := range vs {
			ps[int(lo)+j] = records.Pair{Key: k.key, Value: v}
		}
		groups = append(groups, Group{Key: k.key, Values: vs})
		lo = hi
	}
	g.keys, g.groups = keys, groups
	return groups
}

// tableSize is the table's length for n pairs.
func tableSize(n int) int { return max(8, 1<<bits.Len(uint(n+n/2-1))) }

// room is what an array too small for n pairs is regrown to: the largest
// partition announced, or without one n and a quarter of headroom — a
// worker's partitions are about one size.
func (g *Grouper) room(n int) int {
	if n <= g.most {
		return g.most
	}
	return n + n/4
}

// Groupers borrows one scratch per pool worker for grouping parts: a
// worker's first use sizes its scratch for the largest of them, once,
// instead of regrowing it as larger partitions arrive. Hand it back with
// PutGroupers once no group it returned is read.
func (e *Engine) Groupers(parts [][]records.Pair) []Grouper {
	most := 0
	for _, ps := range parts {
		most = max(most, len(ps))
	}
	gs := e.scratch.groupers.get(e.WorkerCount())
	for i := range gs {
		gs[i].most = most
	}
	return gs
}

// PutGroupers hands scratch back, first clearing its views of the pass's
// keys and values (no more than it announced) so that the free list pins none.
func (e *Engine) PutGroupers(gs []Grouper) {
	for _, g := range gs { // copies sharing the arrays they clear
		clear(g.vals[:min(g.most, len(g.vals))])
		clear(g.keys[:min(g.most, cap(g.keys))])
		clear(g.groups[:min(g.most, cap(g.groups))])
	}
	e.scratch.groupers.put(gs)
}

// keyTable numbers the distinct keys one pool worker's map emits, over
// every split it maps, and partitions each once, as it first arrives:
// key id is keys[id] (see keyed). It starts with room for hint keys and
// doubles when two thirds full; n is place's scratch. arena is the chunk
// the worker's map emit copies keys and values into, payload the record
// it is mapping (keep).
type keyTable struct {
	slots   []slot
	keys    []keyed
	n       []uint32
	arena   []byte
	last    []byte // the value it kept last (stage.add)
	payload []byte
	part    Partitioner
	r, hint int
}

var tableSeed = maphash.MakeSeed()

// id returns key's number, numbering it for split i if it is new: a new
// key is kept (keep) and partitioned, once.
func (t *keyTable) id(key []byte, i int) uint32 {
	if 3*len(t.keys) >= 2*len(t.slots) {
		t.slots = make([]slot, max(tableSize(t.hint), 2*len(t.slots)))
		t.keys = slices.Grow(t.keys, 2*len(t.slots)/3+1-len(t.keys))
		for id, k := range t.keys {
			j, tag := probe(t.slots, t.keys, k.key, maphash.Bytes(tableSeed, k.key))
			t.slots[j] = slot{tag, uint32(id) + 1}
		}
	}
	j, tag := probe(t.slots, t.keys, key, maphash.Bytes(tableSeed, key))
	if t.slots[j].gid == 0 {
		kept := t.keep(key)
		t.slots[j] = slot{tag, uint32(len(t.keys)) + 1}
		t.keys = append(t.keys, keyed{kept, uint32(i), uint32(t.part(kept, t.r))})
	}
	return t.slots[j].gid - 1
}

// minChunk is the size of an arena's first chunk: a pane's distinct keys
// and values are a few hundred short ones.
const minChunk = 512

// keep returns what the map output keeps of b, its capacity its length,
// never nil: the payload's own bytes when b is a slice of it (a key cut
// from the record: stored input never changes and outlives the phase),
// else a copy in the arena. A slice of the payload starts where its
// capacity says, which one pointer comparison confirms. A chunk without
// room for b is left to the slices that view it, and one at least twice
// its size begun; the copies never move.
func (t *keyTable) keep(b []byte) []byte {
	if i := cap(t.payload) - cap(b); len(b) > 0 && i >= 0 && i <= len(t.payload)-len(b) && &t.payload[i] == &b[0] {
		return t.payload[i : i+len(b) : i+len(b)]
	}
	if cap(t.arena) == 0 || cap(t.arena)-len(t.arena) < len(b) {
		t.arena = make([]byte, 0, max(2*cap(t.arena), len(b), minChunk))
	}
	n := len(t.arena)
	t.arena = append(t.arena, b...)
	return t.arena[n:len(t.arena):len(t.arena)]
}

// stage is one split's pairs as emitted: per pair its key's number in its
// worker's table; the first value, then a run from each pair whose value
// has other bytes than the one before it (none for WCCMap's one), each
// value as its worker's table keeps it (keep).
type stage struct {
	ids    []uint32
	first  []byte
	runs   []valRun
	worker int
}

type valRun struct {
	from uint32 // the run's first pair
	v    []byte
}

// add stages one pair: its key's number, and its value. A value with the
// bytes of the one its worker kept last is that slice, not a new copy, so
// a mapper's constant is one slice over all of a worker's splits and
// starts no value run: place fills one values array with it for every group.
func (st *stage) add(id uint32, v []byte, t *keyTable) {
	if t.last == nil || !bytes.Equal(v, t.last) {
		t.last = t.keep(v)
		if len(st.ids) > 0 {
			if st.runs == nil { // room for a change at every pair left in the split's share
				st.runs = make([]valRun, 0, cap(st.ids)-len(st.ids))
			}
			st.runs = append(st.runs, valRun{uint32(len(st.ids)), t.last})
		}
	}
	if len(st.ids) == 0 {
		st.first = t.last
	}
	st.ids = append(st.ids, id)
}

// mapSink is the map side's emit for one split: a pair's key numbered in
// its worker's table, its value staged, and its encoded size counted to
// its partition. It holds on to no slice it is handed: the table and the
// stage keep copies, or views of the payload (keep).
type mapSink struct {
	tab   *keyTable
	st    *stage
	size  []int64 // per partition
	split int
}

func (s *mapSink) emit(key, value []byte) {
	id := s.tab.id(key, s.split)
	s.st.add(id, value, s.tab)
	s.size[s.tab.keys[id].part] += records.PairSize(records.Pair{Key: key, Value: value})
}

// place lays the stages' pairs out as key groups, numbered by
// tabs[stage.worker], and returns each partition's groups in key order
// and the values array they view, which alloc gives: keys rank by
// partition, then bytes; a rank is one group under the slice the key's
// first split kept; its values, in emit order, are sorted only when out of
// order. In a phase with one value every group's values are a prefix of
// one array filled with it. That is Group's result, without hashing again
// or writing a pair.
func place(stages []stage, tabs []keyTable, R int, alloc func(n int) [][]byte) ([][]Group, [][]byte) {
	type ref struct {
		part uint32
		pre  uint64 // the key's first eight bytes, big-endian: most comparisons end here
		k    *keyed
		n    *uint32
	}
	for w := range tabs {
		tabs[w].n = append(tabs[w].n[:0], make([]uint32, len(tabs[w].keys))...)
	}
	ents := make([]ref, 0, len(tabs[0].keys)) // all of them for one worker
	// one is the phase's only value when it has one (WCCMap's "1", a copy
	// per worker): no stage has a value run, every first has its bytes.
	one, seen, single := []byte(nil), false, true
	for _, st := range stages {
		if len(st.ids) > 0 {
			single = single && len(st.runs) == 0 && (!seen || bytes.Equal(st.first, one))
			one, seen = st.first, true
		}
		n := tabs[st.worker].n
		for _, id := range st.ids {
			if n[id]++; n[id] == 1 {
				k, pre := &tabs[st.worker].keys[id], [8]byte{}
				copy(pre[:], k.key)
				ents = append(ents, ref{k.part, binary.BigEndian.Uint64(pre[:]), k, &n[id]})
			}
		}
	}
	slices.SortFunc(ents, func(a, b ref) int {
		if c := cmp.Or(cmp.Compare(a.part, b.part), cmp.Compare(a.pre, b.pre)); c != 0 {
			return c
		}
		return cmp.Or(bytes.Compare(a.k.key, b.k.key), cmp.Compare(a.k.id, b.k.id))
	})
	// Equal keys of several tables become one rank, one group: at is each
	// rank's first position among the phase's values, every table's entry
	// of a key takes the slice the first split kept, and its count becomes
	// the rank.
	groups, at, parts := make([]Group, 0, len(ents)), make([]uint32, 0, len(ents)+1), make([][]Group, R)
	pos, most := uint32(0), uint32(0)
	var first *keyed
	for _, e := range ents {
		if k := e.k; first == nil || k.part != first.part || !bytes.Equal(k.key, first.key) {
			first, at, groups = k, append(at, pos), append(groups, Group{Key: k.key})
			n := len(groups) // groups never regrows: the partition's earlier groups stay its view
			parts[e.part] = groups[n-1-len(parts[e.part]) : n : n]
		}
		e.k.key, pos, *e.n = first.key, pos+*e.n, uint32(len(at)-1)
		most = max(most, pos-at[len(at)-1])
	}
	at = append(at, pos)
	if pos == 0 {
		return parts, nil
	}
	if single { // a rank's values are alike: no scatter, no value-order check
		fill := alloc(int(most))
		for i := range fill {
			fill[i] = one
		}
		for g := range groups {
			n := at[g+1] - at[g]
			groups[g].Values = fill[:n:n]
		}
		return parts, fill
	}
	all := alloc(int(pos))
	for _, st := range stages {
		t, v, next := &tabs[st.worker], st.first, 0
		for j, id := range st.ids {
			if next < len(st.runs) && st.runs[next].from == uint32(j) {
				v, next = st.runs[next].v, next+1
			}
			all[at[t.n[id]]] = v
			at[t.n[id]]++
		}
	}
	for g, lo := 0, uint32(0); g < len(groups); lo, g = at[g], g+1 { // at[g] is now where group g ends
		vs := all[lo:at[g]:at[g]]
		if !slices.IsSortedFunc(vs, bytes.Compare) {
			slices.SortFunc(vs, bytes.Compare)
		}
		groups[g].Values = vs
	}
	return parts, all
}

// Reduce applies fn to each group in order with the Grouper's writer as
// the emit, which copies (see Emitter), and returns the output as one
// exactly-sized segment — what EncodePairs writes for the emitted pairs
// — and its view, the pairs in emit order; nil and the empty run when fn
// emitted nothing. The groups may be this Grouper's own (Group): the
// writer is separate scratch.
func (g *Grouper) Reduce(fn ReduceFunc, groups []Group) ([]byte, colfmt.PairRun) {
	g.w.Reset()
	emit := EmitTo(&g.w) // made per call: the free list copies Groupers, so a stored one would go stale
	for _, gr := range groups {
		fn(gr.Key, gr.Values, emit)
	}
	return g.w.Segment()
}

// ReduceRuns is MergeSortedRuns, grouping and Reduce in one pass over the
// runs' columns, with no merged array: runs are key-sorted (SortedRun), a
// key's values come run after run in run order, each run's in its own,
// and fn is applied to each key as its group closes. It returns the
// encoded output and its view, nil and the empty run when fn emitted
// nothing.
func (g *Grouper) ReduceRuns(fn ReduceFunc, runs []colfmt.PairRun) ([]byte, colfmt.PairRun) {
	if cap(g.at) < len(runs) {
		g.at = make([]int, len(runs))
	}
	at := g.at[:len(runs)]
	clear(at)
	g.w.Reset()
	emit := EmitTo(&g.w)
	vals, most := slices.Grow(g.vals[:0], len(runs)), 0 // a key has a value per run, unless a run repeats it
	for {
		lo, key := -1, []byte(nil)
		for j := range runs {
			if at[j] < runs[j].Len() {
				if k := runs[j].Key(at[j]); lo < 0 || bytes.Compare(k, key) < 0 {
					lo, key = j, k
				}
			}
		}
		if lo < 0 {
			break
		}
		vals = vals[:0]
		for j := lo; j < len(runs); j++ { // runs before lo are past key
			r := &runs[j]
			for ; at[j] < r.Len() && bytes.Equal(r.Key(at[j]), key); at[j]++ {
				vals = append(vals, r.Value(at[j]))
			}
		}
		most = max(most, len(vals))
		fn(key, vals, emit)
	}
	clear(vals[:most]) // pin no cache through the free list
	g.vals = vals
	return g.w.Segment()
}

// SortedRun returns the run ReduceRuns merges for a cache: the view of
// its one segment when that is key-sorted, as every writer stores it. A
// cache that is not — out of order, or several segments — is decoded,
// sorted when its pairs are out of key order (SortPairs) and encoded
// afresh, so the result is what merging its decoded pairs gave.
// Empty data is an empty run.
func SortedRun(data []byte) (colfmt.PairRun, error) {
	if len(data) == 0 {
		return colfmt.PairRun{}, nil
	}
	run, rest, err := colfmt.ViewPairs(data)
	if err != nil {
		return colfmt.PairRun{}, err
	}
	if len(rest) == 0 && keysSorted(&run) {
		return run, nil
	}
	pairs, err := colfmt.DecodePairs(data)
	if err != nil {
		return colfmt.PairRun{}, err
	}
	if !slices.IsSortedFunc(pairs, func(a, b records.Pair) int { return bytes.Compare(a.Key, b.Key) }) {
		SortPairs(pairs)
	}
	run, _, err = colfmt.ViewPairs(colfmt.EncodePairs(pairs))
	return run, err
}

// keysSorted reports whether a run's keys never decrease.
func keysSorted(r *colfmt.PairRun) bool {
	for i := 1; i < r.Len(); i++ {
		if bytes.Compare(r.Key(i-1), r.Key(i)) > 0 {
			return false
		}
	}
	return true
}

// GroupPairs is Group on a scratch of its own, for one-off callers: sized
// exactly, since no second partition follows.
func GroupPairs(pairs []records.Pair) []Group {
	g := Grouper{most: len(pairs)}
	return g.Group(pairs)
}

// SortPairs orders pairs by key then value — a total order up to
// byte-identical pairs, so the result does not depend on how it is
// reached: reduce partitions are sorted in it, reduce-input caches stored
// in it, outputs compared in it. It is Group with the groups dropped.
func SortPairs(ps []records.Pair) { GroupPairs(ps) }
