package mapreduce

import (
	"bytes"
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
// — the Key slice of the first pair that had it — and its number.
type slot struct{ tag, gid uint32 }
type keyed struct {
	key []byte
	id  uint32
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
	if g.keys == nil { // room for a pane's few dozen keys without regrowing
		g.keys, g.groups = make([]keyed, 0, min(n, 64)), make([]Group, 0, min(n, 64))
	}
	// A group number is below n, so n entries serve next as well.
	gid, next, vals, keys := g.ints[:n], g.ints[n:2*n], g.values(n), g.keys[:0]

	// Number the groups and count their pairs.
	mask := uint64(size - 1)
	for i := range ps {
		k := ps[i].Key
		h := maphash.Bytes(g.seed, k)
		if g.hash != nil {
			h = g.hash(k)
		}
		tag, j := uint32(h>>32), h&mask
		for table[j].gid != 0 && (table[j].tag != tag || !bytes.Equal(keys[table[j].gid-1].key, k)) {
			j = (j + 1) & mask
		}
		if table[j].gid == 0 { // the first pair of a new group
			id := uint32(len(keys))
			table[j], next[id], keys = slot{tag, id + 1}, 0, append(keys, keyed{k, id})
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

// values is the scratch's values array cut to n, regrown when too small.
func (g *Grouper) values(n int) [][]byte {
	if cap(g.vals) < n {
		g.vals = make([][]byte, g.room(n))
	}
	return g.vals[:n]
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

// Sorted is Group for pairs already in key order — a merge of cached,
// key-sorted runs: one linear pass, no hashing, nothing reordered, values
// left in the order they came. The groups view the scratch likewise.
func (g *Grouper) Sorted(ps []records.Pair) []Group {
	vals, groups := g.values(len(ps)), g.groups[:0]
	for i := 0; i < len(ps); {
		j := i
		for ; j < len(ps) && bytes.Equal(ps[j].Key, ps[i].Key); j++ {
			vals[j] = ps[j].Value
		}
		groups = append(groups, Group{Key: ps[i].Key, Values: vals[i:j:j]})
		i = j
	}
	g.groups = groups
	return groups
}

// Reduce applies fn to each group in order with the Grouper's writer as
// the emit, which copies (see Emitter), and returns the output as one
// exactly-sized segment — what EncodePairs writes for the emitted pairs
// — and the pairs as views of it; nil, nil when fn emitted nothing. The
// groups may be this Grouper's own (Group, Sorted): the writer is
// separate scratch.
func (g *Grouper) Reduce(fn ReduceFunc, groups []Group) ([]byte, []records.Pair) {
	g.w.Reset()
	emit := g.w.Add // bound per call: the free list copies Groupers, so a stored one would go stale
	for _, gr := range groups {
		fn(gr.Key, gr.Values, emit)
	}
	return g.w.Segment()
}

// ReduceRuns is MergeSortedRuns, Sorted and Reduce in one pass over the
// runs' columns, with no merged array: runs are key-sorted (SortedRun), a
// key's values come run after run in run order, each run's in its own,
// and fn is applied to each key as its group closes. It returns the
// encoded output alone, nil when fn emitted nothing.
func (g *Grouper) ReduceRuns(fn ReduceFunc, runs []colfmt.PairRun) []byte {
	if cap(g.at) < len(runs) {
		g.at = make([]int, len(runs))
	}
	at := g.at[:len(runs)]
	clear(at)
	g.w.Reset()
	emit := g.w.Add
	vals, most := g.vals[:0], 0
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
	return g.w.Encode()
}

// SortedRun returns the run ReduceRuns merges for a reduce-input cache:
// the view of its one segment when that is key-sorted, as every writer
// stores it. A cache that is not — out of order, or several segments — is
// decoded, sorted when its pairs are out of key order (SortPairs) and
// encoded afresh, so the result is what merging its decoded pairs gave.
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

// GroupSorted is Sorted on a scratch of its own, for one-off callers.
func GroupSorted(pairs []records.Pair) []Group { return new(Grouper).Sorted(pairs) }

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
