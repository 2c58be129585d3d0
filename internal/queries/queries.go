// Package queries defines the paper's two evaluation queries (§6.1) as
// recurring query specifications over the core engine:
//
//   - Q1 — an aggregation over the WCC dataset that ranks entities by
//     activity ("ranks the movements of players"): group by the
//     requested object, count requests per pane, sum the counts per
//     window, rank at reporting time.
//   - Q2 — an equi-join over the FFG dataset: sensor position samples
//     joined with game events on the sensor id.
//
// Both are expressed with the same map/reduce interfaces a Hadoop user
// writes (paper §5); the window constraints live on the Source specs.
package queries

import (
	"bytes"
	"sort"
	"strconv"

	"redoop/internal/core"
	"redoop/internal/mapreduce"
	"redoop/internal/records"
	"redoop/internal/simtime"
	"redoop/internal/window"
)

// SumCounts is the shared aggregate reducer: it sums integer values
// per key. It serves as Q1's combiner, per-pane reducer and window
// finalization merge — counting is algebraic, which is what lets the
// pane outputs merge losslessly (§6.2.1).
func SumCounts(key []byte, values [][]byte, emit mapreduce.Emitter) {
	total := int64(0)
	for _, v := range values {
		total += parseCount(v)
	}
	var buf [20]byte // formatted on the stack: the emit copies it
	emit.Emit(key, strconv.AppendInt(buf[:0], total, 10))
}

// parseCount is strconv.ParseInt(string(v), 10, 64) with its error
// dropped, reading plain ASCII digits straight from the bytes. A sign, a
// non-digit or more than the 18 digits that always fit go to ParseInt
// itself, so every result is the one it gives (0 for an empty value).
func parseCount(v []byte) int64 {
	n := int64(0)
	for _, c := range v {
		if c < '0' || c > '9' || len(v) > 18 {
			n, _ = strconv.ParseInt(string(v), 10, 64)
			return n
		}
		n = n*10 + int64(c-'0')
	}
	return n
}

// field extracts the i-th comma-separated field of a payload without
// allocating; ok is false when the payload has too few fields.
func field(payload []byte, i int) ([]byte, bool) {
	start := 0
	for n := 0; ; n++ {
		end := bytes.IndexByte(payload[start:], ',')
		if n == i {
			if end < 0 {
				return payload[start:], true
			}
			return payload[start : start+end], true
		}
		if end < 0 {
			return nil, false
		}
		start += end + 1
	}
}

// WCCMap is Q1's mapper: emit (requested object, 1) per log line. The
// key is a view of the payload, which the map side keeps as it is, once
// per worker and key: stored input never changes. It is a named
// package-level function — not a closure — because the lineage plan
// identifies operators by function symbol, and the compiler names an
// inlined closure after its call site, which would give two
// otherwise-identical queries different plan fingerprints and defeat
// fingerprint-keyed cross-query reuse.
func WCCMap(_ int64, payload []byte, emit mapreduce.Emitter) {
	obj, ok := field(payload, 1)
	if !ok {
		return // malformed log line; Hadoop jobs skip these too
	}
	emit.Emit(obj, one)
}

// one is the count every WCC log line contributes.
var one = []byte("1")

// WCCAggregation builds Q1: count clicks per requested object over the
// sliding window. win and slide are virtual-time window constraints;
// cacheKey optionally opts into cross-query cache sharing.
func WCCAggregation(name string, win, slide simtime.Duration, reducers int) *core.Query {
	return &core.Query{
		Name: name,
		Sources: []core.Source{{
			Name: "S1",
			Spec: window.NewTimeSpec(win, slide),
		}},
		Maps:   []mapreduce.MapFunc{WCCMap},
		Reduce: SumCounts,
		// No combiner: the paper's aggregation shuffles its full map
		// output (Figure 6(b) shows a substantial shuffle phase),
		// which is exactly the cost Redoop's caching then removes.
		Merge:       SumCounts,
		NumReducers: reducers,
	}
}

// FFGJoin builds Q2: join sensor position samples (source 0) with game
// events (source 1) on the sensor id. Values are tagged R| and E| so
// the reducer can separate the sides; each output pairs one reading
// with one event of the same sensor.
func FFGJoin(name string, win, slide simtime.Duration, reducers int) *core.Query {
	return &core.Query{
		Name: name,
		Sources: []core.Source{
			{Name: "S1", Spec: window.NewTimeSpec(win, slide)},
			{Name: "S2", Spec: window.NewTimeSpec(win, slide)},
		},
		Maps:        []mapreduce.MapFunc{FFGTagReadings, FFGTagEvents},
		Reduce:      JoinReduce,
		NumReducers: reducers,
		// Merge nil: the window's join result is the union of its
		// pane pairs' results.
	}
}

// ffgTag emits (sensor id, prefix|payload) — the shared body of Q2's
// two side-tagging mappers. The key is a view of the payload (see
// WCCMap); the value is built on the stack up to 256 bytes, which the
// emit copies.
func ffgTag(prefix byte, payload []byte, emit mapreduce.Emitter) {
	sensor, ok := field(payload, 0)
	if !ok {
		return
	}
	var buf [256]byte
	emit.Emit(sensor, append(append(buf[:0], prefix, '|'), payload...))
}

// FFGTagReadings / FFGTagEvents are Q2's mappers, named package-level
// functions for stable plan-fingerprint symbols (see WCCMap).
func FFGTagReadings(_ int64, payload []byte, emit mapreduce.Emitter) { ffgTag('R', payload, emit) }

// FFGTagEvents tags game events (see FFGTagReadings).
func FFGTagEvents(_ int64, payload []byte, emit mapreduce.Emitter) { ffgTag('E', payload, emit) }

// joinSide returns which side a tagged value belongs to, 'R' or 'E',
// or 0 for a value JoinReduce skips: untagged, or of an unknown tag.
func joinSide(v []byte) byte {
	if len(v) < 2 || v[1] != '|' || (v[0] != 'R' && v[0] != 'E') {
		return 0
	}
	return v[0]
}

// JoinReduce is Q2's reducer: an in-memory cross join of the R-tagged
// and E-tagged values of one key, R-major. The emit copies (see
// mapreduce.Emitter), so every output "r;e" is written in turn into one
// value buffer on the stack, and the two sides' payload views live on
// the stack too: a key group allocates only past 256 bytes of "r;e" or
// 32 values.
func JoinReduce(key []byte, values [][]byte, emit mapreduce.Emitter) {
	var nr, ne, rmax, emax int
	for _, v := range values {
		switch joinSide(v) {
		case 'R':
			nr++
			rmax = max(rmax, len(v)-2)
		case 'E':
			ne++
			emax = max(emax, len(v)-2)
		}
	}
	if nr == 0 || ne == 0 {
		return
	}
	var stack [32][]byte
	sides := stack[:0]
	if nr+ne > len(stack) {
		sides = make([][]byte, 0, nr+ne)
	}
	rs, es := sides[:0:nr], sides[nr:nr:nr+ne]
	for _, v := range values {
		switch joinSide(v) {
		case 'R':
			rs = append(rs, v[2:])
		case 'E':
			es = append(es, v[2:])
		}
	}
	var out [256]byte
	buf := out[:0]
	if n := rmax + 1 + emax; n > len(out) {
		buf = make([]byte, 0, n)
	}
	for _, r := range rs {
		buf = append(append(buf[:0], r...), ';')
		prefix := len(buf)
		for _, e := range es {
			emit.Emit(key, append(buf[:prefix], e...))
		}
	}
}

// Ranked is one entry of a ranking report.
type Ranked struct {
	Key   string
	Count int64
}

// RankTopK turns Q1's window output into the paper's ranking: entries
// sorted by count descending (ties by key) truncated to k. k <= 0
// returns the full ranking.
func RankTopK(out []records.Pair, k int) []Ranked {
	ranked := make([]Ranked, 0, len(out))
	for _, p := range out {
		n, err := strconv.ParseInt(string(p.Value), 10, 64)
		if err != nil {
			continue
		}
		ranked = append(ranked, Ranked{Key: string(p.Key), Count: n})
	}
	sort.Slice(ranked, func(i, j int) bool {
		if ranked[i].Count != ranked[j].Count {
			return ranked[i].Count > ranked[j].Count
		}
		return ranked[i].Key < ranked[j].Key
	})
	if k > 0 && len(ranked) > k {
		ranked = ranked[:k]
	}
	return ranked
}
