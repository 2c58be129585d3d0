package lineage

import (
	"math/rand"
	"testing"

	"redoop/internal/colfmt"
	"redoop/internal/records"
)

func basePlan() Plan {
	return Plan{
		WindowKind: "time",
		WinUnits:   3600, SlideUnits: 900, PaneUnits: 900,
		Sources: []PlanSource{
			{Name: "S1", CacheKey: "clicks", Map: "redoop/internal/queries.wordMap"},
		},
		Combine:     "redoop/internal/queries.sumReduce",
		Reduce:      "redoop/internal/queries.sumReduce",
		Merge:       "-",
		Partition:   "-",
		NumReducers: 20,
	}
}

// TestFingerprintNearMiss asserts near-miss plans — same operator set,
// one knob changed — fingerprint distinctly, and that equal plans
// fingerprint equally.
func TestFingerprintNearMiss(t *testing.T) {
	base := basePlan()
	fp := Fingerprint(base)
	if fp != Fingerprint(basePlan()) {
		t.Fatalf("equal plans produced unequal fingerprints")
	}
	if len(fp) != 64 {
		t.Fatalf("fingerprint %q is not a hex sha256", fp)
	}

	mutations := map[string]func(*Plan){
		"pane size":        func(p *Plan) { p.PaneUnits = 450 },
		"window size":      func(p *Plan) { p.WinUnits = 7200 },
		"slide":            func(p *Plan) { p.SlideUnits = 1800 },
		"window kind":      func(p *Plan) { p.WindowKind = "count" },
		"combiner dropped": func(p *Plan) { p.Combine = "-" },
		"combiner changed": func(p *Plan) { p.Combine = "redoop/internal/queries.maxReduce" },
		"reduce changed":   func(p *Plan) { p.Reduce = "redoop/internal/queries.maxReduce" },
		"merge added":      func(p *Plan) { p.Merge = "redoop/internal/queries.mergeTopK" },
		"partitioner":      func(p *Plan) { p.Partition = "custom" },
		"reducer arity":    func(p *Plan) { p.NumReducers = 10 },
		"source map":       func(p *Plan) { p.Sources[0].Map = "redoop/internal/queries.joinMap" },
		"source key type":  func(p *Plan) { p.Sources[0].CacheKey = "views" },
		"source name":      func(p *Plan) { p.Sources[0].Name = "S2" },
		"second source": func(p *Plan) {
			p.Sources = append(p.Sources, PlanSource{Name: "S2", Map: "m"})
		},
	}
	seen := map[string]string{fp: "base"}
	for name, mutate := range mutations {
		p := basePlan()
		mutate(&p)
		got := Fingerprint(p)
		if prev, dup := seen[got]; dup {
			t.Errorf("near-miss %q collides with %q (fingerprint %s)", name, prev, got)
		}
		seen[got] = name
	}
}

// TestFingerprintNoFieldConcatAmbiguity guards the length-prefixed
// encoding: moving a suffix between adjacent fields must change the
// fingerprint.
func TestFingerprintNoFieldConcatAmbiguity(t *testing.T) {
	a := basePlan()
	a.Combine = "ab"
	a.Reduce = "c"
	b := basePlan()
	b.Combine = "a"
	b.Reduce = "bc"
	if Fingerprint(a) == Fingerprint(b) {
		t.Fatalf("field concatenation ambiguity: %q/%q vs %q/%q collide",
			a.Combine, a.Reduce, b.Combine, b.Reduce)
	}
}

// FuzzPlanFingerprint asserts the fingerprint function never panics
// and that structurally equal plans always fingerprint equally.
func FuzzPlanFingerprint(f *testing.F) {
	f.Add("time", int64(3600), int64(900), int64(900), "S1", "k", "m", "c", "r", "g", "p", 20)
	f.Add("count", int64(0), int64(-1), int64(1), "", "", "", "", "", "", "", 0)
	f.Add("x", int64(1<<62), int64(7), int64(13), "a;b", "3:", "|", `"`, "\x00", "é", ";", -5)
	f.Fuzz(func(t *testing.T, kind string, win, slide, pane int64,
		src, key, mp, combine, reduce, merge, part string, reducers int) {
		p := Plan{
			WindowKind: kind, WinUnits: win, SlideUnits: slide, PaneUnits: pane,
			Sources: []PlanSource{{Name: src, CacheKey: key, Map: mp}},
			Combine: combine, Reduce: reduce, Merge: merge, Partition: part,
			NumReducers: reducers,
		}
		fp1 := Fingerprint(p)
		q := Plan{
			WindowKind: kind, WinUnits: win, SlideUnits: slide, PaneUnits: pane,
			Sources: []PlanSource{{Name: src, CacheKey: key, Map: mp}},
			Combine: combine, Reduce: reduce, Merge: merge, Partition: part,
			NumReducers: reducers,
		}
		if fp2 := Fingerprint(q); fp1 != fp2 {
			t.Fatalf("equal plans fingerprint unequally: %s vs %s", fp1, fp2)
		}
		if len(fp1) != 64 {
			t.Fatalf("fingerprint %q is not 64 hex chars", fp1)
		}
	})
}

// TestOpFingerprintGeometryIndependent pins the reuse-index matching
// key's contract: window geometry and source *names* are excluded —
// two queries over the same shared stream with the same operators
// match regardless of win/slide — while everything that changes pane
// bytes (operators, CacheKey, arity, window kind) still separates.
func TestOpFingerprintGeometryIndependent(t *testing.T) {
	base := basePlan()
	op := OpFingerprint(base)
	if len(op) != 64 {
		t.Fatalf("op fingerprint %q is not a hex sha256", op)
	}
	if op == Fingerprint(base) {
		t.Fatalf("op fingerprint must be domain-separated from the plan fingerprint")
	}

	ignored := map[string]func(*Plan){
		"window size": func(p *Plan) { p.WinUnits = 7200 },
		"slide":       func(p *Plan) { p.SlideUnits = 1800 },
		"pane size":   func(p *Plan) { p.PaneUnits = 450 },
		"source name": func(p *Plan) { p.Sources[0].Name = "S2" },
	}
	for name, mutate := range ignored {
		p := basePlan()
		mutate(&p)
		if got := OpFingerprint(p); got != op {
			t.Errorf("%s changed the op fingerprint; reuse would never match across geometries", name)
		}
		if Fingerprint(p) == Fingerprint(base) {
			t.Errorf("%s must still change the full plan fingerprint", name)
		}
	}

	separated := map[string]func(*Plan){
		"window kind":      func(p *Plan) { p.WindowKind = "count" },
		"combiner dropped": func(p *Plan) { p.Combine = "-" },
		"reduce changed":   func(p *Plan) { p.Reduce = "redoop/internal/queries.maxReduce" },
		"merge added":      func(p *Plan) { p.Merge = "redoop/internal/queries.mergeTopK" },
		"partitioner":      func(p *Plan) { p.Partition = "custom" },
		"reducer arity":    func(p *Plan) { p.NumReducers = 10 },
		"source map":       func(p *Plan) { p.Sources[0].Map = "redoop/internal/queries.joinMap" },
		"cache key":        func(p *Plan) { p.Sources[0].CacheKey = "views" },
		"second source": func(p *Plan) {
			p.Sources = append(p.Sources, PlanSource{Name: "S2", Map: "m"})
		},
	}
	seen := map[string]string{op: "base"}
	for name, mutate := range separated {
		p := basePlan()
		mutate(&p)
		got := OpFingerprint(p)
		if prev, dup := seen[got]; dup {
			t.Errorf("op-fingerprint near-miss %q collides with %q", name, prev)
		}
		seen[got] = name
	}
}

// randomPairs builds n pairs of random keys and values, some empty.
func randomPairs(rng *rand.Rand, n int) []records.Pair {
	pairs := make([]records.Pair, n)
	for i := range pairs {
		k, v := make([]byte, rng.Intn(40)), make([]byte, rng.Intn(90))
		rng.Read(k)
		rng.Read(v)
		pairs[i] = records.Pair{Key: k, Value: v}
	}
	return pairs
}

// A PairsHasher, reused, gives the SHA of the window's encoded segment
// though it never builds one: for any pairs, from none to segments of
// many kilobytes.
func TestPairsHasherIsTheEncodedSegmentsSHA(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	var h PairsHasher
	for trial := 0; trial < 80; trial++ {
		pairs := randomPairs(rng, []int{0, 1, rng.Intn(20), rng.Intn(5000)}[trial%4])
		if got, want := h.SHA(pairs), SHA(colfmt.EncodePairs(pairs)); got != want {
			t.Fatalf("%d pairs: PairsHasher.SHA = %q, SHA of the segment = %q", len(pairs), got, want)
		}
	}
}

// Hashing a window allocates nothing, whatever its size: the SHA is a
// digest value, and no segment the size of the window is built.
func TestPairsHasherAllocatesOnlyTheSHA(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	small, large := randomPairs(rng, 1), randomPairs(rng, 20000)
	var h PairsHasher
	for _, pairs := range [][]records.Pair{small, large} {
		if n := testing.AllocsPerRun(20, func() { h.SHA(pairs) }); n != 0 {
			t.Fatalf("hashing %d pairs allocates %v times", len(pairs), n)
		}
	}
}
