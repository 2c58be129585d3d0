package account

import (
	"slices"
	"strings"
	"testing"
)

// rank orders cands by the eviction policy, best victim first.
func rank(cands []EvictCandidate) []EvictCandidate {
	out := slices.Clone(cands)
	slices.SortFunc(out, CompareVictims)
	return out
}

// TestRankVictimsPolicy is the replacement-policy table test: crafted
// feature vectors where benefit-density ranking provably keeps
// higher-ROI entries than any policy blind to cost — a large cache
// that is cheap to rebuild evicts before a small one that is expensive,
// and a cold cache evicts before a hot one of identical shape.
func TestRankVictimsPolicy(t *testing.T) {
	cases := []struct {
		name  string
		cands []EvictCandidate
		order []string // expected pid order, best victim first
	}{
		{
			// Same bytes and recompute cost; the residency that was
			// never hit goes first.
			name: "cold before hot",
			cands: []EvictCandidate{
				{PID: "hot", Bytes: 1000, RecomputeNS: 5000, Hits: 5, ReadyAt: 10},
				{PID: "cold", Bytes: 1000, RecomputeNS: 5000, Hits: 0, ReadyAt: 10},
			},
			order: []string{"cold", "hot"},
		},
		{
			// A 10x larger cache whose rebuild costs the same saves 10x
			// less per byte held: large-cheap evicts before
			// small-expensive even though pure expiry (or LRU on
			// ReadyAt) would pick the small one first.
			name: "large-cheap before small-expensive",
			cands: []EvictCandidate{
				{PID: "small-expensive", Bytes: 100, RecomputeNS: 8000, ReadyAt: 5},
				{PID: "large-cheap", Bytes: 1000, RecomputeNS: 8000, ReadyAt: 50},
			},
			order: []string{"large-cheap", "small-expensive"},
		},
		{
			// Equal density: age breaks the tie (older ReadyAt first),
			// then pid, so the sequence is total and replayable.
			name: "ties break on age then pid",
			cands: []EvictCandidate{
				{PID: "b", Bytes: 100, RecomputeNS: 100, ReadyAt: 20},
				{PID: "a", Bytes: 100, RecomputeNS: 100, ReadyAt: 20},
				{PID: "old", Bytes: 200, RecomputeNS: 200, ReadyAt: 10},
			},
			order: []string{"old", "a", "b"},
		},
		{
			// Zero-byte entries must not divide by zero; zero features
			// (no ledger attached) score 0 and go first.
			name: "zero features first",
			cands: []EvictCandidate{
				{PID: "scored", Bytes: 10, RecomputeNS: 100, Hits: 1, ReadyAt: 1},
				{PID: "featureless", Bytes: 0, ReadyAt: 9},
			},
			order: []string{"featureless", "scored"},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ranked := rank(tc.cands)
			var got []string
			for _, c := range ranked {
				got = append(got, c.PID)
			}
			if strings.Join(got, ",") != strings.Join(tc.order, ",") {
				t.Fatalf("rank = %v, want %v", got, tc.order)
			}
			// Ranking is a pure function: permuting the input cannot
			// change the order.
			rev := slices.Clone(tc.cands)
			slices.Reverse(rev)
			ranked2 := rank(rev)
			for i := range ranked {
				if ranked[i].PID != ranked2[i].PID {
					t.Fatalf("rank depends on input order: %v vs %v at %d", ranked[i].PID, ranked2[i].PID, i)
				}
			}
		})
	}
}

// TestRankVictimsBeatsExpiryROI quantifies the policy claim: over a
// trace where disk pressure forces half the entries out, cost-based
// ranking retains strictly more future recompute value (Σ density of
// survivors) than evicting by age alone — the pure-expiry stand-in.
func TestRankVictimsBeatsExpiryROI(t *testing.T) {
	cands := []EvictCandidate{
		{PID: "p0", Bytes: 4000, RecomputeNS: 1000, Hits: 0, ReadyAt: 1}, // old, huge, worthless
		{PID: "p1", Bytes: 200, RecomputeNS: 9000, Hits: 4, ReadyAt: 2},  // old but precious
		{PID: "p2", Bytes: 3000, RecomputeNS: 500, Hits: 0, ReadyAt: 3},
		{PID: "p3", Bytes: 100, RecomputeNS: 7000, Hits: 2, ReadyAt: 4},
	}
	ranked := rank(cands)
	var costBased float64
	for _, c := range ranked[2:] { // survivors after evicting two
		costBased += c.density()
	}
	var byAge float64 // evict the two oldest (ReadyAt ascending): p0, p1
	for _, c := range cands[2:] {
		byAge += c.density()
	}
	if costBased <= byAge {
		t.Fatalf("cost-based survivors worth %v, age-based worth %v — policy must win on this trace", costBased, byAge)
	}
	if ranked[0].PID != "p2" || ranked[1].PID != "p0" {
		t.Fatalf("victims = %s,%s, want the two low-density entries p2,p0", ranked[0].PID, ranked[1].PID)
	}
}

// TestResidencyFeatures pins the features the engine's tier reads for a
// candidate: an open residency's stored recompute cost and its hit
// count since registration, and the zero vector for a pid with no open
// residency or without a ledger.
func TestResidencyFeatures(t *testing.T) {
	l := New()
	l.Register("q", "")
	l.CacheRegistered("q", "S1P0#0", 1, 500, 10, 7000)
	l.CacheHit("q", "S1P0#0", 1, 20)
	l.CacheHit("q", "S1P0#0", 1, 30)

	if f, ok := l.Residency("S1P0#0", 1); !ok || f != (ResidencyFeatures{RecomputeNS: 7000, Hits: 2}) {
		t.Fatalf("features = %+v (open %v), want 7000/2", f, ok)
	}
	if f, ok := l.Residency("absent", 1); ok || f != (ResidencyFeatures{}) {
		t.Fatalf("absent residency should leave zero features, got %+v (open %v)", f, ok)
	}
	var nl *Ledger
	if f, ok := nl.Residency("x", 1); ok || f != (ResidencyFeatures{}) {
		t.Fatalf("nil ledger must be a zero join, got %+v (open %v)", f, ok)
	}
}
