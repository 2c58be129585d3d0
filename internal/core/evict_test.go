package core

import (
	"strings"
	"testing"

	"redoop/internal/account"
)

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
			ranked := rankVictims(tc.cands)
			var got []string
			for _, c := range ranked {
				got = append(got, c.PID)
			}
			if strings.Join(got, ",") != strings.Join(tc.order, ",") {
				t.Fatalf("rank = %v, want %v", got, tc.order)
			}
			// Ranking is a pure function: permuting the input cannot
			// change the order.
			rev := make([]EvictCandidate, len(tc.cands))
			for i, c := range tc.cands {
				rev[len(rev)-1-i] = c
			}
			ranked2 := rankVictims(rev)
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
	value := func(c EvictCandidate) float64 { return c.score() }
	ranked := rankVictims(cands)
	var costBased float64
	for _, c := range ranked[2:] { // survivors after evicting two
		costBased += value(c)
	}
	var byAge float64 // evict the two oldest (ReadyAt ascending): p0, p1
	for _, c := range cands[2:] {
		byAge += value(c)
	}
	if costBased <= byAge {
		t.Fatalf("cost-based survivors worth %v, age-based worth %v — policy must win on this trace", costBased, byAge)
	}
	if ranked[0].PID != "p2" || ranked[1].PID != "p0" {
		t.Fatalf("victims = %s,%s, want the two low-density entries p2,p0", ranked[0].PID, ranked[1].PID)
	}
}

// TestResidencyJoinsLedger pins the candidate↔ledger join: an open
// residency's recompute cost and hit count reach the ranking, and a
// missing residency or ledger yields the zero vector.
func TestResidencyJoinsLedger(t *testing.T) {
	l := account.New()
	l.Register("q", "")
	l.CacheRegistered("q", "S1P0#0", int(ReduceInput), 500, 10, 7000)
	l.CacheHit("q", "S1P0#0", int(ReduceInput), 20)
	l.CacheHit("q", "S1P0#0", int(ReduceInput), 30)

	if rc, hits := residencyOf(l)("S1P0#0", ReduceInput); rc != 7000 || hits != 2 {
		t.Fatalf("features = recompute %d hits %d, want 7000/2", rc, hits)
	}
	if rc, hits := residencyOf(l)("absent", ReduceInput); rc != 0 || hits != 0 {
		t.Fatalf("absent residency should leave zero features, got %d/%d", rc, hits)
	}
	if rc, hits := residencyOf(nil)("x", ReduceInput); rc != 0 || hits != 0 {
		t.Fatalf("nil ledger must be a zero join, got %d/%d", rc, hits)
	}
}
