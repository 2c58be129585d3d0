package core_test

import (
	"testing"

	"redoop/internal/core"
	"redoop/internal/queries"
	"redoop/internal/simtime"
)

// mkWCCSiteA / mkWCCSiteB construct the same query from two distinct
// call sites. This is a regression guard for a subtle fingerprint bug:
// when a query constructor holds anonymous operator closures, the
// compiler inlines the constructor and names each closure after its
// call site (caller.func1 vs caller.func2), so runtime function
// symbols — and therefore plan fingerprints — differed between
// otherwise-identical queries and cross-query reuse never matched.
// The operators are now named package-level functions (queries.WCCMap
// et al.), which these tests pin.
func mkWCCSiteA(win, slide simtime.Duration) *core.Query {
	return queries.WCCAggregation("site-a", win, slide, 4)
}

func mkWCCSiteB(win, slide simtime.Duration) *core.Query {
	return queries.WCCAggregation("site-b", win, slide, 4)
}

func opFPOf(t *testing.T, q *core.Query) string {
	t.Helper()
	eng, err := core.NewEngine(core.Config{MR: newRig(t, 2, 1), Query: q})
	if err != nil {
		t.Fatalf("engine for %s: %v", q.Name, err)
	}
	fp := eng.OpFingerprint()
	if len(fp) != 64 {
		t.Fatalf("%s: op fingerprint %q is not a hex sha256", q.Name, fp)
	}
	return fp
}

func TestOpFingerprintStableAcrossCallSites(t *testing.T) {
	win, slide := 60*simtime.Minute, 15*simtime.Minute
	a := opFPOf(t, mkWCCSiteA(win, slide))
	b := opFPOf(t, mkWCCSiteB(win, slide))
	if a != b {
		t.Fatalf("identical queries from different call sites fingerprint differently:\n%s\n%s\nare the operators anonymous closures again?", a, b)
	}
	// Geometry independence: a tumbling roll-up over the same operators
	// must share the op fingerprint (that is what lets subsumption
	// compose its panes from the finer query's).
	roll := opFPOf(t, mkWCCSiteA(30*simtime.Minute, 30*simtime.Minute))
	if roll != a {
		t.Fatalf("different window geometry changed the op fingerprint: %s vs %s", roll, a)
	}
	// The join's operator set must not collide with the aggregation's.
	j := opFPOf(t, queries.FFGJoin("join", win, slide, 4))
	if j == a {
		t.Fatalf("join and aggregation share an op fingerprint")
	}
	j2 := opFPOf(t, queries.FFGJoin("join2", win, slide, 4))
	if j2 != j {
		t.Fatalf("identical joins fingerprint differently: %s vs %s", j, j2)
	}
}
