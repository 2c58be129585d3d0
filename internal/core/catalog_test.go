package core

import "testing"

// The catalog's worked examples, as fixed sequences the model driver
// (model_test.go) replays: the model and the implementation must agree
// after every step, and the steps that show a rule must return what it
// says. opKinds documents an op's arguments; the bytes a register or an
// add stores are d%4 copies of its step's letter, 'a' for step 0.

// TestRegistryAddGetPurge is the paper's Table 1: a node's registry
// holds S1P3 as an expired reduce-output cache and S2P4 as a live
// reduce-input cache, and its purge deletes S1P3's bytes alone.
func TestRegistryAddGetPurge(t *testing.T) {
	replay(t, [4]uint8{}, []step{
		{op{"addQuery", 0, 0, 0, 0}, "0"},
		{op{"register", 0, routS1P3, 1, 3}, "cache/rout/S1P3"},
		{op{"register", 0, rinS2P4, 1, 3}, "cache/rin/S2P4"},
		{op{"get", 0, routS1P3, 0, 0}, `"bbb" true true`},
		{op{"get", 0, routS2P4, 0, 0}, `"" false false`},
		{op{"markDone", 0, routS1P3, 0, 0}, "purged notice S1P3/reduce-output"},
		{op{"entries", 0, 0, 0, 0}, "[{S1P3 reduce-output true} {S2P4 reduce-input false}] cached 3"},
		{op{"purge", 0, 0, 0, 0}, "1"},
		{op{"get", 0, routS1P3, 0, 0}, `"" false false`},
		{op{"get", 0, rinS2P4, 0, 0}, `"ccc" true true`},
	})
}

// TestRegistryMarkExpiredUnknownIsNoop: a purge notice expires only a
// signed cache. One the catalog does not know, or a row planted with no
// signature, stays as it is and nothing purges.
func TestRegistryMarkExpiredUnknownIsNoop(t *testing.T) {
	replay(t, [4]uint8{}, []step{
		addQuery,
		{op{"add", 0, rinS1P1, 0, 1}, ""},
		{op{"markDone", 0, rinS1P3, 0, 0}, "kept"},
		{op{"markDone", 0, rinS1P1, 0, 0}, "kept"},
		{op{"purge", 0, 0, 0, 0}, "0"},
		{op{"entries", 0, 0, 0, 0}, "[{S1P1 reduce-input false}] cached 1"},
	})
}

// TestCachedBytes: a node's cached bytes are its live rows', signed or
// planted; an expired row's bytes no longer count.
func TestCachedBytes(t *testing.T) {
	replay(t, [4]uint8{}, []step{
		addQuery,
		{op{"register", 0, rinS1P1, 1, 3}, ""},
		{op{"add", 0, routS1P3, 0, 2}, ""},
		{op{"entries", 0, 0, 0, 0}, "[{S1P1 reduce-input false} {S1P3 reduce-output false}] cached 5"},
		{op{"markDone", 0, rinS1P1, 0, 0}, ""},
		{op{"entries", 0, 0, 0, 0}, "[{S1P1 reduce-input true} {S1P3 reduce-output false}] cached 2"},
	})
}

func TestCacheTypeString(t *testing.T) {
	if ReduceInput.String() != "reduce-input" || ReduceOutput.String() != "reduce-output" {
		t.Error("CacheType names wrong")
	}
	if CacheType(9).String() == "" {
		t.Error("unknown type should still render")
	}
}

// TestControllerRegisterLookup is Table 2's initialization: a
// registered cache is cache-available on its node, its users' bits
// clear and every other query's set. A row planted with no signature
// resolves as none.
func TestControllerRegisterLookup(t *testing.T) {
	replay(t, [4]uint8{}, []step{
		addQuery,
		addQuery,
		{op{"register", 1, rinS1P1, 1, 7*4 + 3}, ""},
		{op{"lookup", 0, rinS1P1, 0, 0}, "cache-available on 1 at 7, 3B, done 01"},
		{op{"lookup", 0, rinS2P2, 0, 0}, "none"},
		{op{"add", 0, rinS2P4, 0, 1}, ""},
		{op{"lookup", 0, rinS2P4, 0, 0}, "none"},
	})
}

// TestControllerReRegisterPreservesOtherClaims: a cache registered again
// keeps every query's claim, and one registered on another node moves
// there and expires the copy it left (re-homing).
func TestControllerReRegisterPreservesOtherClaims(t *testing.T) {
	replay(t, [4]uint8{}, []step{
		addQuery,
		addQuery,
		{op{"register", 0, rinS1P1, 1, 2}, ""},
		{op{"register", 1, rinS1P1, 2, 5*4 + 3}, ""},
		{op{"lookup", 0, rinS1P1, 0, 0}, "cache-available on 1 at 5, 3B, done 00"},
		{op{"entries", 0, 0, 0, 0}, "[{S1P1 reduce-input true}] cached 0"},
		{op{"purge", 0, 0, 0, 0}, "1"},
		{op{"get", 0, rinS1P1, 0, 0}, `"" false false`},
		{op{"get", 1, rinS1P1, 0, 0}, `"ddd" true true`},
	})
}

// TestControllerPurgeNotification: the purge notice waits for every
// user's release; it drops the signature and expires the row, whose
// bytes stay until the node's purge.
func TestControllerPurgeNotification(t *testing.T) {
	replay(t, [4]uint8{}, []step{
		addQuery,
		addQuery,
		{op{"register", 0, routS1P1, 3, 1}, ""},
		{op{"markDone", 0, routS1P1, 0, 0}, "kept"},
		{op{"markDone", 0, routS1P1, 1, 0}, "purged notice S1P1/reduce-output"},
		{op{"get", 0, routS1P1, 0, 0}, `"c" true true`},
		{op{"purge", 0, 0, 0, 0}, "1"},
		{op{"lookup", 0, routS1P1, 0, 0}, "none"},
	})
}

// TestControllerClaimUser: a hit claims its cache for the reading query,
// so another query's release does not purge it.
func TestControllerClaimUser(t *testing.T) {
	replay(t, [4]uint8{}, []step{
		addQuery,
		addQuery,
		{op{"register", 0, rinS1P1, 1, 1}, ""},
		{op{"acquire", 0, rinS1P1, 1, 0}, "resident cache/rin/S1P1@0 t0 1B"},
		{op{"markDone", 0, rinS1P1, 0, 0}, "kept"},
		{op{"lookup", 0, rinS1P1, 0, 0}, "cache-available on 0 at 0, 1B, done 10"},
		{op{"acquire", 0, rinS2P2, 0, 0}, "unknown"},
	})
}

// TestDoneMaskGrowsPastItsInlineBits: a signature's done mask is inline
// until more queries register than it holds. Queries added after the
// caches exist each give every signature a done bit, past the inline
// capacity too; a cache such a query claims is purged only when every
// bit is done, and one registered later starts with every query's bit.
func TestDoneMaskGrowsPastItsInlineBits(t *testing.T) {
	steps := []step{
		{op{"addQuery", 0, 0, 0, 0}, "0"},
		{op{"register", 0, rinS1P1, 1, 1}, ""},
		{op{"register", 1, routS1P1, 1, 1}, ""},
	}
	for range inlineQueries + 3 {
		steps = append(steps, addQuery)
	}
	last := uint8(inlineQueries + 3)
	steps = append(steps, []step{
		{op{"lookup", 0, rinS1P1, 0, 0}, "cache-available on 0 at 0, 1B, done 01111111111111111111"},
		{op{"acquire", 0, rinS1P1, last, 0}, "resident cache/rin/S1P1@0 t0 1B"},
		{op{"markDone", 0, rinS1P1, 0, 0}, "kept"},
		{op{"markDone", 0, routS1P1, 0, 0}, "purged notice S1P1/reduce-output"},
		{op{"markDone", 0, rinS1P1, last, 0}, "purged notice S1P1/reduce-input"},
		{op{"joinGroup", 0, 0, last, 1}, "[19]"},
		{op{"register", 0, routS2P2, 0xc0, 1}, ""},
		{op{"lookup", 0, routS2P2, 0, 0}, "cache-available on 0 at 0, 1B, done 11111111111111111110"},
	}...)
	replay(t, [4]uint8{}, steps)
}

// TestPurgeSkipsReplacedRows: a purge removes the rows expired since the
// last one, and only while each is still its cache's row; a cache
// registered again on the node in between keeps what it has now, and
// one evicted before its notice is not listed.
func TestPurgeSkipsReplacedRows(t *testing.T) {
	replay(t, [4]uint8{}, []step{
		addQuery,
		{op{"register", 0, routS1P1, 1, 1}, ""},
		{op{"register", 0, routS1P3, 1, 1}, ""},
		{op{"register", 0, routS2P2, 1, 1}, ""},
		{op{"evict", 0, routS2P2, 0, 0}, "1"},
		{op{"markDone", 0, routS1P1, 0, 0}, "purged notice S1P1/reduce-output"},
		{op{"markDone", 0, routS1P1, 0, 0}, "kept"},
		{op{"markDone", 0, routS1P3, 0, 0}, ""},
		{op{"markDone", 0, routS1P3, 0, 0}, "kept"},
		{op{"markDone", 0, routS2P2, 0, 0}, "purged notice S2P2/reduce-output"},
		{op{"markDone", 0, routS2P2, 0, 0}, "kept"},
		{op{"register", 0, routS1P3, 1, 2}, ""},
		{op{"purge", 0, 0, 0, 0}, "1"},
		{op{"get", 0, routS1P3, 0, 0}, `"ll" true true`},
		{op{"entries", 0, 0, 0, 0}, "[{S1P3 reduce-output false}] cached 2"},
		{op{"purge", 0, 0, 0, 0}, "0"},
	})
}

func TestReadyString(t *testing.T) {
	for r, want := range map[Ready]string{
		NotAvailable: "not-available", HDFSAvailable: "hdfs-available", CacheAvailable: "cache-available",
	} {
		if r.String() != want {
			t.Errorf("%d.String() = %s, want %s", int(r), r.String(), want)
		}
	}
}

// TestSignaturesSorted: the catalog reports its signatures, and a node
// its rows, by pid, then type (the driver checks Signatures' order
// after every step).
func TestSignaturesSorted(t *testing.T) {
	replay(t, [4]uint8{}, []step{
		addQuery,
		{op{"register", 0, rinS2P2, 1, 0}, ""},
		{op{"register", 0, routS1P1, 1, 0}, ""},
		{op{"register", 0, rinS1P1, 1, 0}, ""},
		{op{"entries", 0, 0, 0, 0}, "[{S1P1 reduce-input false} {S1P1 reduce-output false} {S2P2 reduce-input false}] cached 0"},
	})
}

// TestPurgeNotificationReachesSiblingCopies is the regression test for
// stranded replicas: a cache stored on a second node leaves a copy on
// the first, and a purge notice that reached only the cache's current
// home used to leave that copy resident forever, invisible to any future
// notice once the signature was gone. The copy is expired when the cache
// moves, the home copy by the notice, and both purge.
func TestPurgeNotificationReachesSiblingCopies(t *testing.T) {
	replay(t, [4]uint8{}, []step{
		addQuery,
		{op{"add", 0, routS1P1, 0, 3}, ""},
		{op{"add", 1, routS1P1, 0, 3}, ""},
		{op{"register", 1, routS1P1, 1, 3}, ""},
		{op{"markDone", 0, routS1P1, 0, 0}, "purged notice S1P1/reduce-output"},
		{op{"purge", 0, 0, 0, 0}, "1"},
		{op{"purge", 1, 0, 0, 0}, "1"},
		{op{"entries", 0, 0, 0, 0}, "[] cached 0"},
		{op{"entries", 1, 0, 0, 0}, "[] cached 0"},
	})
}

// TestPurgeNoticeNamesItsCache: the notice markQueryDone returns, which
// the engine commits as an expired record and the reuse index drops its
// entries on, names the purged cache; releasing an unknown cache sends
// none.
func TestPurgeNoticeNamesItsCache(t *testing.T) {
	replay(t, [4]uint8{}, []step{
		addQuery,
		{op{"register", 0, routS1P1, 1, 0}, "cache/rout/S1P1"},
		{op{"register", 0, rinS1P3, 1, 0}, "cache/rin/S1P3"},
		{op{"markDone", 0, routS1P1, 0, 0}, "purged notice S1P1/reduce-output"},
		{op{"markDone", 0, rinS2P2, 0, 0}, "kept"},
	})
}
