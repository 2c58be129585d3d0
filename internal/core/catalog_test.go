package core

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"redoop/internal/window"
)

// The catalog's and the status matrix's worked examples, as fixed
// sequences the model driver (model_test.go) replays: the model and the
// implementation must agree after every step, and the steps that show a
// rule must return what it says. opKinds documents an op's arguments;
// the bytes a register or an add stores are d%4 copies of its step's
// letter, 'a' for step 0.

// fig4 is the paper's Figure 4: win = 3 panes and slide = 2 on both
// sources (30 and 20 minutes over 10-minute panes); fig4One is its
// one-source query.
var fig4, fig4One = [4]uint8{0, 1, 1, 5}, [4]uint8{0, 0, 1, 1}

// TestRegistryAddGetPurge is the paper's Table 1: a node's registry
// holds S1P3 as an expired reduce-output cache and S2P4 as a live
// reduce-input cache, and its purge deletes S1P3's bytes alone.
func TestRegistryAddGetPurge(t *testing.T) {
	replay(t, [4]uint8{}, `addQuery = 0; register 0 routS1P3 1 3 = cache/rout/S1P3; register 0 rinS2P4 1 3 = cache/rin/S2P4;
		get 0 routS1P3 = "bbb" true true; get 0 routS2P4 = "" false false; markDone 0 routS1P3 = purged notice S1P3/reduce-output;
		entries = [{S1P3 reduce-output true} {S2P4 reduce-input false}] cached 3; purge = 1;
		get 0 routS1P3 = "" false false; get 0 rinS2P4 = "ccc" true true`)
}

// TestRegistryMarkExpiredUnknownIsNoop: a purge notice expires only a
// signed cache. One the catalog does not know, or a row planted with no
// signature, stays as it is and nothing purges.
func TestRegistryMarkExpiredUnknownIsNoop(t *testing.T) {
	replay(t, [4]uint8{}, `addQuery; add 0 rinS1P1 0 1; markDone 0 rinS1P3 = kept; markDone 0 rinS1P1 = kept; purge = 0;
		entries = [{S1P1 reduce-input false}] cached 1`)
}

// TestCachedBytes: a node's cached bytes are its live rows', signed or
// planted; an expired row's bytes no longer count.
func TestCachedBytes(t *testing.T) {
	replay(t, [4]uint8{}, `addQuery; register 0 rinS1P1 1 3; add 0 routS1P3 0 2;
		entries = [{S1P1 reduce-input false} {S1P3 reduce-output false}] cached 5; markDone 0 rinS1P1;
		entries = [{S1P1 reduce-input true} {S1P3 reduce-output false}] cached 2`)
}

func TestCacheTypeString(t *testing.T) {
	if ReduceInput.String() != "reduce-input" || ReduceOutput.String() != "reduce-output" || CacheType(9).String() == "" {
		t.Error("CacheType names wrong")
	}
}

// TestControllerRegisterLookup is Table 2's initialization: a
// registered cache is cache-available on its node, its users' bits
// clear and every other query's set. A row planted with no signature
// resolves as none.
func TestControllerRegisterLookup(t *testing.T) {
	replay(t, [4]uint8{}, `addQuery; addQuery; register 1 rinS1P1 1 31; lookup 0 rinS1P1 = cache-available on 1 at 7, 3B, done 01;
		lookup 0 rinS2P2 = none; add 0 rinS2P4 0 1; lookup 0 rinS2P4 = none`)
}

// TestControllerReRegisterPreservesOtherClaims: a cache registered again
// keeps every query's claim, and one registered on another node moves
// there and expires the copy it left (re-homing).
func TestControllerReRegisterPreservesOtherClaims(t *testing.T) {
	replay(t, [4]uint8{}, `addQuery; addQuery; register 0 rinS1P1 1 2; register 1 rinS1P1 2 23;
		lookup 0 rinS1P1 = cache-available on 1 at 5, 3B, done 00; entries = [{S1P1 reduce-input true}] cached 0;
		purge = 1; get 0 rinS1P1 = "" false false; get 1 rinS1P1 = "ddd" true true`)
}

// TestControllerPurgeNotification: the purge notice waits for every
// user's release; it drops the signature and expires the row, whose
// bytes stay until the node's purge.
func TestControllerPurgeNotification(t *testing.T) {
	replay(t, [4]uint8{}, `addQuery; addQuery; register 0 routS1P1 3 1; markDone 0 routS1P1 = kept;
		markDone 0 routS1P1 1 = purged notice S1P1/reduce-output; get 0 routS1P1 = "c" true true; purge = 1; lookup 0 routS1P1 = none`)
}

// TestControllerClaimUser: a hit claims its cache for the reading query,
// so another query's release does not purge it.
func TestControllerClaimUser(t *testing.T) {
	replay(t, [4]uint8{}, `addQuery; addQuery; register 0 rinS1P1 1 1; acquire 0 rinS1P1 1 = resident cache/rin/S1P1@0 t0 1B;
		markDone 0 rinS1P1 = kept; lookup 0 rinS1P1 = cache-available on 0 at 0, 1B, done 10; acquire 0 rinS2P2 = unknown`)
}

// TestDoneMaskGrowsPastItsInlineBits: a signature's done mask is inline
// until more queries register than it holds. Queries added after the
// caches exist each give every signature a done bit, past the inline
// capacity too; a cache such a query claims is purged only when every
// bit is done, and one registered later starts with every query's bit.
func TestDoneMaskGrowsPastItsInlineBits(t *testing.T) {
	last := inlineQueries + 3
	replay(t, [4]uint8{}, `addQuery = 0; register 0 rinS1P1 1 1; register 1 routS1P1 1 1;`+strings.Repeat("addQuery;", last)+
		fmt.Sprintf(`lookup 0 rinS1P1 = cache-available on 0 at 0, 1B, done 0%s; acquire 0 rinS1P1 %d = resident cache/rin/S1P1@0 t0 1B;
		markDone 0 rinS1P1 = kept; markDone 0 routS1P1 = purged notice S1P1/reduce-output;
		markDone 0 rinS1P1 %d = purged notice S1P1/reduce-input; joinGroup 0 0 %d 1 = [%d]; register 0 routS2P2 192 1;
		lookup 0 routS2P2 = cache-available on 0 at 0, 1B, done %s0`, strings.Repeat("1", last), last, last, last, last, strings.Repeat("1", last)))
}

// TestPurgeSkipsReplacedRows: a purge removes the rows expired since the
// last one, and only while each is still its cache's row; a cache
// registered again on the node in between keeps what it has now, and
// one evicted before its notice is not listed.
func TestPurgeSkipsReplacedRows(t *testing.T) {
	replay(t, [4]uint8{}, `addQuery; register 0 routS1P1 1 1; register 0 routS1P3 1 1; register 0 routS2P2 1 1; evict 0 routS2P2 = 1;
		markDone 0 routS1P1 = purged notice S1P1/reduce-output; markDone 0 routS1P1 = kept; markDone 0 routS1P3;
		markDone 0 routS1P3 = kept; markDone 0 routS2P2 = purged notice S2P2/reduce-output; markDone 0 routS2P2 = kept;
		register 0 routS1P3 1 2; purge = 1; get 0 routS1P3 = "ll" true true; entries = [{S1P3 reduce-output false}] cached 2; purge = 0`)
}

func TestReadyString(t *testing.T) {
	if s := fmt.Sprint(NotAvailable, HDFSAvailable, CacheAvailable); s != "not-available hdfs-available cache-available" {
		t.Errorf("Ready names %q", s)
	}
}

// TestSignaturesSorted: the catalog reports its signatures, and a node
// its rows, by pid, then type (the driver checks Signatures' order
// after every step).
func TestSignaturesSorted(t *testing.T) {
	replay(t, [4]uint8{}, `addQuery; register 0 rinS2P2 1; register 0 routS1P1 1; register 0 rinS1P1 1;
		entries = [{S1P1 reduce-input false} {S1P1 reduce-output false} {S2P2 reduce-input false}] cached 0`)
}

// TestPurgeNotificationReachesSiblingCopies is the regression test for
// stranded replicas: a cache stored on a second node leaves a copy on
// the first, and a purge notice that reached only the cache's current
// home used to leave that copy resident forever, invisible to any future
// notice once the signature was gone. The copy is expired when the cache
// moves, the home copy by the notice, and both purge.
func TestPurgeNotificationReachesSiblingCopies(t *testing.T) {
	replay(t, [4]uint8{}, `addQuery; add 0 routS1P1 0 3; add 1 routS1P1 0 3; register 1 routS1P1 1 3;
		markDone 0 routS1P1 = purged notice S1P1/reduce-output; purge = 1; purge 1 = 1; entries = [] cached 0; entries 1 = [] cached 0`)
}

// TestPurgeNoticeNamesItsCache: the notice markQueryDone returns, which
// the engine commits as an expired record and the reuse index drops its
// entries on, names the purged cache; releasing an unknown cache sends
// none.
func TestPurgeNoticeNamesItsCache(t *testing.T) {
	replay(t, [4]uint8{}, `addQuery; register 0 routS1P1 1 = cache/rout/S1P1; register 0 rinS1P3 1 = cache/rin/S1P3;
		markDone 0 routS1P1 = purged notice S1P1/reduce-output; markDone 0 rinS2P2 = kept`)
}

// updates marks the pane pairs of panes 0 to hi1 and 0 to hi2 done.
func updates(hi1, hi2 int) string {
	var b strings.Builder
	for p1 := range hi1 + 1 {
		for p2 := range hi2 + 1 {
			fmt.Fprintf(&b, "update %d %d;", p1, p2)
		}
	}
	return b.String()
}

func TestNewStatusMatrixValidation(t *testing.T) {
	if _, err := NewStatusMatrix(nil); err == nil {
		t.Error("zero dims should be rejected")
	}
	if _, err := NewStatusMatrix(make([]window.Frame, 2)); err == nil {
		t.Error("invalid spec should be rejected")
	}
}

// TestInitializationSizedToWindow: a fresh matrix spans each source's
// first window of panes, all entries zero (the driver compares its
// ranges with the model's).
func TestInitializationSizedToWindow(t *testing.T) { replay(t, fig4, `done = false`) }

func TestUpdateAndDone(t *testing.T) {
	replay(t, fig4, `update 3 2 = true; done 3 2 = true; done 2 3 = false; update 1 0 0 7 = refused; done 1 0 0 7 = refused`)
}

func TestOneDimensionalMatrix(t *testing.T) {
	replay(t, fig4One, `update 1 = true; exhausted 0 1 = true; exhausted = false`)
}

// Figure 4's expiration example: the lifespan of pane S1P1 (0-based)
// spans partner panes 0..2; S1P1 is exhausted only when all of
// (1,0),(1,1),(1,2) are done.
func TestExhaustedFollowsLifespan(t *testing.T) {
	replay(t, fig4, `update 1 0; update 1 1; exhausted 0 1 = false; update 1 2; exhausted 0 1 = true`)
}

// TestExpiredRequiresWindowDeparture: an exhausted pane expires only
// once it leaves the window. Panes 0 and 1 are exhausted but inside
// window 0, [0,2], so the shift at recurrence 0 retires nothing; window
// 1 is [2,4], and they go.
func TestExpiredRequiresWindowDeparture(t *testing.T) {
	replay(t, fig4, updates(1, 2)+`shift 0 = [[] []]; shift 1 = [[0 1] []]`)
}

// Figure 4(b)→(c): the shift retires the leading fully-done panes and
// admits fresh ones, but an entry like (S1P5, S2P5) whose panes have
// not exhausted their lifespans survives. Shifted-out coordinates read
// as done.
func TestShiftPaperFigure4(t *testing.T) {
	replay(t, fig4, updates(4, 4)+`update 5 5; shift 2 = [[0 1 2 3] [0 1 2 3]]; done = true; done 5 5 = true; done 5 6 = false`)
}

// An update below a shifted base (a late task completion for a retired
// pane) is refused, in either dimension, and leaves the matrix as it
// was: the caller degrades, the process does not die.
func TestUpdateBelowShiftedBaseIsAnError(t *testing.T) {
	replay(t, fig4, updates(4, 4)+`shift 2 = [[0 1 2 3] [0 1 2 3]]; update 3 4 = refused; update 4 3 = refused;
		update = refused; update 3 9 = refused; update 4 6 = true`)
}

func TestShiftDoesNotRetireUnfinishedLeader(t *testing.T) {
	replay(t, fig4, `update; update 0 1; shift 5 = [[] []]`)
}

// BenchmarkStatusMatrix measures the cache status matrix's update,
// lifespan-exhaustion and shift operations at a realistic window size.
func BenchmarkStatusMatrix(b *testing.B) {
	f := window.FrameOf(window.NewTimeSpec(time.Hour, 6*time.Minute)) // 10 panes/window
	for i := 0; i < b.N; i++ {
		m, err := NewStatusMatrix([]window.Frame{f, f})
		if err != nil {
			b.Fatal(err)
		}
		for r := 0; r < 10; r++ {
			lo, hi := f.WindowRange(r)
			for p1 := lo; p1 <= hi; p1++ {
				for p2 := lo; p2 <= hi; p2++ {
					if done, _ := m.Done(p1, p2); !done {
						m.Update(p1, p2)
					}
				}
			}
			m.Shift(r + 1)
		}
	}
}
