package account

import (
	"math"
	"strconv"
	"strings"
	"testing"

	"redoop/internal/simtime"
)

func TestRegisterSuffixesDuplicates(t *testing.T) {
	l := New()
	a := l.Register("q", "t1")
	b := l.Register("q", "t2")
	c := l.Register("q", "t3")
	if a != "q" || b != "q#2" || c != "q#3" {
		t.Fatalf("got names %q %q %q", a, b, c)
	}
	snap := l.Snapshot()
	if len(snap) != 3 {
		t.Fatalf("snapshot has %d queries, want 3", len(snap))
	}
	if snap[1].Query != "q#2" || snap[1].Tenant != "t2" {
		t.Fatalf("second account = %+v", snap[1])
	}
}

func TestNilLedgerIsSafe(t *testing.T) {
	var l *Ledger
	if got := l.Register("q", "t"); got != "q" {
		t.Fatalf("nil Register returned %q", got)
	}
	l.AddCompute("q", PhaseMap, simtime.Second)
	l.AddIO("q", IODFSRead, 10)
	l.CacheRegistered("q", "pid", 0, 100, 0, simtime.Second)
	l.CacheHit("q", "pid", 0, 0)
	l.CacheLoaded("pid", 0, simtime.Millisecond)
	l.CacheExpired("pid", 0, 0)
	l.Advance(simtime.Time(1))
	if l.Snapshot() != nil || l.OpenResidencies() != nil {
		t.Fatal("nil ledger returned data")
	}
	if err := l.CheckConservation(0); err != nil {
		t.Fatalf("nil CheckConservation: %v", err)
	}
}

func TestByteSecondAccrual(t *testing.T) {
	l := New()
	l.Register("q", "")
	// 1000 bytes resident from T+2s to T+5s = 3000 byte·seconds.
	l.CacheRegistered("q", "p1", 0, 1000, simtime.Time(2*simtime.Second), 0)
	l.CacheExpired("p1", 0, simtime.Time(5*simtime.Second))
	if got := l.ByteSeconds("q"); math.Abs(got-3000) > 1e-9 {
		t.Fatalf("closed accrual = %v byte·s, want 3000", got)
	}
	// Open residency accrues to the watermark on read.
	l.CacheRegistered("q", "p2", 0, 500, simtime.Time(5*simtime.Second), 0)
	l.Advance(simtime.Time(9 * simtime.Second))
	if got := l.ByteSeconds("q"); math.Abs(got-(3000+2000)) > 1e-9 {
		t.Fatalf("open accrual = %v byte·s, want 5000", got)
	}
	// Peak tracks the concurrent maximum, not the sum over time.
	snap := l.Snapshot()[0]
	if snap.PeakResidentBytes != 1000 {
		t.Fatalf("peak = %d, want 1000", snap.PeakResidentBytes)
	}
	if snap.CurResidentBytes != 500 {
		t.Fatalf("cur = %d, want 500", snap.CurResidentBytes)
	}
}

func TestReRegisterClosesOldInterval(t *testing.T) {
	l := New()
	l.Register("q", "")
	l.CacheRegistered("q", "p1", 0, 1000, simtime.Time(0), 0)
	// Refresh at T+4s with new bytes: the first interval must close at
	// 4s (4000 byte·s) and the second runs 4s..10s (6000 byte·s).
	l.CacheRegistered("q", "p1", 0, 1000, simtime.Time(4*simtime.Second), 0)
	l.Advance(simtime.Time(10 * simtime.Second))
	if got := l.ByteSeconds("q"); math.Abs(got-10000) > 1e-9 {
		t.Fatalf("accrual after re-register = %v byte·s, want 10000", got)
	}
	snap := l.Snapshot()[0]
	if snap.CacheRegistered != 2 || snap.CacheExpired != 1 || snap.OpenResidencies != 1 {
		t.Fatalf("counters = %+v", snap)
	}
}

func TestDoubleExpiryDoesNotDoubleCount(t *testing.T) {
	l := New()
	l.Register("q", "")
	l.CacheRegistered("q", "p1", 0, 100, simtime.Time(0), 0)
	l.CacheExpired("p1", 0, simtime.Time(simtime.Second))
	// A chaos drop may race retirement: the second expiry of the same
	// key must be a no-op.
	l.CacheExpired("p1", 0, simtime.Time(2*simtime.Second))
	if got := l.ByteSeconds("q"); math.Abs(got-100) > 1e-9 {
		t.Fatalf("accrual = %v byte·s, want 100", got)
	}
	snap := l.Snapshot()[0]
	if snap.CacheExpired != 1 {
		t.Fatalf("expired = %d, want 1", snap.CacheExpired)
	}
	if err := l.CheckConservation(1 << 60); err != nil {
		t.Fatalf("conservation: %v", err)
	}
}

func TestSavedNetsOutLoadOnlyAfterHit(t *testing.T) {
	l := New()
	l.Register("q", "")
	l.CacheRegistered("q", "p1", 0, 100, 0, 10*simtime.Second)
	// Load without a hit (fresh build) leaves savings untouched.
	l.CacheLoaded("p1", 0, simtime.Second)
	if got := l.Snapshot()[0].SavedNS; got != 0 {
		t.Fatalf("saved after unarmed load = %d, want 0", got)
	}
	// Hit credits the stored recompute; the next load nets out.
	l.CacheHit("q", "p1", 0, simtime.Time(simtime.Second))
	l.CacheLoaded("p1", 0, 2*simtime.Second)
	if got, want := l.Snapshot()[0].SavedNS, int64(8*simtime.Second); got != want {
		t.Fatalf("saved = %d, want %d", got, want)
	}
	// Only the first load after the hit adjusts.
	l.CacheLoaded("p1", 0, simtime.Second)
	if got, want := l.Snapshot()[0].SavedNS, int64(8*simtime.Second); got != want {
		t.Fatalf("saved after second load = %d, want %d", got, want)
	}
	// A hit on an unknown (already expired) key credits nothing.
	l.CacheHit("q", "gone", 0, 0)
	if got, want := l.Snapshot()[0].SavedNS, int64(8*simtime.Second); got != want {
		t.Fatalf("saved after ghost hit = %d, want %d", got, want)
	}
}

func TestSlotComputeExcludesShuffle(t *testing.T) {
	l := New()
	l.Register("a", "")
	l.Register("b", "")
	l.AddCompute("a", PhaseMap, 3*simtime.Second)
	l.AddCompute("a", PhaseShuffle, 100*simtime.Second) // elapsed, not slot time
	l.AddCompute("a", PhaseSort, simtime.Second)
	l.AddCompute("b", PhaseReduce, 2*simtime.Second)
	l.AddCompute("b", PhaseCacheLoad, simtime.Second)
	if got, want := l.SlotComputeNS("a"), int64(4*simtime.Second); got != want {
		t.Fatalf("SlotComputeNS(a) = %d, want %d", got, want)
	}
	if got, want := l.SlotComputeNS(), int64(7*simtime.Second); got != want {
		t.Fatalf("SlotComputeNS(all) = %d, want %d", got, want)
	}
	snap := l.Snapshot()
	if snap[0].TotalComputeNS != int64(104*simtime.Second) {
		t.Fatalf("TotalComputeNS = %d", snap[0].TotalComputeNS)
	}
	if snap[0].SlotComputeNS != int64(4*simtime.Second) {
		t.Fatalf("snapshot SlotComputeNS = %d", snap[0].SlotComputeNS)
	}
}

func TestCheckConservation(t *testing.T) {
	l := New()
	l.Register("q", "")
	l.AddCompute("q", PhaseMap, 5*simtime.Second)
	if err := l.CheckConservation(int64(5 * simtime.Second)); err != nil {
		t.Fatalf("exact busy time must pass: %v", err)
	}
	if err := l.CheckConservation(int64(4 * simtime.Second)); err == nil {
		t.Fatal("attributed compute above busy time must fail")
	} else if !strings.Contains(err.Error(), "exceeds cluster busy time") {
		t.Fatalf("unexpected error: %v", err)
	}
}

func TestConservationCatchesLeakedResidency(t *testing.T) {
	l := New()
	l.Register("q", "")
	l.CacheRegistered("q", "p1", 0, 100, 0, 0)
	l.CacheRegistered("q", "p2", 1, 100, 0, 0)
	l.CacheExpired("p1", 0, simtime.Time(simtime.Second))
	if err := l.CheckConservation(1 << 60); err != nil {
		t.Fatalf("registered == expired + open must pass: %v", err)
	}
	// Simulate an accounting bug: force the counter out of sync.
	l.mu.Lock()
	l.queries["q"].registered++
	l.mu.Unlock()
	if err := l.CheckConservation(1 << 60); err == nil {
		t.Fatal("leaked residency must fail conservation")
	}
}

// A reuse must never cost more than the recompute it avoided: a hit
// followed by a larger load fails conservation, an equal load does not.
func TestConservationCatchesLoadAboveRecompute(t *testing.T) {
	l := New()
	l.Register("q", "")
	l.CacheRegistered("q", "p1", 0, 100, 0, 10)
	l.CacheHit("q", "p1", 0, 0)
	l.CacheLoaded("p1", 0, 10)
	if err := l.CheckConservation(1<<60, "q"); err != nil {
		t.Fatalf("a load equal to the recompute must pass: %v", err)
	}
	l.CacheHit("q", "p1", 0, 0)
	l.CacheLoaded("p1", 0, 50)
	if err := l.CheckConservation(1<<60, "q"); err == nil {
		t.Fatal("a load above the recompute its hit avoided must fail conservation")
	} else if !strings.Contains(err.Error(), "p1 (type 0)") {
		t.Fatalf("error does not name the cache: %v", err)
	}
}

// A hit whose load is never committed (the join's manifest finalization
// reads its tuple outputs without one) must not outlive its residency:
// the credit stands, the armed netting leaves with the expired interval,
// and a rebuilt cache's first load nets nothing. A re-registration of
// the key (refresh or re-home) keeps the netting for the load that
// follows. A pending hit with no open residency fails conservation.
func TestHitCreditClosesWithResidency(t *testing.T) {
	l := New()
	l.Register("q", "")
	for i := 0; i < 100; i++ {
		pid := "query/q/tuple" + strconv.Itoa(i)
		l.CacheRegistered("q", pid, 1, 100, 0, 10)
		l.CacheHit("q", pid, 1, 0)
		l.CacheExpired(pid, 1, 5)
	}
	if n := len(l.pending); n != 0 {
		t.Fatalf("%d hits still pending after every residency closed", n)
	}
	if got, want := l.Snapshot()[0].SavedNS, int64(100*10); got != want {
		t.Fatalf("saved = %d, want the %d credited by the hits", got, want)
	}
	l.CacheRegistered("q", "query/q/tuple0", 1, 100, 6, 10)
	l.CacheLoaded("query/q/tuple0", 1, 4)
	if got, want := l.Snapshot()[0].SavedNS, int64(100*10); got != want {
		t.Fatalf("saved = %d after a rebuilt cache's load, want %d", got, want)
	}
	l.CacheHit("q", "query/q/tuple0", 1, 7)
	l.CacheRegistered("q", "query/q/tuple0", 1, 100, 8, 10)
	l.CacheLoaded("query/q/tuple0", 1, 4)
	if got, want := l.Snapshot()[0].SavedNS, int64(101*10-4); got != want {
		t.Fatalf("saved = %d after hit, re-home and load, want %d", got, want)
	}
	if err := l.CheckConservation(1<<60, "q"); err != nil {
		t.Fatalf("closed hits must pass conservation: %v", err)
	}
	// Simulate the leak: a hit left armed on a closed residency.
	l.mu.Lock()
	l.pending[resKey{"query/q/gone", 1}] = pendingHit{"q", 10}
	l.mu.Unlock()
	if err := l.CheckConservation(1<<60, "q"); err == nil || !strings.Contains(err.Error(), "query/q/gone|1") {
		t.Fatalf("a pending hit without a residency must fail conservation naming it, got %v", err)
	}
}

func TestROIAndIO(t *testing.T) {
	l := New()
	l.Register("q", "ten")
	l.AddIO("q", IODFSRead, 100)
	l.AddIO("q", IODFSRead, 50)
	l.AddIO("q", IOShuffle, 10)
	l.CacheRegistered("q", "p1", 0, 1000, 0, 4*simtime.Second)
	l.CacheHit("q", "p1", 0, simtime.Time(simtime.Second))
	l.Advance(simtime.Time(2 * simtime.Second))
	snap := l.Snapshot()[0]
	if snap.IOBytes["dfs-read"] != 150 || snap.IOBytes["shuffle"] != 10 {
		t.Fatalf("io = %+v", snap.IOBytes)
	}
	// 1000 bytes × 2s = 2000 byte·s; saved 4e9 ns → ROI 2e6 ns per byte·s.
	if math.Abs(snap.CacheByteSeconds-2000) > 1e-9 {
		t.Fatalf("byte·s = %v", snap.CacheByteSeconds)
	}
	if want := float64(4*simtime.Second) / 2000; math.Abs(snap.CacheROI-want) > 1e-6 {
		t.Fatalf("ROI = %v, want %v", snap.CacheROI, want)
	}
	if snap.Tenant != "ten" {
		t.Fatalf("tenant = %q", snap.Tenant)
	}
}

func TestOpenResidenciesSorted(t *testing.T) {
	l := New()
	l.Register("q", "")
	l.CacheRegistered("q", "b", 0, 1, 0, 0)
	l.CacheRegistered("q", "a", 1, 2, 0, 0)
	rs := l.OpenResidencies()
	if len(rs) != 2 || rs[0].PID != "a" || rs[1].PID != "b" {
		t.Fatalf("residencies = %+v", rs)
	}
}

// TestSteadyFoldPathsDoNotAllocate: the calls the engine's ledger fold
// makes on an open residency — a hit and the load that nets it, an
// expiry, the replacement policy's feature read and the health
// sample's byte·seconds — build their keys on the stack and allocate
// nothing.
func TestSteadyFoldPathsDoNotAllocate(t *testing.T) {
	const runs = 100
	l := New()
	q := l.Register("q", "")
	// Each expiry closes a residency of its own, so every one is open
	// when it closes; AllocsPerRun makes one extra, warm-up call. The
	// keys are as long as the engine's, past the 32 bytes a string
	// conversion may borrow from the stack.
	pids := make([]string, runs+1)
	for i := range pids {
		pids[i] = "query/q1/S1/u360000000000/P" + strconv.Itoa(i) + "/r0"
		l.CacheRegistered(q, pids[i], 1, 100, simtime.Time(i), simtime.Second)
	}
	hot, at, next := pids[0], simtime.Time(runs+1), 0
	for _, tc := range []struct {
		name string
		f    func()
	}{
		{"CacheHit+CacheLoaded", func() {
			l.CacheHit(q, hot, 1, at)
			l.CacheLoaded(hot, 1, simtime.Millisecond)
		}},
		{"Residency", func() { l.Residency(hot, 1) }},
		{"ByteSeconds", func() { l.ByteSeconds(q) }},
		{"CacheExpired", func() { l.CacheExpired(pids[next], 1, at); next++ }},
	} {
		if n := testing.AllocsPerRun(runs, tc.f); n != 0 {
			t.Errorf("%s allocates %v times per call", tc.name, n)
		}
	}
	if open := l.OpenResidencies(); next != len(pids) || len(open) != 0 {
		t.Fatalf("expired %d of %d residencies, %d still open", next, len(pids), len(open))
	}
}

// Open residencies sum in key order whatever order they opened and
// closed in, two owners interleaved and keys re-registered across them,
// so byte·seconds and the ROI read off them are the same float to the
// bit as a sum over the sorted open keys.
func TestByteSecondsSumInKeyOrder(t *testing.T) {
	l := New()
	queries := []string{"q", "r"}
	for _, q := range queries {
		l.Register(q, "")
	}
	// A fixed pseudo-random schedule: registrations of 40 keys with
	// bytes and instants that make the sum order-sensitive, expiries of
	// every third, and watermark moves.
	x := uint64(1)
	next := func(n uint64) uint64 { x = x*6364136223846793005 + 1442695040888963407; return (x >> 33) % n }
	for i := 0; i < 400; i++ {
		at := simtime.Time(int64(i)*int64(simtime.Millisecond) + int64(next(999)))
		pid := "p" + strconv.Itoa(int(next(40)))
		switch next(3) {
		case 0:
			l.CacheExpired(pid, 1, at)
		default:
			l.CacheRegistered(queries[next(2)], pid, 1+int(next(2)), int64(1+next(1<<20)), at, simtime.Duration(next(1e6)))
		}
		if i%50 == 0 {
			l.CacheHit("q", pid, 1, at)
			l.Advance(at)
		}
	}
	l.Advance(simtime.Time(10 * simtime.Second))
	snap := l.Snapshot()
	for i, q := range queries {
		want := l.queries[q].byteSeconds
		for _, r := range l.OpenResidencies() { // sorted by key
			if r.Query == q && l.watermark.After(r.Since) {
				want += float64(r.Bytes) * l.watermark.Sub(r.Since).Seconds()
			}
		}
		if got := l.ByteSeconds(q); math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("%s: ByteSeconds = %v, want the sorted-key sum %v", q, got, want)
		}
		wantROI := 0.0
		if want > 0 {
			wantROI = float64(int64(l.queries[q].saved)) / want
		}
		if got := snap[i].CacheROI; snap[i].Query != q || math.Float64bits(got) != math.Float64bits(wantROI) {
			t.Errorf("%s: CacheROI = %v, want %v", q, got, wantROI)
		}
	}
}
