package oracle_test

import (
	"encoding/json"
	"errors"
	"strings"
	"testing"

	"redoop/internal/cluster"
	"redoop/internal/colfmt"
	"redoop/internal/core"
	"redoop/internal/dfs"
	"redoop/internal/iocost"
	"redoop/internal/mapreduce"
	"redoop/internal/oracle"
	"redoop/internal/queries"
	"redoop/internal/records"
	"redoop/internal/simtime"
	"redoop/internal/workload"
)

const (
	testWin   = 60 * simtime.Minute
	testSlide = 15 * simtime.Minute // pane = 15 min, 4 panes/window, 3 shared
)

// newMR builds an isolated runtime for one test.
func newMR(t *testing.T, workers int, seed int64) *mapreduce.Engine {
	t.Helper()
	ids := make([]int, workers)
	for i := range ids {
		ids[i] = i
	}
	cl, err := cluster.New(cluster.Config{Workers: workers, MapSlots: 4, ReduceSlots: 2})
	if err != nil {
		t.Fatal(err)
	}
	d, err := dfs.New(dfs.Config{BlockSize: 8 << 10, Replication: 2, Nodes: ids, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	mr, err := mapreduce.New(cl, d, iocost.Default())
	if err != nil {
		t.Fatal(err)
	}
	return mr
}

// run drives one engine window by window with its oracle attached.
type run struct {
	t       *testing.T
	mr      *mapreduce.Engine
	eng     *core.Engine
	ora     *oracle.Oracle
	q       *core.Query
	gen     func(start, end int64, n int) []records.Record
	perPane int
	fed     int64
	lastRes *core.RecurrenceResult
}

// startAgg builds a WCC aggregation engine (optionally on a shared
// controller with a rin-sharing CacheKey) plus its oracle.
func startAgg(t *testing.T, mr *mapreduce.Engine, ctrl *core.Controller, name, cacheKey string, tune ...func(*core.Query)) *run {
	t.Helper()
	q := queries.WCCAggregation(name, testWin, testSlide, 4)
	q.Sources[0].CacheKey = cacheKey
	for _, f := range tune {
		f(q)
	}
	eng, err := core.NewEngine(core.Config{MR: mr, Query: q, Controller: ctrl})
	if err != nil {
		t.Fatalf("engine %s: %v", name, err)
	}
	ora, err := oracle.New(eng)
	if err != nil {
		t.Fatalf("oracle %s: %v", name, err)
	}
	wcc := workload.DefaultWCC(11)
	return &run{
		t: t, mr: mr, eng: eng, ora: ora, q: q, perPane: 400,
		gen: func(start, end int64, n int) []records.Record {
			return workload.WCC(wcc, start, end, n)
		},
	}
}

// feedTo delivers pane-sized batches up to the given unit bound
// through the oracle's tee.
func (r *run) feedTo(unit int64) {
	r.t.Helper()
	ingest := r.ora.WrapIngest(r.eng.Ingest)
	pane := int64(testSlide)
	for ; r.fed < unit; r.fed += pane {
		if err := ingest(0, r.gen(r.fed, r.fed+pane, r.perPane)); err != nil {
			r.t.Fatalf("ingest at unit %d: %v", r.fed, err)
		}
	}
}

// window feeds and runs recurrence i, returning its oracle verdict.
func (r *run) window(i int) oracle.Verdict {
	r.t.Helper()
	r.feedTo(r.eng.Frames()[0].WindowClose(i))
	res, err := r.eng.RunNext()
	if err != nil {
		r.t.Fatalf("window %d: %v", i+1, err)
	}
	r.lastRes = res
	return r.ora.Check(res)
}

func requireOK(t *testing.T, v oracle.Verdict) {
	t.Helper()
	if !v.OK() {
		t.Fatalf("window %d failed oracle: match=%v diff=%+v violations=%v",
			v.Recurrence+1, v.Match, v.FirstDiff, v.Violations)
	}
}

// TestOracleCleanRun: a fault-free run verifies every window with
// non-trivial output.
func TestOracleCleanRun(t *testing.T) {
	r := startAgg(t, newMR(t, 4, 7), nil, "q-clean", "")
	for i := 0; i < 5; i++ {
		v := r.window(i)
		requireOK(t, v)
		if v.EnginePairs == 0 {
			t.Fatalf("window %d verified an empty output — workload misconfigured", i+1)
		}
	}
}

// TestOracleCatchesBadRecovery is the oracle's self-validation: a
// cache-loss fault is survived by a correct engine, and a recovery that
// leaves well-formed but wrong bytes behind — planted here through the
// public registry, exactly where a buggy rebuild would put them — must
// be flagged on the next window that reuses the pane.
func TestOracleCatchesBadRecovery(t *testing.T) {
	good := startAgg(t, newMR(t, 4, 7), nil, "q-good", "")
	requireOK(t, good.window(0))
	for _, id := range good.mr.Cluster.NodeIDs() {
		good.mr.Cluster.DropLocal(id, "cache/")
	}
	requireOK(t, good.window(1))
	if good.lastRes.CacheRecoveries == 0 {
		t.Fatalf("control run rebuilt nothing — the drop did not exercise recovery")
	}

	bad := startAgg(t, newMR(t, 4, 7), nil, "q-bad", "")
	requireOK(t, bad.window(0))
	// The first window's newest pane stays in the second: replace one of
	// its output partitions with half of its pairs, re-encoded.
	ctrl := bad.eng.Controller()
	planted := false
	for part := 0; part < bad.q.NumReducers && !planted; part++ {
		pid := bad.q.ReduceOutputPanePID(bad.lastRes.WindowHi, part)
		sig, ok := ctrl.Lookup(pid, core.ReduceOutput)
		if !ok || sig.Bytes == 0 {
			continue
		}
		reg := ctrl.Registry(sig.NID)
		data, _ := reg.Get(pid, core.ReduceOutput)
		pairs, err := colfmt.DecodePairs(data)
		if err != nil || len(pairs) < 2 {
			t.Fatalf("cache %s: %d pairs, err %v", pid, len(pairs), err)
		}
		reg.Add(pid, core.ReduceOutput, colfmt.EncodePairs(pairs[:len(pairs)/2]))
		planted = true
	}
	if !planted {
		t.Fatalf("no non-empty pane output to corrupt")
	}
	bv := bad.window(1)
	if bv.OK() || bv.Match {
		t.Fatalf("oracle passed a window served from a wrong cache: %+v", bv)
	}
}

// TestOracleFlagsIllegalTransition: a silent downgrade to NotAvailable
// (anything other than the §5 rollback 2→1), reported to the oracle's
// transition hook, must surface in the next verdict.
func TestOracleFlagsIllegalTransition(t *testing.T) {
	r := startAgg(t, newMR(t, 4, 7), nil, "q-trans", "")
	requireOK(t, r.window(0))
	ctrl := r.eng.Controller()
	var downgraded bool
	for _, sig := range ctrl.Signatures() {
		if sig.Ready == core.CacheAvailable {
			r.ora.Transition(sig.PID, sig.Type, sig.Ready, core.NotAvailable)
			downgraded = true
			break
		}
	}
	if !downgraded {
		t.Fatalf("no CacheAvailable signature to downgrade")
	}
	v := r.window(1)
	found := false
	for _, viol := range v.Violations {
		if strings.Contains(viol, "illegal ready transition") {
			found = true
		}
	}
	if !found {
		t.Fatalf("illegal 2→0 transition not flagged; violations: %v", v.Violations)
	}
}

// TestOracleFlagsPhantomCache: a CacheAvailable signature whose bytes
// vanish after the recurrence (before anything rolls it back) is a
// materialization violation for the just-served window.
func TestOracleFlagsPhantomCache(t *testing.T) {
	r := startAgg(t, newMR(t, 4, 7), nil, "q-phantom", "")
	requireOK(t, r.window(0))
	r.feedTo(r.eng.Frames()[0].WindowClose(1))
	res, err := r.eng.RunNext()
	if err != nil {
		t.Fatalf("window 2: %v", err)
	}
	// Delete the bytes of a surviving pane's rout between RunNext and
	// Check — Check must see the phantom.
	pid := r.q.ReduceOutputPanePID(res.WindowHi, 0)
	sig, ok := r.eng.Controller().Lookup(pid, core.ReduceOutput)
	if !ok {
		t.Fatalf("no signature for %s", pid)
	}
	r.mr.Cluster.Node(sig.NID).DeleteLocal("cache/rout/" + pid)
	v := r.ora.Check(res)
	found := false
	for _, viol := range v.Violations {
		if strings.Contains(viol, "bytes are not resident") {
			found = true
		}
	}
	if !found {
		t.Fatalf("phantom cache not flagged; violations: %v", v.Violations)
	}
}

// TestOracleFlagsEachInvariant plants one violation of each remaining
// structural invariant between a recurrence and its check, on a plan
// that packs panes into shared files, and the verdict must name it.
func TestOracleFlagsEachInvariant(t *testing.T) {
	for _, c := range []struct {
		want  string
		plant func(r *run, res *core.RecurrenceResult) *core.RecurrenceResult
	}{
		{"coverage: window has 4 panes but engine accounted 3", func(_ *run, res *core.RecurrenceResult) *core.RecurrenceResult {
			bad := *res
			bad.NewPanes--
			return &bad
		}},
		{"has no controller signature (orphaned bytes)", func(r *run, res *core.RecurrenceResult) *core.RecurrenceResult {
			r.eng.Controller().Registry(0).Add("planted", core.ReduceInput, []byte("x"))
			return res
		}},
		{"still resident after purge tick", func(r *run, res *core.RecurrenceResult) *core.RecurrenceResult {
			// Moved to another node after the purge tick: the copy left
			// behind is expired, and still resident.
			pid := r.q.ReduceOutputPanePID(res.WindowHi, 0)
			sig, _ := r.eng.Controller().Lookup(pid, core.ReduceOutput)
			data, _ := r.eng.Controller().Registry(sig.NID).Get(pid, core.ReduceOutput)
			r.eng.Controller().Registry((sig.NID+1)%4).Add(pid, core.ReduceOutput, data)
			return res
		}},
		{"but engine read", func(r *run, res *core.RecurrenceResult) *core.RecurrenceResult {
			ins, _ := r.eng.PaneInputs(0, res.WindowHi-1) // in window 1's shared file, panes 0 to 3
			path := ins[0].Input.Path + ".hdr"
			hdr, _ := r.mr.DFS.Read(path)
			var es []core.HeaderEntry
			if err := json.Unmarshal(hdr, &es); err != nil || len(es) != 4 || es[2].Length == es[3].Length {
				t.Fatalf("%s: %s, err %v, want four panes, the last two of different lengths", path, hdr, err)
			}
			es[2].Length, es[3].Length = es[3].Length, es[2].Length // panes 2 and 3 trade lengths
			es[3].Offset = es[2].Offset + es[2].Length
			hdr, _ = json.Marshal(es)
			if err := errors.Join(r.mr.DFS.Delete(path), r.mr.DFS.Write(path, hdr)); err != nil {
				t.Fatal(err)
			}
			return res
		}},
	} {
		r := startAgg(t, newMR(t, 4, 7), nil, "q-inv", "", func(q *core.Query) { q.Sources[0].RateBytesPerUnit = 2e-9 })
		requireOK(t, r.window(0))
		r.feedTo(r.eng.Frames()[0].WindowClose(1))
		res, err := r.eng.RunNext()
		if err != nil {
			t.Fatalf("window 2: %v", err)
		}
		if v := r.ora.Check(c.plant(r, res)); !strings.Contains(strings.Join(v.Violations, "\n"), c.want) {
			t.Errorf("%q not flagged; violations: %v", c.want, v.Violations)
		}
	}
}
