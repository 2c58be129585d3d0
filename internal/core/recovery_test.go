package core

import (
	"testing"

	"redoop/internal/simtime"
	"redoop/internal/window"
)

// Tests of the §5 recovery ladder at cache-key granularity: a lost
// reduce-output cache rebuilds from the surviving reduce-input cache
// (no DFS re-read); a fully lost pane re-runs map+shuffle.

func primeAggEngine(t *testing.T) *Engine {
	t.Helper()
	win, slide := 30*simtime.Second, 10*simtime.Second
	q := internalCountQuery(win, slide)
	eng := mustEngine(t, Config{MR: internalRig(3, 17), Query: q})
	for s := 0; s < 3; s++ {
		if err := eng.Ingest(0, internalWords(19, slide, s, 300, 8)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := eng.RunNext(); err != nil {
		t.Fatal(err)
	}
	return eng
}

// dropType removes one cache type for pane p across all partitions and
// nodes.
func dropType(eng *Engine, p int64, typ CacheType) int {
	dropped := 0
	q := eng.query
	for part := 0; part < q.NumReducers; part++ {
		var pid string
		if typ == ReduceOutput {
			pid = q.ReduceOutputPanePID(window.PaneID(p), part)
		} else {
			pid = q.ReduceInputPID(0, q.Spec().PaneUnit(), window.PaneID(p), part)
		}
		for _, n := range eng.mr.Cluster.Nodes() {
			key := nodeKey(pid, typ)
			if n.HasLocal(key) {
				n.DeleteLocal(key)
				dropped++
			}
		}
	}
	return dropped
}

func TestRecoveryFromReduceInputCache(t *testing.T) {
	eng := primeAggEngine(t)
	// Lose every pane-output cache of pane 1 (which window 2 reuses)
	// but keep the reduce-input caches.
	if dropped := dropType(eng, 1, ReduceOutput); dropped == 0 {
		t.Fatal("no output caches found to drop")
	}
	if err := eng.Ingest(0, internalWords(19, 10*simtime.Second, 3, 300, 8)); err != nil {
		t.Fatal(err)
	}
	res, err := eng.RunNext()
	if err != nil {
		t.Fatal(err)
	}
	if res.CacheRecoveries == 0 {
		t.Error("output-cache loss should be detected as a recovery")
	}
	// The cheap rung: the pane must NOT have been re-mapped — only the
	// new pane's data is read from DFS (1 pane of 300 records).
	newPaneBytes := res.Stats.BytesRead
	// Run a clean engine to the same point for comparison.
	clean := primeAggEngine(t)
	clean.Ingest(0, internalWords(19, 10*simtime.Second, 3, 300, 8))
	cres, err := clean.RunNext()
	if err != nil {
		t.Fatal(err)
	}
	if newPaneBytes != cres.Stats.BytesRead {
		t.Errorf("rin-based rebuild should not re-read the DFS: read %d vs clean %d",
			newPaneBytes, cres.Stats.BytesRead)
	}
}

func TestRecoveryFullRemapWhenBothCachesLost(t *testing.T) {
	eng := primeAggEngine(t)
	d1 := dropType(eng, 1, ReduceOutput)
	d2 := dropType(eng, 1, ReduceInput)
	if d1 == 0 || d2 == 0 {
		t.Fatalf("expected caches to drop, got rout=%d rin=%d", d1, d2)
	}
	if err := eng.Ingest(0, internalWords(19, 10*simtime.Second, 3, 300, 8)); err != nil {
		t.Fatal(err)
	}
	res, err := eng.RunNext()
	if err != nil {
		t.Fatal(err)
	}
	if res.CacheRecoveries == 0 {
		t.Error("full pane loss should be detected")
	}
	// The expensive rung: pane 1 was re-mapped, so DFS reads cover two
	// panes' files rather than one.
	clean := primeAggEngine(t)
	clean.Ingest(0, internalWords(19, 10*simtime.Second, 3, 300, 8))
	cres, _ := clean.RunNext()
	if res.Stats.BytesRead <= cres.Stats.BytesRead {
		t.Errorf("full rebuild should re-read the lost pane: %d vs clean %d",
			res.Stats.BytesRead, cres.Stats.BytesRead)
	}
	// And the result is still exactly correct.
	total := 0
	for _, p := range res.Output {
		n := 0
		for _, c := range p.Value {
			n = n*10 + int(c-'0')
		}
		total += n
	}
	if total != 900 {
		t.Errorf("recovered window counted %d, want 900", total)
	}
}

// The controller's ready bit must roll back 2→1 when a cache is found
// lost (§5).
func TestReadyBitRollback(t *testing.T) {
	eng := primeAggEngine(t)
	pid := eng.query.ReduceOutputPanePID(1, 0)
	sig, ok := eng.ctrl.Lookup(pid, ReduceOutput)
	if !ok || sig.Ready != CacheAvailable {
		t.Fatalf("pane 1 output cache should be registered: %+v ok=%v", sig, ok)
	}
	// Lose just that one cache file.
	eng.mr.Cluster.Node(sig.NID).DeleteLocal(nodeKey(pid, ReduceOutput))
	if _, found, _ := eng.lookupCache([]byte(pid), ReduceOutput); found {
		t.Fatal("lookup should detect the loss")
	}
	sig, _ = eng.ctrl.Lookup(pid, ReduceOutput)
	if sig.Ready != HDFSAvailable {
		t.Errorf("ready bit should roll back to HDFS-available, got %v", sig.Ready)
	}
}
