package core

import (
	"strconv"
	"strings"
	"testing"

	"redoop/internal/records"
	"redoop/internal/simtime"
	"redoop/internal/window"
)

func hubSpec() window.Spec {
	return window.NewTimeSpec(30*simtime.Second, 10*simtime.Second) // pane 10s
}

func TestHubShareValidation(t *testing.T) {
	mr := internalRig(t, 2, 3)
	hub := NewSourceHub(mr.DFS, mr.DFS.BlockSize())
	if err := hub.Share("", "s", hubSpec(), 0); err == nil {
		t.Error("empty key should fail")
	}
	if err := hub.Share("k", "s", hubSpec(), 0); err != nil {
		t.Fatal(err)
	}
	if !hub.Has("k") || hub.Has("other") {
		t.Error("Has wrong")
	}
	// Re-declaring with the same granularity is idempotent.
	if err := hub.Share("k", "s", hubSpec(), 0); err != nil {
		t.Errorf("idempotent re-share failed: %v", err)
	}
	// A different granularity is rejected.
	other := window.NewTimeSpec(30*simtime.Second, 15*simtime.Second) // pane 15s
	if err := hub.Share("k", "s", other, 0); err == nil {
		t.Error("conflicting granularity should fail")
	}
	if err := hub.Ingest("ghost", nil); err == nil {
		t.Error("ingesting an unknown key should fail")
	}
}

func TestHubAttachGranularity(t *testing.T) {
	mr := internalRig(t, 2, 5)
	hub := NewSourceHub(mr.DFS, mr.DFS.BlockSize())
	if err := hub.Share("k", "s", hubSpec(), 0); err != nil {
		t.Fatal(err)
	}
	if _, err := hub.attach("k", int64(20*simtime.Second), 1); err != nil {
		t.Errorf("multiple of the shared pane should attach: %v", err)
	}
	if _, err := hub.attach("k", int64(15*simtime.Second), 1); err == nil {
		t.Error("non-multiple pane should fail to attach")
	}
	if _, err := hub.attach("ghost", int64(10*simtime.Second), 1); err == nil {
		t.Error("unknown key should fail to attach")
	}
}

func TestSharedViewRejectsDirectIngestAndReplan(t *testing.T) {
	mr := internalRig(t, 2, 7)
	hub := NewSourceHub(mr.DFS, mr.DFS.BlockSize())
	hub.Share("k", "s", hubSpec(), 0)
	v, err := hub.attach("k", int64(10*simtime.Second), 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := v.Ingest(nil); err == nil {
		t.Error("per-consumer ingest must be rejected")
	}
	if err := v.SetPlan(v.Plan()); err == nil {
		t.Error("per-consumer re-planning must be rejected")
	}
}

func TestSharedViewAggregatesPanes(t *testing.T) {
	mr := internalRig(t, 2, 9)
	hub := NewSourceHub(mr.DFS, mr.DFS.BlockSize())
	hub.Share("k", "s", hubSpec(), 0)
	// Consumer at double the shared granularity: its pane 0 covers
	// shared panes 0 and 1.
	v, err := hub.attach("k", int64(20*simtime.Second), 1)
	if err != nil {
		t.Fatal(err)
	}
	recs := []records.Record{
		{Ts: int64(2 * simtime.Second), Data: []byte("a")},
		{Ts: int64(12 * simtime.Second), Data: []byte("b")},
	}
	if err := hub.Ingest("k", recs); err != nil {
		t.Fatal(err)
	}
	if err := v.FlushThrough(int64(20 * simtime.Second)); err != nil {
		t.Fatal(err)
	}
	ins, ok := v.PaneInputs(0)
	if !ok || len(ins) != 2 {
		t.Fatalf("consumer pane 0 should aggregate 2 shared segments: %v ok=%v", ins, ok)
	}
	for _, in := range ins {
		if in.Pane != 0 {
			t.Errorf("segment should be re-expressed as consumer pane 0, got %d", in.Pane)
		}
	}
	if v.PaneBytes(0) <= 0 {
		t.Error("PaneBytes should sum the shared panes")
	}
}

func TestHubGCWaitsForAllConsumers(t *testing.T) {
	mr := internalRig(t, 2, 11)
	hub := NewSourceHub(mr.DFS, mr.DFS.BlockSize())
	hub.Share("k", "s", hubSpec(), 0)
	v1, _ := hub.attach("k", int64(10*simtime.Second), 1)
	v2, _ := hub.attach("k", int64(10*simtime.Second), 1)
	hub.Ingest("k", []records.Record{{Ts: int64(simtime.Second), Data: []byte("x")}})
	v1.FlushThrough(int64(10 * simtime.Second))

	paneFile := ""
	for _, f := range mr.DFS.List() {
		if strings.Contains(f, "shared/k") && !strings.HasSuffix(f, ".hdr") {
			paneFile = f
		}
	}
	if paneFile == "" {
		t.Fatal("shared pane file should exist")
	}
	// Only one consumer releases: the file must survive.
	v1.DropPaneFiles(0)
	if !mr.DFS.Exists(paneFile) {
		t.Fatal("file dropped before all consumers released it")
	}
	v2.DropPaneFiles(0)
	if mr.DFS.Exists(paneFile) {
		t.Error("file should be dropped once every consumer released it")
	}
}

// Two engines over one shared source and hub: data ingested once, both
// queries correct, each at its own window size.
func TestSharedSourceTwoEngines(t *testing.T) {
	mr := internalRig(t, 4, 13)
	hub := NewSourceHub(mr.DFS, mr.DFS.BlockSize())
	ctrl := NewController()
	spec := hubSpec()
	if err := hub.Share("clicks", "clicks", spec, 0); err != nil {
		t.Fatal(err)
	}

	mkQuery := func(name string, win simtime.Duration) *Query {
		q := internalCountQuery(win, 10*simtime.Second)
		q.Name = name
		q.Sources[0].CacheKey = "clicks"
		return q
	}
	e1 := mustEngine(t, Config{MR: mr, Query: mkQuery("q1", 30*simtime.Second), Controller: ctrl, Hub: hub})
	e2 := mustEngine(t, Config{MR: mr, Query: mkQuery("q2", 50*simtime.Second), Controller: ctrl, Hub: hub})

	if err := e1.Ingest(0, nil); err == nil {
		t.Fatal("direct ingest into a shared source must fail")
	}

	// Feed 5 slides once, through the hub.
	for s := 0; s < 5; s++ {
		if err := hub.Ingest("clicks", internalWords(29, 10*simtime.Second, s, 100, 5)); err != nil {
			t.Fatal(err)
		}
	}
	count := func(out []records.Pair) int {
		total := 0
		for _, p := range out {
			n, _ := strconv.Atoi(string(p.Value))
			total += n
		}
		return total
	}
	r1, err := e1.RunNext()
	if err != nil {
		t.Fatal(err)
	}
	if got := count(r1.Output); got != 300 {
		t.Errorf("q1 counted %d, want 300 (3 panes)", got)
	}
	r2, err := e2.RunNext()
	if err != nil {
		t.Fatal(err)
	}
	if got := count(r2.Output); got != 500 {
		t.Errorf("q2 counted %d, want 500 (5 panes)", got)
	}
	// q2 shares q1's reduce-input caches for panes 0-2 (group claims
	// keep them alive past q1's own expiry), so it maps only its two
	// extra panes — strictly less than q1's three.
	if r2.Stats.BytesRead >= r1.Stats.BytesRead {
		t.Errorf("q2 should map only its 2 extra panes: read %d vs q1's %d",
			r2.Stats.BytesRead, r1.Stats.BytesRead)
	}
}
