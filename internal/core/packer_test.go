package core

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"testing"

	"redoop/internal/colfmt"
	"redoop/internal/dfs"
	"redoop/internal/obs"
	"redoop/internal/records"
	"redoop/internal/simtime"
	"redoop/internal/window"
)

func packerDFS(t *testing.T) *dfs.DFS {
	t.Helper()
	return newDFS(t, dfs.Config{BlockSize: 1 << 20, Replication: 2, Nodes: []int{0, 1, 2}, Seed: 9})
}

func mkRecs(ts []int64) []records.Record {
	out := make([]records.Record, len(ts))
	for i, t := range ts {
		out[i] = records.Record{Ts: t, Data: []byte(fmt.Sprintf("rec@%d", t))}
	}
	return out
}

// countSpec(30,20) has pane unit 10.
func packerSpec() window.Spec { return window.NewCountSpec(30, 20) }

func oversizePlan() PartitionPlan {
	return PartitionPlan{PaneUnit: 10, FilesPerPane: 1, PanesPerFile: 1, SubPanes: 1}
}

func TestNewPackerValidation(t *testing.T) {
	d := packerDFS(t)
	if _, err := NewPacker(d, "S1", "/d", window.Frame{}, oversizePlan()); err == nil {
		t.Error("invalid spec should be rejected")
	}
	bad := oversizePlan()
	bad.PaneUnit = 7 // mismatched with spec's GCD
	if _, err := NewPacker(d, "S1", "/d", window.FrameOf(packerSpec()), bad); err == nil {
		t.Error("plan/spec pane mismatch should be rejected")
	}
}

func TestOversizePaneFiles(t *testing.T) {
	d := packerDFS(t)
	pk, err := NewPacker(d, "S1", "/data", window.FrameOf(packerSpec()), oversizePlan())
	if err != nil {
		t.Fatal(err)
	}
	if err := pk.Ingest(mkRecs([]int64{0, 5, 9, 12, 15})); err != nil {
		t.Fatal(err)
	}
	if err := pk.FlushThrough(30); err != nil {
		t.Fatal(err)
	}
	// Pane 0 holds ts 0,5,9; pane 1 holds 12,15; pane 2 is empty.
	ins, ok := pk.PaneInputs(0)
	if !ok || len(ins) != 1 {
		t.Fatalf("pane 0 inputs = %v, %v", ins, ok)
	}
	if ins[0].Input.Path != "/data/S1P0" {
		t.Errorf("pane 0 path = %s, want naming convention S1P0", ins[0].Input.Path)
	}
	data, err := d.Read(ins[0].Input.Path)
	if err != nil {
		t.Fatal(err)
	}
	recs, err := colfmt.DecodeRecords(data)
	if err != nil || len(recs) != 3 {
		t.Errorf("pane 0 should hold 3 records, got %d (%v)", len(recs), err)
	}
	// Empty pane 2: flushed with zero inputs, distinguishable from
	// unflushed panes.
	ins2, ok := pk.PaneInputs(2)
	if !ok || len(ins2) != 0 {
		t.Errorf("empty pane should flush to no inputs: %v, %v", ins2, ok)
	}
	if _, ok := pk.PaneInputs(3); ok {
		t.Error("unflushed pane should not resolve")
	}
	if got := pk.PaneBytes(0); got != int64(len(data)) {
		t.Errorf("PaneBytes = %d, want %d", got, len(data))
	}
}

func TestUndersizedMultiPaneFileWithHeader(t *testing.T) {
	d := packerDFS(t)
	plan := oversizePlan()
	plan.PanesPerFile = 3
	pk, err := NewPacker(d, "S1", "/data", window.FrameOf(packerSpec()), plan)
	if err != nil {
		t.Fatal(err)
	}
	if err := pk.Ingest(mkRecs([]int64{1, 11, 21, 22})); err != nil {
		t.Fatal(err)
	}
	if err := pk.FlushThrough(30); err != nil {
		t.Fatal(err)
	}
	// Three panes share one file named S1P0_2 plus a header.
	ins0, _ := pk.PaneInputs(0)
	ins1, _ := pk.PaneInputs(1)
	ins2, _ := pk.PaneInputs(2)
	if len(ins0) != 1 || len(ins1) != 1 || len(ins2) != 1 {
		t.Fatalf("each pane should map to one segment: %d %d %d", len(ins0), len(ins1), len(ins2))
	}
	if ins0[0].Input.Path != "/data/S1P0_2" || ins1[0].Input.Path != ins0[0].Input.Path {
		t.Errorf("shared file naming wrong: %s", ins0[0].Input.Path)
	}
	if !d.Exists("/data/S1P0_2.hdr") {
		t.Error("multi-pane file should have a header")
	}
	if ins0[0].HeaderBytes == 0 {
		t.Error("pane reads from a shared file should charge a header lookup")
	}
	// Ranges are record-aligned: decoding each range yields exactly
	// that pane's records.
	body, _ := d.Read(ins1[0].Input.Path)
	seg := body[ins1[0].Input.Offset : ins1[0].Input.Offset+ins1[0].Input.Length]
	recs, err := colfmt.DecodeRecords(seg)
	if err != nil || len(recs) != 1 || recs[0].Ts != 11 {
		t.Errorf("pane 1 range decode = %v, %v", recs, err)
	}
	seg2 := body[ins2[0].Input.Offset : ins2[0].Input.Offset+ins2[0].Input.Length]
	recs2, _ := colfmt.DecodeRecords(seg2)
	if len(recs2) != 2 {
		t.Errorf("pane 2 should hold 2 records, got %d", len(recs2))
	}
}

func TestUndersizedPartialGroupForcedFlush(t *testing.T) {
	d := packerDFS(t)
	plan := oversizePlan()
	plan.PanesPerFile = 3
	pk, _ := NewPacker(d, "S1", "/data", window.FrameOf(packerSpec()), plan)
	pk.Ingest(mkRecs([]int64{1, 11}))
	// The first window (panes 0..2) closes at unit 30; the group has
	// only 2 panes of data but must flush anyway.
	if err := pk.FlushThrough(30); err != nil {
		t.Fatal(err)
	}
	if _, ok := pk.PaneInputs(0); !ok {
		t.Error("forced flush should make pane 0 available")
	}
	if _, ok := pk.PaneInputs(1); !ok {
		t.Error("forced flush should make pane 1 available")
	}
}

func TestSubPanePacking(t *testing.T) {
	d := packerDFS(t)
	plan := oversizePlan()
	plan.SubPanes = 2
	pk, _ := NewPacker(d, "S1", "/data", window.FrameOf(packerSpec()), plan)
	pk.Ingest(mkRecs([]int64{0, 4, 5, 9})) // pane 0: subs [0,4] and [5,9]
	if err := pk.FlushThrough(10); err != nil {
		t.Fatal(err)
	}
	ins, _ := pk.PaneInputs(0)
	if len(ins) != 2 {
		t.Fatalf("sub-pane plan should produce 2 segments, got %d", len(ins))
	}
	if ins[0].SubPane != 0 || ins[1].SubPane != 1 {
		t.Error("segments should be ordered by sub-pane")
	}
	if ins[0].Input.Path == ins[1].Input.Path {
		t.Error("sub-panes should be separate files")
	}
}

func TestSubPaneAvailability(t *testing.T) {
	d := packerDFS(t)
	spec := window.NewTimeSpec(40*simtime.Second, 20*simtime.Second) // pane 20s
	plan := PartitionPlan{PaneUnit: int64(20 * simtime.Second), FilesPerPane: 1, PanesPerFile: 1, SubPanes: 2}
	pk, err := NewPacker(d, "S1", "/data", window.FrameOf(spec), plan)
	if err != nil {
		t.Fatal(err)
	}
	pk.Ingest([]records.Record{
		{Ts: int64(2 * simtime.Second), Data: []byte("a")},
		{Ts: int64(15 * simtime.Second), Data: []byte("b")},
	})
	if err := pk.FlushThrough(int64(20 * simtime.Second)); err != nil {
		t.Fatal(err)
	}
	ins, _ := pk.PaneInputs(0)
	if len(ins) != 2 {
		t.Fatalf("want 2 segments, got %d", len(ins))
	}
	if ins[0].AvailableAt != simtime.Time(10*simtime.Second) {
		t.Errorf("first sub-pane available at %v, want T+10s", ins[0].AvailableAt)
	}
	if ins[1].AvailableAt != simtime.Time(20*simtime.Second) {
		t.Errorf("second sub-pane available at %v, want T+20s", ins[1].AvailableAt)
	}
}

func TestIngestRejectsLateData(t *testing.T) {
	d := packerDFS(t)
	pk, _ := NewPacker(d, "S1", "/data", window.FrameOf(packerSpec()), oversizePlan())
	pk.Ingest(mkRecs([]int64{5}))
	pk.FlushThrough(10)
	if err := pk.Ingest(mkRecs([]int64{7})); err == nil {
		t.Error("records behind the flush bound must be rejected")
	}
	if err := pk.Ingest([]records.Record{{Ts: -3}}); err == nil {
		t.Error("records before the origin must be rejected")
	}
}

func TestFlushThroughIdempotent(t *testing.T) {
	d := packerDFS(t)
	pk, _ := NewPacker(d, "S1", "/data", window.FrameOf(packerSpec()), oversizePlan())
	pk.Ingest(mkRecs([]int64{5}))
	if err := pk.FlushThrough(10); err != nil {
		t.Fatal(err)
	}
	if err := pk.FlushThrough(10); err != nil {
		t.Fatal(err)
	}
	if err := pk.FlushThrough(5); err != nil {
		t.Fatal(err) // lower bound is a no-op
	}
	ins, _ := pk.PaneInputs(0)
	if len(ins) != 1 {
		t.Errorf("idempotent flush should not duplicate segments: %d", len(ins))
	}
}

func TestSetPlanValidates(t *testing.T) {
	d := packerDFS(t)
	pk, _ := NewPacker(d, "S1", "/data", window.FrameOf(packerSpec()), oversizePlan())
	bad := oversizePlan()
	bad.PaneUnit = 3
	if err := pk.SetPlan(bad); err == nil {
		t.Error("mismatched plan should be rejected")
	}
	good := oversizePlan()
	good.SubPanes = 4
	if err := pk.SetPlan(good); err != nil {
		t.Fatal(err)
	}
	if pk.Plan().SubPanes != 4 {
		t.Error("plan not adopted")
	}
}

func TestDropPaneFiles(t *testing.T) {
	d := packerDFS(t)
	pk, _ := NewPacker(d, "S1", "/data", window.FrameOf(packerSpec()), oversizePlan())
	pk.Ingest(mkRecs([]int64{5}))
	pk.FlushThrough(10)
	ins, _ := pk.PaneInputs(0)
	path := ins[0].Input.Path
	if err := pk.DropPaneFiles(0); err != nil {
		t.Fatal(err)
	}
	if d.Exists(path) {
		t.Error("dropped pane file should be deleted")
	}
	if _, ok := pk.PaneInputs(0); ok {
		t.Error("dropped pane should no longer resolve")
	}
	if err := pk.DropPaneFiles(99); err != nil {
		t.Error("dropping an unknown pane is a no-op")
	}
}

// TestPaneSliceRoundTrip is the shared-file half of the round-trip
// property: over a §3.2 group file of concatenated pane segments,
// PaneSlice over the header yields, pane by pane, bytes that decode to
// exactly that pane's batch — including an empty pane (zero bytes) and
// a single-record pane.
func TestPaneSliceRoundTrip(t *testing.T) {
	batches := map[int64][]records.Record{
		0: mkRecs([]int64{1, 3, 7}),
		1: nil,                 // empty pane: zero-length range
		2: mkRecs([]int64{21}), // single-record pane
		3: mkRecs([]int64{30, 31, 32, 33}),
	}
	var body []byte
	var hdr []HeaderEntry
	for pane := int64(0); pane < 4; pane++ {
		start := int64(len(body))
		body = append(body, colfmt.EncodeRecords(batches[pane])...)
		hdr = append(hdr, HeaderEntry{Pane: pane, Offset: start, Length: int64(len(body)) - start})
	}
	entries, err := ParsePaneHeader(mustJSON(t, hdr), int64(len(body)))
	if err != nil {
		t.Fatalf("header: %v", err)
	}
	for pane := int64(0); pane < 4; pane++ {
		seg, ok := PaneSlice(body, entries, pane)
		if !ok {
			t.Fatalf("pane %d missing from slice", pane)
		}
		recs, err := colfmt.DecodeRecords(seg)
		if err != nil {
			t.Fatalf("pane %d decode: %v", pane, err)
		}
		want := batches[pane]
		if len(recs) != len(want) {
			t.Fatalf("pane %d: %d records, want %d", pane, len(recs), len(want))
		}
		for i := range recs {
			if recs[i].Ts != want[i].Ts || string(recs[i].Data) != string(want[i].Data) {
				t.Fatalf("pane %d record %d: (%d,%q), want (%d,%q)",
					pane, i, recs[i].Ts, recs[i].Data, want[i].Ts, want[i].Data)
			}
		}
	}
	// A pane the header does not mention is attributed no bytes.
	if _, ok := PaneSlice(body, entries, 9); ok {
		t.Error("PaneSlice produced bytes for an absent pane")
	}
}

func mustJSON(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestIngestAllocatesPerRunNotPerRecord: a batch is taken in maximal
// (pane, sub-pane) runs, and a cell's first run is a view of the batch,
// so one in-order pane batch costs a constant number of allocations and
// no record header bytes however many records it holds; and a batch that
// wanders between sub-panes still lands every record in its own cell.
func TestIngestAllocatesPerRunNotPerRecord(t *testing.T) {
	const pane = 1000
	spec := window.NewCountSpec(3*pane, 2*pane)
	allocs := func(perPane int) (n, bytes float64) {
		pk, err := NewPacker(packerDFS(t), "S1", "/d", window.FrameOf(spec),
			PartitionPlan{PaneUnit: pane, FilesPerPane: 1, PanesPerFile: 1, SubPanes: 1})
		if err != nil {
			t.Fatal(err)
		}
		payload := []byte("x")
		batches := make([][]records.Record, 12)
		for p := range batches {
			batches[p] = make([]records.Record, perPane)
			for i := range batches[p] {
				batches[p][i] = records.Record{Ts: int64(p*pane + i*pane/perPane), Data: payload}
			}
		}
		next := 0
		n = testing.AllocsPerRun(len(batches)-1, func() {
			if err := pk.Ingest(batches[next]); err != nil {
				t.Fatal(err)
			}
			next++
		})
		for p, b := range batches {
			if run := pk.pending[window.PaneID(p)][0]; &run[0] != &b[0] {
				t.Fatalf("pane %d is buffered as a copy of its batch, not a view", p)
			}
		}
		// The same twelve panes again, into a fresh packer, bytes counted.
		pk, _ = NewPacker(packerDFS(t), "S1", "/d", window.FrameOf(spec), pk.Plan())
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		for _, b := range batches {
			if err := pk.Ingest(b); err != nil {
				t.Fatal(err)
			}
		}
		runtime.ReadMemStats(&m1)
		return n, float64(m1.TotalAlloc-m0.TotalAlloc) / float64(len(batches))
	}
	small, smallBytes := allocs(100)
	large, largeBytes := allocs(1000)
	t.Logf("Ingest of one in-order pane batch: %.1f allocations and %.0f bytes for 100 records, %.1f and %.0f for 1000",
		small, smallBytes, large, largeBytes)
	if large > small+1 || large > 8 {
		t.Fatalf("Ingest of one in-order pane batch allocates %.1f times for 100 records, %.1f for 1000", small, large)
	}
	// 900 more record headers would be 28 800 bytes more.
	if largeBytes > smallBytes+64 {
		t.Fatalf("Ingest of one in-order pane batch allocates %.0f bytes for 100 records, %.0f for 1000: it copies headers",
			smallBytes, largeBytes)
	}

	pk, err := NewPacker(packerDFS(t), "S1", "/d", window.FrameOf(spec),
		PartitionPlan{PaneUnit: pane, FilesPerPane: 1, PanesPerFile: 1, SubPanes: 3})
	if err != nil {
		t.Fatal(err)
	}
	// Sub-pane s of a pane holds the offsets w with w*3/1000 == s.
	ts := []int64{0, 333, 334, 5, 666, 667, 999, 1000, 340, 1333, 1334}
	if err := pk.Ingest(mkRecs(ts)); err != nil {
		t.Fatal(err)
	}
	for _, u := range ts {
		p, s := window.PaneID(u/pane), int(u%pane*3/pane)
		found := false
		for _, r := range pk.pending[p][s] {
			found = found || r.Ts == u
		}
		if !found {
			t.Errorf("record at unit %d is not buffered in pane %d sub-pane %d", u, p, s)
		}
	}
}

// TestIngestNeverWritesTheBatch: the packer keeps views of the batches it
// is handed, so nothing it does may write through them. An out-of-order
// batch flushes as a sorted pane file while the batch stays as it was
// handed over, and a second batch for the same cell grows a copy, not
// the first batch's spare capacity.
func TestIngestNeverWritesTheBatch(t *testing.T) {
	d := packerDFS(t)
	pk, err := NewPacker(d, "S1", "/data", window.FrameOf(packerSpec()), oversizePlan())
	if err != nil {
		t.Fatal(err)
	}
	backing := mkRecs([]int64{7, 2, 9, 0, 100, 101}) // the last two: spare capacity of first
	first, second := backing[:4], mkRecs([]int64{5, 1})
	wantBacking, wantSecond := slices.Clone(backing), slices.Clone(second)
	for _, b := range [][]records.Record{first, second} {
		if err := pk.Ingest(b); err != nil {
			t.Fatal(err)
		}
	}
	if err := pk.FlushThrough(10); err != nil {
		t.Fatal(err)
	}
	same := func(a, b records.Record) bool {
		return a.Ts == b.Ts && &a.Data[0] == &b.Data[0] && len(a.Data) == len(b.Data)
	}
	if !slices.EqualFunc(backing, wantBacking, same) || !slices.EqualFunc(second, wantSecond, same) {
		t.Fatalf("Ingest wrote to the caller's batches: %v and %v, handed over as %v and %v",
			backing, second, wantBacking, wantSecond)
	}
	ins, ok := pk.PaneInputs(0)
	if !ok || len(ins) != 1 {
		t.Fatalf("pane 0 inputs = %v, %v", ins, ok)
	}
	data, err := d.Read(ins[0].Input.Path)
	if err != nil {
		t.Fatal(err)
	}
	recs, err := colfmt.DecodeRecords(data)
	if err != nil {
		t.Fatal(err)
	}
	var ts []int64
	for _, r := range recs {
		ts = append(ts, r.Ts)
		if string(r.Data) != fmt.Sprintf("rec@%d", r.Ts) {
			t.Errorf("record at %d holds %q", r.Ts, r.Data)
		}
	}
	if want := []int64{0, 1, 2, 5, 7, 9}; !slices.Equal(ts, want) {
		t.Fatalf("pane file holds timestamps %v, want %v", ts, want)
	}
}

// TestFlushIdenticalAcrossWidths: a flush encodes its files on the pool
// but writes and announces them in pane order, so at 1 and 4 workers the
// DFS holds the same bytes on the same replicas, every pane resolves to
// the same inputs and the pane-ingest events come in the same order —
// for one file per pane, for sub-panes, and for shared group files.
func TestFlushIdenticalAcrossWidths(t *testing.T) {
	const pane = int64(10 * simtime.Second)
	spec := window.NewTimeSpec(30*simtime.Second, 20*simtime.Second)
	plan := PartitionPlan{PaneUnit: pane, FilesPerPane: 1, PanesPerFile: 1, SubPanes: 1}
	subPanes, shared := plan, plan
	subPanes.SubPanes, shared.PanesPerFile = 3, 3
	type flushed struct {
		Files  map[string][]byte
		Blocks map[string][]dfs.Block
		Inputs map[window.PaneID][]PaneInput
		Events []string
	}
	flush := func(plan PartitionPlan, workers int) flushed {
		d := packerDFS(t)
		pk, err := NewPacker(d, "S1", "/data", window.FrameOf(spec), plan)
		if err != nil {
			t.Fatal(err)
		}
		o := obs.New()
		pk.SetObserver(o, "q")
		pk.workers = workers
		rng := rand.New(rand.NewSource(3))
		from := int64(0)
		for _, through := range []int64{3 * pane, 5 * pane, 9 * pane} {
			var recs []records.Record // unsorted; pane 4 stays empty
			for i := 0; i < 60*int(through-from)/int(pane); i++ {
				if ts := from + rng.Int63n(through-from); ts/pane != 4 {
					recs = append(recs, records.Record{Ts: ts, Data: []byte(fmt.Sprintf("r%d", rng.Intn(1000)))})
				}
			}
			if err := pk.Ingest(recs); err != nil {
				t.Fatal(err)
			}
			if err := pk.FlushThrough(through); err != nil {
				t.Fatal(err)
			}
			from = through
		}
		got := flushed{Files: map[string][]byte{}, Blocks: map[string][]dfs.Block{}, Inputs: map[window.PaneID][]PaneInput{}}
		for _, path := range d.List() {
			data, err := d.Read(path)
			if err != nil {
				t.Fatal(err)
			}
			got.Files[path] = data
			got.Blocks[path], _, _ = d.Layout(nil, path)
		}
		for p := window.PaneID(0); p < 9; p++ {
			got.Inputs[p], _ = pk.PaneInputs(p)
		}
		for _, ev := range o.Decisions() {
			got.Events = append(got.Events, fmt.Sprintf("%d %v %+v", ev.At, ev.Type, ev.Data))
		}
		return got
	}
	for _, tc := range []struct {
		name  string
		plan  PartitionPlan
		files int
	}{{"one file per pane", plan, 8}, {"sub-panes", subPanes, 24}, {"shared group", shared, 2 * 4}} {
		t.Run(tc.name, func(t *testing.T) {
			serial, wide := flush(tc.plan, 1), flush(tc.plan, 4)
			if len(serial.Files) != tc.files || len(serial.Events) == 0 {
				t.Fatalf("%d files and %d events, want %d files", len(serial.Files), len(serial.Events), tc.files)
			}
			if !reflect.DeepEqual(serial, wide) {
				t.Fatalf("flushes differ across widths:\n1 worker:  %v\n4 workers: %v", serial.Events, wide.Events)
			}
		})
	}
}
