package profile

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"redoop/internal/obs"
	"redoop/internal/simtime"
)

// span is a test shorthand for one task span.
func span(id, parent obs.SpanID, cat, name, track string, ready, start, end simtime.Time, deps ...obs.SpanID) obs.Event {
	return obs.Event{
		ID: id, Parent: parent, Cat: cat, Name: name, Track: track,
		Ready: ready, Start: start, End: end, Deps: deps,
	}
}

func root(id obs.SpanID, query string, index int, start, end simtime.Time) obs.Event {
	return obs.Event{
		ID: id, Cat: "recurrence", Name: fmt.Sprintf("recurrence %d", index),
		Track: obs.QueryTrack(query), Start: start, End: end, Ready: start,
	}
}

// checkTiling asserts the structural invariant directly: contiguous
// segments from rec.Start to rec.End whose durations sum to the wall.
func checkTiling(t *testing.T, rec *Recurrence) {
	t.Helper()
	prev := rec.Start
	var sum simtime.Duration
	for i, s := range rec.CritPath {
		if s.Start != prev {
			t.Fatalf("segment %d starts at %v, want %v (seam)", i, s.Start, prev)
		}
		if s.End < s.Start {
			t.Fatalf("segment %d is negative: [%v, %v]", i, s.Start, s.End)
		}
		sum += s.Dur()
		prev = s.End
	}
	if prev != rec.End {
		t.Fatalf("path ends at %v, want %v", prev, rec.End)
	}
	if sum != rec.Wall {
		t.Fatalf("segments sum to %v, wall-clock is %v", sum, rec.Wall)
	}
	if got := rec.CritTask + rec.CritWait + rec.CritGap; got != rec.Wall {
		t.Fatalf("kind split sums to %v, wall-clock is %v", got, rec.Wall)
	}
}

// TestDiamondCriticalPath: map → {slow reduce, fast reduce} → merge.
// The path must go through the slow branch, charge the merge's slot
// wait as a wait segment, and tile the wall exactly.
func TestDiamondCriticalPath(t *testing.T) {
	spans := []obs.Event{
		root(1, "q", 0, 0, 100),
		span(2, 1, "map", "map s0", "node:0", 0, 0, 30),
		span(3, 1, "reduce", "reduce p0", "node:1", 30, 30, 80, 2),
		span(4, 1, "reduce", "reduce p1", "node:2", 30, 30, 50, 2),
		span(5, 1, "cachetask", "merge", "node:1", 80, 85, 100, 3, 4),
	}
	p := Analyze(spans)
	if len(p.Recurrences) != 1 {
		t.Fatalf("got %d recurrences, want 1", len(p.Recurrences))
	}
	rec := p.Recurrences[0]
	if rec.Query != "q" || rec.Index != 0 {
		t.Fatalf("recurrence identity = %q/%d, want q/0", rec.Query, rec.Index)
	}
	checkTiling(t, rec)
	var kinds, names []string
	for _, s := range rec.CritPath {
		kinds = append(kinds, s.Kind)
		names = append(names, s.Name)
	}
	wantKinds := []string{KindTask, KindTask, KindWait, KindTask}
	if strings.Join(kinds, ",") != strings.Join(wantKinds, ",") {
		t.Fatalf("segment kinds = %v, want %v", kinds, wantKinds)
	}
	// The slow reduce (p0), not the fast one, is on the path.
	if names[1] != "reduce p0" {
		t.Fatalf("second segment is %q, want the slow branch \"reduce p0\"", names[1])
	}
	if rec.CritWait != 5 {
		t.Fatalf("CritWait = %v, want 5", rec.CritWait)
	}
	if rec.CritTask != 95 {
		t.Fatalf("CritTask = %v, want 95", rec.CritTask)
	}
	if err := p.CheckInvariants(); err != nil {
		t.Fatalf("CheckInvariants: %v", err)
	}
}

// TestCacheHitShortCircuit: a recurrence whose single task has no
// recorded deps (all inputs were caches carried over from earlier
// recurrences — span 0 deps dropped at record time). The walk must
// stop at the task, charge its slot wait, and close with a gap back to
// the trigger.
func TestCacheHitShortCircuit(t *testing.T) {
	spans := []obs.Event{
		root(1, "q", 3, 0, 50),
		span(2, 1, "cachetask", "finalize p0", "node:0", 10, 20, 50),
	}
	p := Analyze(spans)
	rec := p.Recurrences[0]
	checkTiling(t, rec)
	var kinds []string
	for _, s := range rec.CritPath {
		kinds = append(kinds, s.Kind)
	}
	want := []string{KindGap, KindWait, KindTask}
	if strings.Join(kinds, ",") != strings.Join(want, ",") {
		t.Fatalf("segment kinds = %v, want %v", kinds, want)
	}
	if rec.CritGap != 10 || rec.CritWait != 10 || rec.CritTask != 30 {
		t.Fatalf("split = gap %v wait %v task %v, want 10/10/30",
			rec.CritGap, rec.CritWait, rec.CritTask)
	}
}

// TestProactiveTaskClamp: a task that started before the recurrence
// trigger (proactive combine during ingest) only charges its
// post-trigger share to this recurrence's path.
func TestProactiveTaskClamp(t *testing.T) {
	spans := []obs.Event{
		root(1, "q", 1, 100, 200),
		span(2, 1, "cachetask", "combine pane 3 p0", "node:0", 80, 80, 130),
		span(3, 1, "reduce", "finalize", "node:0", 130, 130, 200, 2),
	}
	p := Analyze(spans)
	rec := p.Recurrences[0]
	checkTiling(t, rec)
	first := rec.CritPath[0]
	if first.Kind != KindTask || first.Start != 100 || first.End != 130 {
		t.Fatalf("first segment = %s [%v, %v], want task [100, 130]", first.Kind, first.Start, first.End)
	}
}

// naiveBestChain is the brute-force reference: the maximum summed task
// duration over every dependency chain, explored exhaustively.
func naiveBestChain(cur *obs.Event, byID map[obs.SpanID]*obs.Event) simtime.Duration {
	best := simtime.Duration(0)
	for _, d := range cur.Deps {
		if dep, ok := byID[d]; ok {
			if v := naiveBestChain(dep, byID); v > best {
				best = v
			}
		}
	}
	return best + cur.End.Sub(cur.Start)
}

// TestCriticalPathVsBruteForce builds random layered fan-in DAGs where
// each task starts exactly when its latest dependency finishes (no
// waits, no gaps), so the greedy backward walk's task total must equal
// the exhaustively-searched longest chain — and both equal the wall.
func TestCriticalPathVsBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		spans := []obs.Event{{}} // placeholder for the root, filled below
		var id obs.SpanID = 1
		var layers [][]obs.SpanID
		byID := map[obs.SpanID]*obs.Event{}
		var latest simtime.Time
		nLayers := 2 + rng.Intn(4)
		for l := 0; l < nLayers; l++ {
			width := 1 + rng.Intn(5)
			var layer []obs.SpanID
			for w := 0; w < width; w++ {
				id++
				var deps []obs.SpanID
				ready := simtime.Time(0)
				if l > 0 {
					prev := layers[l-1]
					k := 1 + rng.Intn(len(prev))
					for _, j := range rng.Perm(len(prev))[:k] {
						deps = append(deps, prev[j])
						if e := byID[prev[j]].End; e > ready {
							ready = e
						}
					}
				}
				dur := simtime.Duration(1 + rng.Intn(100))
				sp := span(id, 1, "task", fmt.Sprintf("t%d", id), "node:0",
					ready, ready, ready.Add(dur), deps...)
				spans = append(spans, sp)
				byID[id] = &spans[len(spans)-1]
				layer = append(layer, id)
				if sp.End > latest {
					latest = sp.End
				}
			}
			layers = append(layers, layer)
		}
		spans[0] = root(1, "q", 0, 0, latest)

		p := Analyze(spans)
		rec := p.Recurrences[0]
		checkTiling(t, rec)

		var top *obs.Event
		for _, sp := range byID {
			if top == nil || sp.End > top.End || (sp.End == top.End && sp.ID > top.ID) {
				top = sp
			}
		}
		want := naiveBestChain(top, byID)
		if rec.CritTask != want {
			t.Fatalf("trial %d: greedy task total %v != brute-force longest chain %v",
				trial, rec.CritTask, want)
		}
		if rec.CritTask != rec.Wall {
			t.Fatalf("trial %d: abutting DAG should tile with tasks only: task %v, wall %v (wait %v, gap %v)",
				trial, rec.CritTask, rec.Wall, rec.CritWait, rec.CritGap)
		}
	}
}

func TestPhaseAndNodeAttribution(t *testing.T) {
	spans := []obs.Event{
		root(1, "q", 0, 0, 100),
		span(2, 1, "map", "map a", "node:0", 0, 0, 40),
		span(3, 1, "map", "map b", "node:0", 20, 20, 60), // overlaps a on node:0
		span(4, 1, "reduce", "reduce", "node:1", 60, 70, 100, 2, 3),
	}
	p := Analyze(spans)
	rec := p.Recurrences[0]
	// Phases sum busy time: the overlapping maps count in full.
	if rec.Phases["map"] != 80 || rec.Phases["reduce"] != 30 {
		t.Fatalf("phases = %v, want map 80, reduce 30", rec.Phases)
	}
}

// TestWriteCritPathTrace exports overlapping tracks and checks the
// Chrome trace document: every track named, the critical-path overlay
// present, durations non-negative, and overlapping spans preserved.
func TestWriteCritPathTrace(t *testing.T) {
	spans := []obs.Event{
		root(1, "q", 0, 0, 100),
		span(2, 1, "map", "map a", "node:0", 0, 0, 60),
		span(3, 1, "map", "map b", "node:1", 0, 10, 70), // overlaps map a in time
		span(4, 1, "reduce", "reduce", "node:0", 70, 70, 100, 2, 3),
	}
	p := Analyze(spans)
	var buf bytes.Buffer
	if err := p.WriteCritPathTrace(&buf); err != nil {
		t.Fatalf("WriteCritPathTrace: %v", err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Cat  string         `json:"cat"`
			Ph   string         `json:"ph"`
			Ts   float64        `json:"ts"`
			Dur  *float64       `json:"dur"`
			Tid  int            `json:"tid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	tracks := map[string]int{}
	type iv struct{ lo, hi float64 }
	var nodeSpans []iv
	critSegs := 0
	for _, e := range doc.TraceEvents {
		switch e.Ph {
		case "M":
			if e.Name == "thread_name" {
				tracks[e.Args["name"].(string)] = e.Tid
			}
		case "X":
			if e.Dur == nil || *e.Dur < 0 {
				t.Fatalf("X event %q has missing/negative dur", e.Name)
			}
			if e.Cat == "map" {
				nodeSpans = append(nodeSpans, iv{e.Ts, e.Ts + *e.Dur})
			}
			if strings.HasPrefix(e.Cat, "crit-") {
				critSegs++
			}
		}
	}
	if _, ok := tracks["critical-path:q"]; !ok {
		t.Fatalf("no critical-path overlay track; tracks = %v", tracks)
	}
	if _, ok := tracks["node:0"]; !ok {
		t.Fatalf("node:0 track missing; tracks = %v", tracks)
	}
	if len(nodeSpans) != 2 || nodeSpans[0].hi <= nodeSpans[1].lo {
		t.Fatalf("overlapping map spans not preserved: %+v", nodeSpans)
	}
	if critSegs != len(p.Recurrences[0].CritPath) {
		t.Fatalf("trace has %d crit segments, profile has %d", critSegs, len(p.Recurrences[0].CritPath))
	}
}
