package obs_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"

	"redoop/internal/explain"
	"redoop/internal/obs"
	"redoop/internal/obs/eventlog"
	"redoop/internal/profile"
	"redoop/internal/simtime"
)

// decisionsPerRecurrence is how many decisions recordRecurrence makes.
const decisionsPerRecurrence = 3

// recordRecurrence records recurrence r of query q as an engine's
// RunNext does: its start decision, parentless phase and replication
// spans, two dependent tasks (a map and its spill) parented to a
// reserved root, a re-plan and the finish decision, and the root last.
// Every span but the root is read with "<q> r<r>" in its name.
func recordRecurrence(tr *obs.Tracer, q string, r int) {
	ms := simtime.Duration(simtime.Millisecond)
	at := simtime.Time(int64(r) * int64(simtime.Second))
	name := fmt.Sprintf("%s r%d", q, r)
	root := tr.Reserve()
	tr.Emit(at, eventlog.RecurrenceStart, q, eventlog.RecurrenceStartData{Recurrence: r})
	tr.Task(obs.TaskSpan{Kind: obs.SpanPhase, Track: obs.QueryTrack(q), Input: name, Start: at, End: at.Add(ms)})
	tr.Task(obs.TaskSpan{Kind: obs.SpanReplicate, Track: "replication", Input: name, Start: at, End: at.Add(ms)})
	m := tr.Task(obs.TaskSpan{Kind: obs.SpanMap, Track: obs.NodeTrack(1), Input: name,
		Start: at, End: at.Add(2 * ms), Parent: root})
	tr.Task(obs.TaskSpan{Kind: obs.SpanSpill, Track: obs.NodeTrack(2), Input: name,
		Start: at.Add(2 * ms), End: at.Add(4 * ms), Parent: root, Deps: [2]obs.SpanID{m}})
	tr.Emit(at.Add(5*ms), eventlog.Replan, q, eventlog.ReplanData{Recurrence: r, SubPanes: 2})
	tr.Emit(at.Add(5*ms), eventlog.RecurrenceFinish, q, eventlog.RecurrenceFinishData{Recurrence: r, ResponseNS: int64(5 * ms)})
	tr.Task(obs.TaskSpan{Kind: obs.SpanRecurrence, Track: obs.QueryTrack(q), Index: r,
		Start: at, End: at.Add(5 * ms), ID: root})
}

// recordedName matches the "<q> r<r>" a recordRecurrence span's name
// carries.
var recordedName = regexp.MustCompile(`(\S+) r(\d+)`)

// spanRecurrence reads the query and recurrence a recordRecurrence span
// belongs to.
func spanRecurrence(e obs.Event) (q string, r int) {
	if e.Cat == "recurrence" {
		r, _ = strconv.Atoi(strings.TrimPrefix(e.Name, "recurrence "))
		return strings.TrimPrefix(e.Track, "query:"), r
	}
	m := recordedName.FindStringSubmatch(e.Name)
	if m == nil {
		return "", -1
	}
	r, _ = strconv.Atoi(m[2])
	return m[1], r
}

// decisionRecurrence reads the recurrence a recordRecurrence decision
// belongs to.
func decisionRecurrence(e eventlog.Event) int {
	switch d := e.Data.(type) {
	case eventlog.RecurrenceStartData:
		return d.Recurrence
	case eventlog.ReplanData:
		return d.Recurrence
	case eventlog.RecurrenceFinishData:
		return d.Recurrence
	}
	return -1
}

// Two queries recurring in turn keep exactly their newest
// KeepRecurrences recurrences each, every one whole — its parentless
// spans and its decisions included — and Events, Decisions, Len, the
// trace document and the profiler all see the same ones.
func TestTracerKeepsNewestRecurrencesPerTrack(t *testing.T) {
	const recs, perRecurrence = 40, 5
	tr := obs.NewTracer()
	for r := 0; r < recs; r++ {
		recordRecurrence(tr, "q1", r)
		recordRecurrence(tr, "q2", r)
	}
	evs := tr.Events()
	kept := map[string]int{}
	for _, e := range evs {
		q, r := spanRecurrence(e)
		if r < recs-obs.KeepRecurrences {
			t.Errorf("%s %q of recurrence %d kept after %d", e.Cat, e.Name, r, recs-1)
		}
		kept[fmt.Sprintf("%s r%d", q, r)]++
	}
	if len(kept) != 2*obs.KeepRecurrences {
		t.Errorf("%d recurrences kept, want %d per query", len(kept), obs.KeepRecurrences)
	}
	for rec, n := range kept {
		if n != perRecurrence {
			t.Errorf("%s keeps %d of its %d spans", rec, n, perRecurrence)
		}
	}
	if tr.Len() != len(evs) || len(evs) != 2*obs.KeepRecurrences*perRecurrence {
		t.Errorf("Len %d, Events %d, want %d", tr.Len(), len(evs), 2*obs.KeepRecurrences*perRecurrence)
	}
	decided := map[string]int{}
	dec := tr.Decisions()
	for _, e := range dec {
		decided[fmt.Sprintf("%s r%d", e.Query, decisionRecurrence(e))]++
	}
	for rec := range kept {
		if decided[rec] != decisionsPerRecurrence {
			t.Errorf("%s keeps %d of its %d decisions", rec, decided[rec], decisionsPerRecurrence)
		}
	}
	if len(dec) != 2*obs.KeepRecurrences*decisionsPerRecurrence {
		t.Errorf("Decisions %d, want %d", len(dec), 2*obs.KeepRecurrences*decisionsPerRecurrence)
	}

	var buf bytes.Buffer
	if err := tr.WriteTraceJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct{ Ph, Name string } `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	spans, instants := 0, 0
	for i, e := range doc.TraceEvents {
		switch e.Ph {
		case "X":
			if e.Name != evs[spans].Name {
				t.Fatalf("trace event %d is %q, Events has %q", i, e.Name, evs[spans].Name)
			}
			spans++
		case "i":
			if e.Name != string(dec[instants].Type) {
				t.Fatalf("trace event %d is %q, Decisions has %q", i, e.Name, dec[instants].Type)
			}
			instants++
		}
	}
	if spans != len(evs) || instants != len(dec) {
		t.Errorf("trace document has %d spans and %d instants, record %d and %d", spans, instants, len(evs), len(dec))
	}

	p := profile.Analyze(evs)
	if len(p.Recurrences) != 2*obs.KeepRecurrences {
		t.Fatalf("profile has %d recurrences, want %d", len(p.Recurrences), 2*obs.KeepRecurrences)
	}
	for _, rec := range p.Recurrences {
		if rec.Tasks != 2 {
			t.Errorf("%s recurrence %d profiled with %d tasks, want 2", rec.Query, rec.Index, rec.Tasks)
		}
	}
	if err := p.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// A 20-recurrence run keeps the whole recurrences 4–19: a recurrence's
// decisions leave with its spans, so explain and profile list the same
// recurrences, each from its start to its finish.
func TestDecisionsLeaveWithTheirRecurrence(t *testing.T) {
	const recs = 20
	tr := obs.NewTracer()
	for r := 0; r < recs; r++ {
		recordRecurrence(tr, "q", r)
	}
	var want []int
	for r := recs - obs.KeepRecurrences; r < recs; r++ {
		want = append(want, r)
	}

	dec := tr.Decisions()
	if len(dec) != obs.KeepRecurrences*decisionsPerRecurrence {
		t.Fatalf("%d decisions kept, want %d", len(dec), obs.KeepRecurrences*decisionsPerRecurrence)
	}
	for i, e := range dec {
		if r := want[i/decisionsPerRecurrence]; decisionRecurrence(e) != r {
			t.Fatalf("decision %d is %s of recurrence %d, want recurrence %d", i, e.Type, decisionRecurrence(e), r)
		}
	}
	var explained []int
	for _, r := range explain.Build(dec, "q").Recurrences {
		if !r.Finished || len(r.Replans) != 1 {
			t.Errorf("recurrence %d kept partly: finished %v, %d re-plans", r.Index, r.Finished, len(r.Replans))
		}
		explained = append(explained, r.Index)
	}
	var profiled []int
	for _, r := range profile.Analyze(tr.Events()).Recurrences {
		profiled = append(profiled, r.Index)
	}
	if !slices.Equal(explained, want) || !slices.Equal(profiled, want) {
		t.Fatalf("explain lists %v and profile %v, want %v", explained, profiled, want)
	}
}

// Once a track is full, the dropped recurrence's arrays take the next
// one's spans and decisions: steady recording allocates nothing.
func TestTracerRecyclesDroppedSegments(t *testing.T) {
	tr := obs.NewTracer()
	rec := func() {
		tr.Task(obs.TaskSpan{Kind: obs.SpanPhase, Track: "query:q", End: 1})
		tr.Emit(1, eventlog.Replan, "q", nil)
		tr.Task(obs.TaskSpan{Kind: obs.SpanRecurrence, Track: "query:q", End: 2})
	}
	for i := 0; i <= obs.KeepRecurrences; i++ {
		rec()
	}
	if n := testing.AllocsPerRun(100, rec); n != 0 {
		t.Fatalf("a steady recurrence allocates %v times", n)
	}
	if got, want := tr.Len(), 2*obs.KeepRecurrences; got != want {
		t.Fatalf("Len = %d, want %d", got, want)
	}
	if got, want := len(tr.Decisions()), obs.KeepRecurrences; got != want {
		t.Fatalf("%d decisions kept, want %d", got, want)
	}
}

// A placement decision keeps its payload unboxed, its candidates copied
// out of the caller's scratch into its segment, so steady recording
// allocates nothing; read, each is the PlacementData it was given.
func TestPlacementsRecordUnboxed(t *testing.T) {
	tr := obs.NewTracer()
	scratch := make([]eventlog.PlacementCandidate, 0, 3)
	place := func(r int) eventlog.PlacementData {
		scratch = scratch[:0]
		for n := 0; n < 1+r%3; n++ {
			scratch = append(scratch, eventlog.PlacementCandidate{Node: n, LoadNS: int64(r), CacheCostNS: 2, TotalNS: int64(r) + 2})
		}
		return eventlog.PlacementData{Recurrence: r, Chosen: r % 3, Outcome: "cache-local", Caches: r, Candidates: scratch}
	}
	rec, r := func(r int) {
		tr.EmitPlacement(1, "q", place(r))
		tr.Task(obs.TaskSpan{Kind: obs.SpanRecurrence, Track: "query:q", End: 2})
	}, 0
	for ; r <= obs.KeepRecurrences; r++ {
		rec(r)
	}
	if n := testing.AllocsPerRun(100, func() { rec(r); r++ }); n != 0 {
		t.Fatalf("a steady placement allocates %v times", n)
	}
	dec := tr.Decisions()
	for i, e := range dec {
		want := place(r - len(dec) + i)
		want.Candidates = slices.Clone(want.Candidates)
		if e.Type != eventlog.Placement || e.Query != "q" || !reflect.DeepEqual(e.Data, want) {
			t.Fatalf("decision %d = %s %s %+v, want a placement %+v", i, e.Type, e.Query, e.Data, want)
		}
	}
}
