package obs_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"slices"
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
// spans, two dependent tasks parented to a reserved root, a re-plan and
// the finish decision, and the root last. Every span but the root is
// named "<q> r<r>".
func recordRecurrence(tr *obs.Tracer, q string, r int) {
	ms := simtime.Duration(simtime.Millisecond)
	at := simtime.Time(int64(r) * int64(simtime.Second))
	name := fmt.Sprintf("%s r%d", q, r)
	root := tr.Reserve()
	tr.Emit(at, eventlog.RecurrenceStart, q, eventlog.RecurrenceStartData{Recurrence: r})
	tr.Span(obs.QueryTrack(q), "phase", name, at, at.Add(ms))
	tr.Span("replication", "replicate", name, at, at.Add(ms))
	m := tr.Task(obs.TaskSpan{Track: obs.NodeTrack(1), Cat: "map", Name: name,
		Start: at, End: at.Add(2 * ms), Parent: root})
	tr.Task(obs.TaskSpan{Track: obs.NodeTrack(2), Cat: "reduce", Name: name,
		Start: at.Add(2 * ms), End: at.Add(4 * ms), Parent: root, Deps: []obs.SpanID{m}})
	tr.Emit(at.Add(5*ms), eventlog.Replan, q, eventlog.ReplanData{Recurrence: r, SubPanes: 2})
	tr.Emit(at.Add(5*ms), eventlog.RecurrenceFinish, q, eventlog.RecurrenceFinishData{Recurrence: r, ResponseNS: int64(5 * ms)})
	tr.Task(obs.TaskSpan{Track: obs.QueryTrack(q), Cat: "recurrence", Name: fmt.Sprintf("recurrence %d", r),
		Start: at, End: at.Add(5 * ms), ID: root})
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
		var q string
		var r int
		if e.Cat == "recurrence" {
			q = strings.TrimPrefix(e.Track, "query:")
			fmt.Sscanf(e.Name, "recurrence %d", &r)
		} else {
			fmt.Sscanf(e.Name, "%s r%d", &q, &r)
		}
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
		tr.Span("query:q", "phase", "map", 0, 1)
		tr.Emit(1, eventlog.Replan, "q", nil)
		tr.Task(obs.TaskSpan{Track: "query:q", Cat: "recurrence", Name: "recurrence", End: 2})
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
