package obs_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"testing"

	"redoop/internal/obs"
	"redoop/internal/profile"
	"redoop/internal/simtime"
)

// recordRecurrence records recurrence r of query q as an engine's
// RunNext does: parentless phase, replication and instant events, two
// dependent tasks parented to a reserved root, and the root last. Every
// event but the root is named "<q> r<r>".
func recordRecurrence(tr *obs.Tracer, q string, r int) {
	ms := simtime.Duration(simtime.Millisecond)
	at := simtime.Time(int64(r) * int64(simtime.Second))
	name := fmt.Sprintf("%s r%d", q, r)
	root := tr.Reserve()
	tr.Span(obs.QueryTrack(q), "phase", name, at, at.Add(ms))
	tr.Span("replication", "replicate", name, at, at.Add(ms))
	tr.Instant(obs.QueryTrack(q), "adapt", name, at.Add(ms))
	m := tr.Task(obs.TaskSpan{Track: obs.NodeTrack(1), Cat: "map", Name: name,
		Start: at, End: at.Add(2 * ms), Parent: root})
	tr.Task(obs.TaskSpan{Track: obs.NodeTrack(2), Cat: "reduce", Name: name,
		Start: at.Add(2 * ms), End: at.Add(4 * ms), Parent: root, Deps: []obs.SpanID{m}})
	tr.Task(obs.TaskSpan{Track: obs.QueryTrack(q), Cat: "recurrence", Name: fmt.Sprintf("recurrence %d", r),
		Start: at, End: at.Add(5 * ms), ID: root})
}

// Two queries recurring in turn keep exactly their newest
// KeepRecurrences recurrences each, every one whole — its parentless
// events included — and Events, Len, the trace document and the
// profiler all see the same ones.
func TestTracerKeepsNewestRecurrencesPerTrack(t *testing.T) {
	const recs, perRecurrence = 40, 6
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
			t.Errorf("%s keeps %d of its %d events", rec, n, perRecurrence)
		}
	}
	if tr.Len() != len(evs) || len(evs) != 2*obs.KeepRecurrences*perRecurrence {
		t.Errorf("Len %d, Events %d, want %d", tr.Len(), len(evs), 2*obs.KeepRecurrences*perRecurrence)
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
	written := 0
	for i, e := range doc.TraceEvents {
		if e.Ph != "M" {
			if e.Name != evs[written].Name {
				t.Fatalf("trace event %d is %q, Events has %q", i, e.Name, evs[written].Name)
			}
			written++
		}
	}
	if written != len(evs) {
		t.Errorf("trace document has %d events, Events %d", written, len(evs))
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

// Once a track is full, the dropped recurrence's array takes the next
// one's events: steady recording allocates nothing.
func TestTracerRecyclesDroppedSegments(t *testing.T) {
	tr := obs.NewTracer()
	rec := func() {
		tr.Span("query:q", "phase", "map", 0, 1)
		tr.Instant("query:q", "adapt", "re-plan", 1)
		tr.Task(obs.TaskSpan{Track: "query:q", Cat: "recurrence", Name: "recurrence", End: 2})
	}
	for i := 0; i <= obs.KeepRecurrences; i++ {
		rec()
	}
	if n := testing.AllocsPerRun(100, rec); n != 0 {
		t.Fatalf("a steady recurrence allocates %v times", n)
	}
	if got, want := tr.Len(), 3*obs.KeepRecurrences; got != want {
		t.Fatalf("Len = %d, want %d", got, want)
	}
}
