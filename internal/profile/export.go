package profile

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"

	"redoop/internal/obs"
	"redoop/internal/simtime"
)

// WriteFolded emits the profile as folded flamegraph stacks
// (flamegraph.pl / speedscope / inferno input): one line per task
// span, frames joined by semicolons, the value being the span's
// duration in microseconds:
//
//	<query>;recurrence <N>;<cat>;<name> <µs>
//
// Spans not parented to a recurrence (DFS replication, for instance)
// fold under their track name instead of a query.
func (p *Profile) WriteFolded(w io.Writer) error {
	rootOf := make(map[obs.SpanID]*Recurrence, len(p.Recurrences))
	for _, rec := range p.Recurrences {
		rootOf[rec.Root] = rec
	}
	// Aggregate identical stacks so repeated task names sum, like
	// collapsed perf samples do.
	totals := map[string]int64{}
	var order []string
	add := func(stack string, dur simtime.Duration) {
		if _, ok := totals[stack]; !ok {
			order = append(order, stack)
		}
		totals[stack] += int64(dur) / 1e3
	}
	for i := range p.spans {
		ev := &p.spans[i]
		if ev.ID == 0 || ev.Cat == "recurrence" || ev.Instant {
			continue
		}
		dur := ev.End.Sub(ev.Start)
		if dur <= 0 {
			continue
		}
		if rec, ok := rootOf[ev.Parent]; ok {
			add(fmt.Sprintf("%s;recurrence %d;%s;%s", rec.Query, rec.Index, ev.Cat, ev.Name), dur)
		} else {
			add(fmt.Sprintf("%s;%s;%s", ev.Track, ev.Cat, ev.Name), dur)
		}
	}
	for _, stack := range order {
		if _, err := fmt.Fprintf(w, "%s %d\n", stack, totals[stack]); err != nil {
			return err
		}
	}
	return nil
}

// WriteFoldedFile writes the folded stacks to a file atomically.
func (p *Profile) WriteFoldedFile(path string) error {
	return obs.WriteFileAtomic(path, p.WriteFolded)
}

// --- critical-path Chrome trace overlay ---

// critTraceEvent mirrors obs's on-the-wire Chrome trace event
// (timestamps in microseconds, pid 1, one tid per track).
type critTraceEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  *float64       `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

type critTraceDoc struct {
	TraceEvents     []critTraceEvent `json:"traceEvents"`
	DisplayTimeUnit string           `json:"displayTimeUnit"`
}

// WriteCritPathTrace writes a Chrome trace document containing every
// task span on its original track plus one "critical-path" overlay
// track per query, holding the recurrences' tiling segments. Loaded
// next to (or instead of) the full tracer export it shows, recurrence
// by recurrence, exactly which task, wait or gap the wall-clock was
// spent on.
func (p *Profile) WriteCritPathTrace(w io.Writer) error {
	doc := critTraceDoc{TraceEvents: []critTraceEvent{}, DisplayTimeUnit: "ms"}
	const pid = 1
	tids := map[string]int{}
	var tracks []string
	tid := func(track string) int {
		id, ok := tids[track]
		if !ok {
			id = len(tracks)
			tids[track] = id
			tracks = append(tracks, track)
		}
		return id
	}
	var events []critTraceEvent
	span := func(name, cat, track string, start, end simtime.Time, args map[string]any) {
		dur := float64(end.Sub(start)) / 1e3
		events = append(events, critTraceEvent{
			Name: name, Cat: cat, Ph: "X", Pid: pid, Tid: tid(track),
			Ts: float64(start) / 1e3, Dur: &dur, Args: args,
		})
	}

	// Overlay tracks first so they sort to the top of the viewer.
	for _, rec := range p.Recurrences {
		track := "critical-path:" + rec.Query
		span(fmt.Sprintf("recurrence %d", rec.Index), "recurrence", track,
			rec.Start, rec.End, map[string]any{
				"wallNS": int64(rec.Wall),
				"taskNS": int64(rec.CritTask),
				"waitNS": int64(rec.CritWait),
				"gapNS":  int64(rec.CritGap),
			})
		for _, s := range rec.CritPath {
			name := s.Name
			if name == "" {
				name = s.Kind
			}
			span(name, "crit-"+s.Kind, track, s.Start, s.End,
				map[string]any{"kind": s.Kind, "track": s.Track})
		}
	}
	for i := range p.spans {
		ev := &p.spans[i]
		if ev.Instant || ev.End == ev.Start {
			continue
		}
		span(ev.Name, ev.Cat, ev.Track, ev.Start, ev.End, nil)
	}

	doc.TraceEvents = append(doc.TraceEvents, critTraceEvent{
		Name: "process_name", Ph: "M", Pid: pid,
		Args: map[string]any{"name": "redoop critical path (virtual time)"},
	})
	for id, track := range tracks {
		doc.TraceEvents = append(doc.TraceEvents, critTraceEvent{
			Name: "thread_name", Ph: "M", Pid: pid, Tid: id,
			Args: map[string]any{"name": track},
		})
	}
	doc.TraceEvents = append(doc.TraceEvents, events...)
	return json.NewEncoder(w).Encode(doc)
}

// WriteCritPathTraceFile writes the overlay trace to a file atomically.
func (p *Profile) WriteCritPathTraceFile(path string) error {
	return obs.WriteFileAtomic(path, p.WriteCritPathTrace)
}

// --- human-readable report ---

// Text writes the `redoopctl profile` report: per query, the summed
// critical path, phase breakdown, and the top-k critical-path segments
// by duration across all recurrences.
func (p *Profile) Text(w io.Writer, topK int) error {
	if topK <= 0 {
		topK = 10
	}
	var qnames []string
	for name := range p.Queries {
		qnames = append(qnames, name)
	}
	sort.Strings(qnames)
	for _, name := range qnames {
		q := p.Queries[name]
		fmt.Fprintf(w, "query %s: %d recurrence(s), critical path %v\n",
			name, len(q.Recurrences), q.CritPath)

		var cats []string
		for cat := range q.Phases {
			cats = append(cats, cat)
		}
		sort.Slice(cats, func(i, j int) bool {
			if q.Phases[cats[i]] != q.Phases[cats[j]] {
				return q.Phases[cats[i]] > q.Phases[cats[j]]
			}
			return cats[i] < cats[j]
		})
		fmt.Fprintf(w, "  phase busy time:")
		for _, cat := range cats {
			fmt.Fprintf(w, " %s=%v", cat, q.Phases[cat])
		}
		fmt.Fprintln(w)

		var task, wait, gap simtime.Duration
		type ranked struct {
			rec int
			seg Segment
		}
		var segs []ranked
		for _, rec := range q.Recurrences {
			task += rec.CritTask
			wait += rec.CritWait
			gap += rec.CritGap
			for _, s := range rec.CritPath {
				segs = append(segs, ranked{rec.Index, s})
			}
		}
		fmt.Fprintf(w, "  critical path split: task=%v wait=%v gap=%v\n", task, wait, gap)
		sort.SliceStable(segs, func(i, j int) bool { return segs[i].seg.Dur() > segs[j].seg.Dur() })
		n := topK
		if n > len(segs) {
			n = len(segs)
		}
		fmt.Fprintf(w, "  top %d critical-path segments:\n", n)
		for _, r := range segs[:n] {
			name := r.seg.Name
			if name == "" {
				name = r.seg.Kind
			}
			fmt.Fprintf(w, "    %9v  r%-3d %-5s %-24s %s\n",
				r.seg.Dur(), r.rec, r.seg.Kind, name, r.seg.Track)
		}
	}
	return nil
}
