// Package profile is Redoop's critical-path profiler: it reconstructs
// each recurrence's task DAG from the tracer's span stream (map /
// shuffle / reduce / cache-task spans linked by Parent and Deps
// edges), walks the longest dependency chain backwards through virtual
// time, and decomposes the recurrence into an exactly-tiling sequence
// of task / schedule-wait / gap segments whose durations sum to the
// recurrence's measured wall-clock by construction.
//
// The time cache reuse saves is not computed here: the cost ledger
// (internal/account) is the one place that figure lives.
//
// Exporters (export.go) serialize the result as Chrome trace JSON with
// a critical-path overlay track (which speedscope and Perfetto load)
// and a human-readable top-k report for `redoopctl profile`.
package profile

import (
	"fmt"

	"redoop/internal/obs"
	"redoop/internal/simtime"
)

// Segment kinds on a critical path.
const (
	// KindTask is time spent inside a task span on the path.
	KindTask = "task"
	// KindWait is schedule wait: the path's next task was ready but
	// queued for a busy slot (Start − Ready).
	KindWait = "wait"
	// KindGap is time covered by no span on the path — framework
	// overhead between the recurrence trigger and the first task, or a
	// hole the dependency walk could not attribute.
	KindGap = "gap"
)

// Segment is one tile of a recurrence's critical path. Segments are
// contiguous and non-overlapping: the first starts at the recurrence
// trigger, the last ends at its completion, and each begins where the
// previous ended, so their durations sum exactly to the wall-clock.
type Segment struct {
	Kind  string       `json:"kind"`
	Cat   string       `json:"cat,omitempty"`
	Name  string       `json:"name,omitempty"`
	Track string       `json:"track,omitempty"`
	Start simtime.Time `json:"start"`
	End   simtime.Time `json:"end"`
	Span  obs.SpanID   `json:"span,omitempty"`
}

// Dur returns the segment's duration.
func (s Segment) Dur() simtime.Duration { return s.End.Sub(s.Start) }

// Recurrence is the profile of one recurrence: its critical path and a
// per-phase busy breakdown.
type Recurrence struct {
	Query string       `json:"query"`
	Index int          `json:"index"`
	Start simtime.Time `json:"start"`
	End   simtime.Time `json:"end"`
	// Wall is End − Start, the recurrence's virtual wall-clock.
	Wall simtime.Duration `json:"wallNS"`
	// CritPath tiles [Start, End] exactly; see Segment.
	CritPath []Segment `json:"critPath"`
	// CritTask / CritWait / CritGap decompose Wall by segment kind.
	CritTask simtime.Duration `json:"critTaskNS"`
	CritWait simtime.Duration `json:"critWaitNS"`
	CritGap  simtime.Duration `json:"critGapNS"`
	// Phases sums task-span durations by category (map, shuffle,
	// reduce, cachetask, spill, ...) across every task of the
	// recurrence — total busy time, not elapsed time, so phases
	// running on parallel slots count in full.
	Phases map[string]simtime.Duration `json:"phases"`
	// Tasks counts the recurrence's task spans.
	Tasks int `json:"tasks"`
}

// QueryProfile rolls a query's recurrences up.
type QueryProfile struct {
	Recurrences []*Recurrence `json:"recurrences"`
	// CritPath is the summed wall-clock of all recurrences — equal to
	// the summed critical-path lengths by the tiling invariant.
	CritPath simtime.Duration            `json:"critPathNS"`
	Phases   map[string]simtime.Duration `json:"phases"`
}

// Profile is the full analysis of one run's span stream.
type Profile struct {
	Queries map[string]*QueryProfile `json:"queries"`
	// Recurrences lists every recurrence in span-record order.
	Recurrences []*Recurrence `json:"recurrences"`

	spans []obs.Event // retained for trace export
}

// Analyze reconstructs the task DAGs from a tracer's span snapshot
// (obs.Tracer.Events) and returns the full profile. It never mutates
// the snapshot.
func Analyze(spans []obs.Event) *Profile {
	p := &Profile{Queries: map[string]*QueryProfile{}, spans: spans}

	byID := make(map[obs.SpanID]*obs.Event, len(spans))
	children := map[obs.SpanID][]*obs.Event{}
	var roots []*obs.Event
	for i := range spans {
		ev := &spans[i]
		if ev.ID == 0 {
			continue
		}
		byID[ev.ID] = ev
		if ev.Cat == "recurrence" {
			roots = append(roots, ev)
		} else if ev.Parent != 0 {
			children[ev.Parent] = append(children[ev.Parent], ev)
		}
	}

	for _, root := range roots {
		rec := analyzeRecurrence(root, children[root.ID], byID)
		p.Recurrences = append(p.Recurrences, rec)
		q := p.Queries[rec.Query]
		if q == nil {
			q = &QueryProfile{Phases: map[string]simtime.Duration{}}
			p.Queries[rec.Query] = q
		}
		q.Recurrences = append(q.Recurrences, rec)
		q.CritPath += rec.Wall
		for cat, d := range rec.Phases {
			q.Phases[cat] += d
		}
	}
	return p
}

// queryOf extracts the query name from a recurrence root's track
// ("query:<name>").
func queryOf(root *obs.Event) string {
	const prefix = "query:"
	if len(root.Track) > len(prefix) && root.Track[:len(prefix)] == prefix {
		return root.Track[len(prefix):]
	}
	return root.Track
}

func analyzeRecurrence(root *obs.Event, tasks []*obs.Event, byID map[obs.SpanID]*obs.Event) *Recurrence {
	rec := &Recurrence{
		Query:  queryOf(root),
		Start:  root.Start,
		End:    root.End,
		Wall:   root.End.Sub(root.Start),
		Phases: map[string]simtime.Duration{},
		Tasks:  len(tasks),
	}
	fmt.Sscanf(root.Name, "recurrence %d", &rec.Index)
	for _, t := range tasks {
		rec.Phases[t.Cat] += t.End.Sub(t.Start)
	}

	rec.CritPath = criticalPath(root, tasks, byID)
	for _, s := range rec.CritPath {
		switch s.Kind {
		case KindTask:
			rec.CritTask += s.Dur()
		case KindWait:
			rec.CritWait += s.Dur()
		default:
			rec.CritGap += s.Dur()
		}
	}
	return rec
}

// criticalPath walks the dependency DAG backwards from the recurrence's
// latest-finishing task, emitting segments that tile [root.Start,
// root.End] exactly:
//
//   - a task segment for the portion of the current task inside the
//     remaining window,
//   - a wait segment for Start − Ready (slot queueing),
//   - a gap segment whenever the next task on the path finishes before
//     the current frontier (unattributed framework time),
//
// then follows the latest-finishing dependency. When a task has no
// recorded deps (a map over fresh input, or a cache task fed entirely
// by caches carried over from earlier recurrences — the cache-hit
// short-circuit) the walk terminates with a gap back to the trigger if
// any time remains. Because every step moves the frontier monotonically
// toward root.Start and each segment abuts the previous one, the
// segment durations sum to the recurrence wall-clock by construction.
func criticalPath(root *obs.Event, tasks []*obs.Event, byID map[obs.SpanID]*obs.Event) []Segment {
	t := root.End
	var segs []Segment
	// clamp pins an instant inside [root.Start, t]: proactive cache
	// tasks can start (or even finish) before the trigger, and their
	// pre-trigger share belongs to the previous recurrence's window.
	clamp := func(x simtime.Time) simtime.Time {
		if x < root.Start {
			return root.Start
		}
		if x > t {
			return t
		}
		return x
	}
	cur := latestEnd(tasks)
	for cur != nil && t > root.Start {
		if end := clamp(cur.End); end < t {
			segs = append(segs, Segment{Kind: KindGap, Start: end, End: t})
			t = end
			if t <= root.Start {
				break
			}
		}
		if start := clamp(cur.Start); start < t {
			segs = append(segs, Segment{
				Kind: KindTask, Cat: cur.Cat, Name: cur.Name,
				Track: cur.Track, Start: start, End: t, Span: cur.ID,
			})
			t = start
		}
		if t <= root.Start {
			break
		}
		if ready := clamp(cur.Ready); ready < t {
			segs = append(segs, Segment{
				Kind: KindWait, Cat: cur.Cat, Name: cur.Name + " (wait)",
				Track: cur.Track, Start: ready, End: t, Span: cur.ID,
			})
			t = ready
		}
		var next *obs.Event
		for _, d := range cur.Deps {
			if dep, ok := byID[d]; ok {
				if next == nil || dep.End > next.End || (dep.End == next.End && dep.ID > next.ID) {
					next = dep
				}
			}
		}
		cur = next
	}
	if t > root.Start {
		segs = append(segs, Segment{Kind: KindGap, Start: root.Start, End: t})
	}
	// Reverse into chronological order.
	for i, j := 0, len(segs)-1; i < j; i, j = i+1, j-1 {
		segs[i], segs[j] = segs[j], segs[i]
	}
	return segs
}

// latestEnd picks the recurrence's latest-finishing task (ties broken
// by higher SpanID — the later-recorded span — for determinism).
func latestEnd(tasks []*obs.Event) *obs.Event {
	var best *obs.Event
	for _, t := range tasks {
		if best == nil || t.End > best.End || (t.End == best.End && t.ID > best.ID) {
			best = t
		}
	}
	return best
}

// CritPathTotal sums every recurrence's wall-clock (== the summed
// critical-path lengths).
func (p *Profile) CritPathTotal() simtime.Duration {
	var total simtime.Duration
	for _, rec := range p.Recurrences {
		total += rec.Wall
	}
	return total
}

// CheckInvariants verifies the profiler's structural guarantee: every
// recurrence's critical-path segments tile its wall-clock exactly.
// Returns the first violation found.
func (p *Profile) CheckInvariants() error {
	for _, rec := range p.Recurrences {
		var sum simtime.Duration
		prev := rec.Start
		for _, s := range rec.CritPath {
			if s.Start != prev {
				return fmt.Errorf("profile: %s recurrence %d: critical path has a seam at %v (segment starts %v)",
					rec.Query, rec.Index, prev, s.Start)
			}
			if s.End < s.Start {
				return fmt.Errorf("profile: %s recurrence %d: negative segment [%v,%v]",
					rec.Query, rec.Index, s.Start, s.End)
			}
			sum += s.Dur()
			prev = s.End
		}
		if prev != rec.End || sum != rec.Wall {
			return fmt.Errorf("profile: %s recurrence %d: critical path sums to %v, wall-clock is %v",
				rec.Query, rec.Index, sum, rec.Wall)
		}
	}
	return nil
}
