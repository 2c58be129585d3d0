package profile

import (
	"fmt"
	"io"
	"sort"

	"redoop/internal/obs"
	"redoop/internal/simtime"
)

// --- critical-path Chrome trace overlay ---

// WriteCritPathTrace writes a Chrome trace document containing every
// task span on its original track plus one "critical-path" overlay
// track per query, holding the recurrences' tiling segments. Loaded
// next to (or instead of) the full tracer export it shows, recurrence
// by recurrence, exactly which task, wait or gap the wall-clock was
// spent on.
func (p *Profile) WriteCritPathTrace(w io.Writer) error {
	doc := obs.NewChromeTrace("redoop critical path (virtual time)")
	// Overlay tracks first so they sort to the top of the viewer.
	for _, rec := range p.Recurrences {
		track := "critical-path:" + rec.Query
		doc.Span(track, "recurrence", fmt.Sprintf("recurrence %d", rec.Index),
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
			doc.Span(track, "crit-"+s.Kind, name, s.Start, s.End,
				map[string]any{"kind": s.Kind, "track": s.Track})
		}
	}
	for i := range p.spans {
		ev := &p.spans[i]
		if ev.End == ev.Start {
			continue
		}
		doc.Span(ev.Track, ev.Cat, ev.Name, ev.Start, ev.End, nil)
	}
	return doc.Encode(w)
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
