package chaos

import (
	"fmt"
	"slices"

	"redoop/internal/core"
	"redoop/internal/lineage"
	"redoop/internal/mapreduce"
	"redoop/internal/records"
	"redoop/internal/simtime"
	"redoop/internal/window"
)

// Injector replays a Schedule against one Redoop run: it composes the
// schedule's task-attempt faults and straggler knobs into the
// mapreduce engine at Bind time, gates batch delivery to realize
// delayed arrivals, and applies the recurrence-scoped actions in
// BeforeRecurrence — always between the window's last batch and its
// trigger, so every post-RunNext oracle check sees the engine's
// recovered state, not a half-applied fault.
type Injector struct {
	sched *Schedule
	mr    *mapreduce.Engine

	held     map[int][][]records.Record // delayed batches per source
	consumed map[int]int                // batches held so far, per action index
	// OnCorrupt, when set, receives every DFS path the injector
	// mangles (the oracle uses it to skip header cross-checks on
	// deliberately damaged files).
	OnCorrupt func(path string)
}

// NewInjector binds a schedule to a runtime: the schedule's fault plan
// is composed with any plan already installed (both get a vote), and
// the straggler/speculative knobs are copied over. Call WrapIngest and
// BeforeRecurrence to complete the wiring for one engine.
func NewInjector(s *Schedule, mr *mapreduce.Engine) *Injector {
	in := &Injector{
		sched:    s,
		mr:       mr,
		held:     map[int][][]records.Record{},
		consumed: map[int]int{},
	}
	if s.MapFailPct > 0 || s.ReduceFailPct > 0 {
		if mr.Faults != nil {
			mr.Faults = mapreduce.FaultPlans{mr.Faults, s}
		} else {
			mr.Faults = s
		}
	}
	if s.Jitter > 0 {
		mr.Jitter = s.Jitter
		mr.StragglerProb = s.StragglerProb
		mr.StragglerFactor = s.StragglerFactor
		mr.JitterSeed = s.Seed
	}
	if s.Speculative {
		mr.Speculative = true
	}
	return in
}

// WrapIngest interposes the delay gate on an engine's ingest path:
// batches selected by a DelayBatch action for the upcoming recurrence
// are held and released — out of arrival order — by BeforeRecurrence,
// just before the window triggers. Out-of-order arrival between
// flushes is legal for the Packer (it buffers by pane until
// FlushThrough), which is exactly the §2.1 upload-lag scenario the
// action models.
func (in *Injector) WrapIngest(eng *core.Engine, inner func(src int, recs []records.Record) error) func(src int, recs []records.Record) error {
	nsrc := len(eng.Query().Sources)
	return func(src int, recs []records.Record) error {
		r := eng.NextRecurrence()
		for i, a := range in.sched.Actions {
			if a.Kind != DelayBatch || a.Recurrence != r || a.Source%nsrc != src {
				continue
			}
			if in.consumed[i] < a.Count {
				in.consumed[i]++
				in.held[src] = append(in.held[src], recs)
				return nil
			}
		}
		return inner(src, recs)
	}
}

// releaseHeld delivers every delayed batch, in hold order.
func (in *Injector) releaseHeld(r int, inner func(src int, recs []records.Record) error) error {
	for src, batches := range in.held {
		for _, b := range batches {
			if err := inner(src, b); err != nil {
				return fmt.Errorf("chaos: releasing delayed batch (src %d, recurrence %d): %w", src, r, err)
			}
		}
		delete(in.held, src)
	}
	return nil
}

// BeforeRecurrence applies every action scheduled for recurrence r.
// Call it after feeding the window's batches and before RunNext;
// `ingest` must be the same sink WrapIngest wraps (typically
// eng.Ingest, or the oracle's tee of it).
func (in *Injector) BeforeRecurrence(r int, eng *core.Engine, ingest func(src int, recs []records.Record) error) error {
	if err := in.releaseHeld(r, ingest); err != nil {
		return err
	}
	workers := len(in.mr.Cluster.NodeIDs())
	for _, a := range in.sched.ActionsAt(r) {
		switch a.Kind {
		case NodeCrash:
			n := a.Node % workers
			if !in.mr.Cluster.Node(n).Alive() || in.aliveCount() <= 1 {
				continue
			}
			in.mr.DFS.FailNodeAt(n, in.triggerTime(eng, r))
			in.mr.Cluster.FailNode(n)
			in.mr.Lineage.RecordFault(lineage.Fault{
				Kind: string(NodeCrash), Node: n, Recurrence: r,
				AtNS: int64(in.triggerTime(eng, r)),
			})
		case NodeRevive:
			n := a.Node % workers
			if in.mr.Cluster.Node(n).Alive() {
				continue
			}
			in.mr.Cluster.ReviveNode(n, in.triggerTime(eng, r))
			in.mr.DFS.ReviveNode(n)
		case CacheDrop:
			n := a.Node % workers
			if !in.mr.Cluster.Node(n).Alive() {
				continue
			}
			in.mr.Cluster.DropLocal(n, "cache/")
			in.mr.Lineage.RecordFault(lineage.Fault{
				Kind: string(CacheDrop), Node: n, Recurrence: r,
				AtNS: int64(in.triggerTime(eng, r)),
			})
		case PaneCorrupt, PaneTruncate:
			if err := in.corruptPane(r, eng, a); err != nil {
				return err
			}
		case DelayBatch:
			// Realized by the ingest gate + releaseHeld above.
		default:
			return fmt.Errorf("chaos: unknown action kind %q", a.Kind)
		}
	}
	return nil
}

func (in *Injector) aliveCount() int {
	n := 0
	for _, id := range in.mr.Cluster.NodeIDs() {
		if in.mr.Cluster.Node(id).Alive() {
			n++
		}
	}
	return n
}

// triggerTime is recurrence r's window-close instant (zero for
// count-based windows, whose units are not times).
func (in *Injector) triggerTime(eng *core.Engine, r int) simtime.Time {
	spec := eng.Query().Spec()
	if spec.Kind != window.TimeBased {
		return 0
	}
	return simtime.Time(spec.WindowClose(r))
}

// corruptPane mangles one already-mapped pane file that is still
// inside the current window: a pane in the overlap region
// [winLo(r), winHi(r-1)] was mapped (and its reduce-input cached)
// during an earlier recurrence, so a correct engine serves the current
// window from caches and never re-reads the damaged bytes. Requires
// r ≥ 1 and overlapping windows; otherwise the action is a no-op.
func (in *Injector) corruptPane(r int, eng *core.Engine, a Action) error {
	if r < 1 {
		return nil
	}
	frames, err := eng.Query().Frames()
	if err != nil {
		return err
	}
	src := a.Source % len(frames)
	lo, _ := frames[src].WindowRange(r)
	_, prevHi := frames[src].WindowRange(r - 1)
	var candidates []string
	seen := map[string]bool{}
	for p := lo; p <= prevHi; p++ {
		inputs, ok := eng.PaneInputs(src, p)
		if !ok {
			continue
		}
		for _, pi := range inputs {
			if path := pi.Input.Path; !seen[path] && in.mr.DFS.Exists(path) {
				seen[path] = true
				candidates = append(candidates, path)
			}
		}
	}
	if len(candidates) == 0 {
		return nil
	}
	path := candidates[int(a.Pick%int64(len(candidates)))]
	data, err := in.mr.DFS.Read(path)
	if err != nil || len(data) == 0 {
		return err
	}
	// Read returns a view of the stored file, which decoded records and
	// emitted pairs may still alias: damage a copy.
	data = slices.Clone(data)
	if a.Kind == PaneTruncate {
		data = data[:len(data)/2]
	} else {
		for i := len(data) / 3; i < 2*len(data)/3; i++ {
			data[i] ^= 0xA5
		}
	}
	if err := in.mr.DFS.Write(path, data); err != nil {
		return err
	}
	if in.OnCorrupt != nil {
		in.OnCorrupt(path)
	}
	in.mr.Lineage.RecordFault(lineage.Fault{
		Kind: string(a.Kind), Node: -1, Path: path, Recurrence: r,
		AtNS: int64(in.triggerTime(eng, r)),
	})
	return nil
}
