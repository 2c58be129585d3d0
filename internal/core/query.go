package core

import (
	"fmt"
	"strconv"

	"redoop/internal/mapreduce"
	"redoop/internal/window"
)

// Source is one evolving input of a recurring query.
type Source struct {
	// Name identifies the source ("S1", "clicks", ...). It appears in
	// pane file paths and cache identifiers.
	Name string
	// Spec is the window constraint on this source. All sources of one
	// query must share the same win and slide (Redoop's binary
	// operators pair sources on a common recurrence cadence; the
	// paper's experiments use identical constraints on both join
	// inputs).
	Spec window.Spec
	// CacheKey opts into cross-query reduce-input cache sharing: two
	// queries whose sources declare the same non-empty CacheKey — and
	// which therefore assert identical map functions, partitioners and
	// reducer counts over this source — will reuse each other's
	// reduce-input caches, with the controller's doneQueryMask
	// delaying purges until every sharing query is finished. Empty
	// means query-private caches.
	CacheKey string
	// RateBytesPerUnit is the initial arrival-rate estimate (bytes per
	// window unit) Algorithm 1 sizes pane files from; the Execution
	// Profiler refines it as batches arrive.
	RateBytesPerUnit float64
}

// Query is a recurring query: the user's map/reduce logic plus window
// constraints, mirroring the API extensions of paper §5 (map and reduce
// with unchanged Hadoop interfaces, window constraints per source, and
// a finalization function that merges partial outputs into each
// execution's final output).
type Query struct {
	// Name identifies the query in cache identifiers and stats.
	Name string
	// Sources are the query's inputs: one for aggregation-style
	// queries, two for binary joins.
	Sources []Source
	// Maps holds one map function per source.
	Maps []mapreduce.MapFunc
	// Reduce is applied per pane (single source) or per pane pair
	// (two sources). For joins its input groups mix values from both
	// sources; the map functions must tag values so Reduce can tell
	// the sides apart.
	Reduce mapreduce.ReduceFunc
	// Combine optionally pre-aggregates map output (Hadoop combiner).
	Combine mapreduce.ReduceFunc
	// Merge is the finalization function: it merges the per-pane (or
	// per-pair) partial outputs of one window into the window's final
	// output, invoked once per key over the partial values. The values
	// arrive in window order, pane after pane, and must be combined
	// independently of their order. Nil means concatenation — correct
	// for joins, whose window result is the union of its pane-pair
	// results.
	Merge mapreduce.ReduceFunc
	// NumReducers fixes the number of reduce partitions; it must not
	// change across recurrences (§4.3).
	NumReducers int
	// Partition overrides the default hash partitioner; like
	// NumReducers it is fixed for the query's lifetime.
	Partition mapreduce.Partitioner
	// TenantID optionally names the tenant the query runs on behalf
	// of. Purely an accounting dimension: the cost ledger rolls
	// per-query resources up to it; empty means untenanted.
	TenantID string
}

// Validate reports specification errors.
func (q *Query) Validate() error {
	if q.Name == "" {
		return fmt.Errorf("core: query needs a name")
	}
	if len(q.Sources) < 1 || len(q.Sources) > 4 {
		return fmt.Errorf("core: query %q must have 1 to 4 sources, got %d", q.Name, len(q.Sources))
	}
	if len(q.Maps) != len(q.Sources) {
		return fmt.Errorf("core: query %q has %d map functions for %d sources", q.Name, len(q.Maps), len(q.Sources))
	}
	for i, m := range q.Maps {
		if m == nil {
			return fmt.Errorf("core: query %q map function %d is nil", q.Name, i)
		}
	}
	if q.Reduce == nil {
		return fmt.Errorf("core: query %q has no reduce function", q.Name)
	}
	if q.NumReducers <= 0 {
		return fmt.Errorf("core: query %q needs a positive reducer count", q.Name)
	}
	names := make(map[string]bool)
	for i, s := range q.Sources {
		if s.Name == "" {
			return fmt.Errorf("core: query %q source %d needs a name", q.Name, i)
		}
		if names[s.Name] {
			return fmt.Errorf("core: query %q has duplicate source name %q", q.Name, s.Name)
		}
		names[s.Name] = true
		if err := s.Spec.Validate(); err != nil {
			return fmt.Errorf("core: query %q source %q: %w", q.Name, s.Name, err)
		}
		if s.RateBytesPerUnit < 0 {
			return fmt.Errorf("core: query %q source %q: negative rate", q.Name, s.Name)
		}
		if i > 0 {
			a, b := q.Sources[0].Spec, s.Spec
			if a.Kind != b.Kind || a.Slide != b.Slide {
				return fmt.Errorf("core: query %q: sources must share one slide (recurrence cadence) and window kind, got %v and %v",
					q.Name, a, b)
			}
		}
	}
	if len(q.Sources) == 1 && q.Merge == nil {
		return fmt.Errorf("core: query %q: single-source queries need a Merge finalization function", q.Name)
	}
	return nil
}

// Spec returns the first source's window constraint; sources share the
// slide and kind but window sizes may differ (see window.NewFrames).
func (q *Query) Spec() window.Spec { return q.Sources[0].Spec }

// Frames aligns the query's sources onto the shared recurrence cadence.
func (q *Query) Frames() ([]window.Frame, error) {
	specs := make([]window.Spec, len(q.Sources))
	for i, s := range q.Sources {
		specs[i] = s.Spec
	}
	return window.NewFrames(specs)
}

// partitioner returns the effective partitioner.
func (q *Query) partitioner() mapreduce.Partitioner {
	if q.Partition != nil {
		return q.Partition
	}
	return mapreduce.DefaultPartitioner
}

// pidBuf is the stack space a cache identifier (PID) is appended into,
// so that building one allocates only the string a registration keeps
// (Engine.registerCache) — or nothing, for a lookup
// (Engine.lookupCache); a longer PID spills to the heap.
type pidBuf [128]byte

// appendPart ends a PID with its partition, "/r<part>".
func appendPart(b []byte, part int) []byte {
	return strconv.AppendInt(append(b, "/r"...), int64(part), 10)
}

// appendRinScope appends the namespace prefix of a source's
// reduce-input caches: the shared CacheKey when sharing is opted into,
// otherwise a query-private scope.
func (q *Query) appendRinScope(b []byte, src int) []byte {
	if k := q.Sources[src].CacheKey; k != "" {
		return append(append(b, "shared/"...), k...)
	}
	return append(append(b, "query/"...), q.Name...)
}

// rinScope is appendRinScope as a string: the name of the source's
// cache-sharing group in the controller.
func (q *Query) rinScope(src int) string {
	var buf pidBuf
	return string(q.appendRinScope(buf[:0], src))
}

// appendRinPrefix appends "<scope>/<source>/u<unit>/P", the prefix
// shared by every reduce-input PID of one source at one pane unit.
func (q *Query) appendRinPrefix(b []byte, src int, unit int64) []byte {
	b = append(append(q.appendRinScope(b, src), '/'), q.Sources[src].Name...)
	return append(strconv.AppendInt(append(b, "/u"...), unit, 10), "/P"...)
}

// appendRinPID appends the PID of a reduce-input cache, one source
// pane's shuffled partition, to b: "<scope>/<source>/u<unit>/P<pane>/r<part>".
// The effective pane unit is embedded so sources shared between queries
// with different window constraints never collide.
func (q *Query) appendRinPID(b []byte, src int, unit int64, pane window.PaneID, part int) []byte {
	return appendPart(strconv.AppendInt(q.appendRinPrefix(b, src, unit), int64(pane), 10), part)
}

// rinPrefix is how a registry row is recognized as one source's at one
// pane unit.
func (q *Query) rinPrefix(src int, unit int64) string {
	var buf pidBuf
	return string(q.appendRinPrefix(buf[:0], src, unit))
}

// appendRoutTuplePID appends the PID of a pane tuple's reduce-output
// cache to b: "query/<name>/P<p1>_<p2>.../r<part>", an aggregation
// pane's being the one-pane tuple's, "query/<name>/P<pane>/r<part>".
func (q *Query) appendRoutTuplePID(b []byte, t paneTuple, part int) []byte {
	b = append(append(append(b, "query/"...), q.Name...), "/P"...)
	for i, p := range t {
		if i > 0 {
			b = append(b, '_')
		}
		b = strconv.AppendInt(b, int64(p), 10)
	}
	return appendPart(b, part)
}

// Exported cache-identifier accessors for external verification
// tooling (the differential oracle cross-checks controller and
// registry state against the identifiers the engine uses internally).

// ReduceInputPID returns the reduce-input cache identifier of one
// source pane's shuffled partition; unit is the source's effective
// pane unit (window.Frame.Pane).
func (q *Query) ReduceInputPID(src int, unit int64, pane window.PaneID, part int) string {
	var buf pidBuf
	return string(q.appendRinPID(buf[:0], src, unit, pane, part))
}

// ReduceOutputPanePID returns an aggregation pane's reduce-output
// cache identifier.
func (q *Query) ReduceOutputPanePID(pane window.PaneID, part int) string {
	return q.ReduceOutputTuplePID([]window.PaneID{pane}, part)
}

// ReduceOutputTuplePID returns a join pane-tuple's reduce-output cache
// identifier (one pane per source, source order).
func (q *Query) ReduceOutputTuplePID(panes []window.PaneID, part int) string {
	var buf pidBuf
	return string(q.appendRoutTuplePID(buf[:0], paneTuple(panes), part))
}
