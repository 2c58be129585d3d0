// Package mapreduce is a from-scratch MapReduce runtime over the
// simulated cluster and DFS substrates.
//
// It reproduces the structure of Hadoop's execution (paper §2.2): input
// files are split at DFS block granularity; map tasks run on node map
// slots, partition and sort their output by key and spill it to the
// mapper's local disk; reducers copy their partitions as mappers finish
// (the shuffle), group them, and run the user reduce function on node
// reduce slots. A centralized job tracker (the Engine) performs
// list scheduling against per-node slot timelines; task durations come
// from the iocost model while the user map/reduce functions really
// execute, so outputs are exact and timings are deterministic.
//
// The runtime also exposes the phase-level operations (map+shuffle of a
// subset of inputs, reduce over externally supplied cached inputs) that
// Redoop's incremental engine composes.
package mapreduce

import (
	"bytes"
	"fmt"
	"slices"
	"strconv"

	"redoop/internal/colfmt"
	"redoop/internal/dfs"
	"redoop/internal/records"
	"redoop/internal/simtime"
)

// Emitter is where a user function emits its pairs. An emit copies, so
// the caller may reuse its buffers at once: Emit copies key and value
// before it returns, on the map side as on the reduce side, as Hadoop's
// collect and context.write serialize a pair at once.
//
// Emitter is a concrete type, not a func, so that a call to Emit is
// static: the compiler sees that key and value do not escape, and a
// buffer a user function builds a pair in may stay on its stack. The
// runtime hands a MapFunc one that stages into the map output and a
// ReduceFunc one that encodes into the reducer's segment; EmitTo makes
// one for any other caller. The zero Emitter is not usable.
type Emitter struct {
	w *colfmt.PairWriter // the reduce sink
	m *mapSink           // the map sink, when set
}

// EmitTo returns the Emitter that adds every pair to w.
func EmitTo(w *colfmt.PairWriter) Emitter { return Emitter{w: w} }

// Emit copies one pair into the sink.
func (e Emitter) Emit(key, value []byte) {
	if e.m != nil {
		e.m.emit(key, value)
		return
	}
	e.w.Add(key, value)
}

// MapFunc is the user map function, invoked once per input record.
// payload is an immutable view of the stored input, valid for the call.
type MapFunc func(ts int64, payload []byte, emit Emitter)

// ReduceFunc is the user reduce function, invoked once per distinct key
// with all of that key's values. key, values and the bytes in them are
// valid only for the call, as Hadoop's value iterator is: they view the
// caller's grouping scratch and the map output, which the runtime
// recycles. A reducer must not write them.
type ReduceFunc func(key []byte, values [][]byte, emit Emitter)

// Partitioner assigns a key to one of r reduce partitions. It must be
// pure in the key: the runtime may call it only once per distinct key
// per pool worker, for every pair of that key.
type Partitioner func(key []byte, r int) int

// DefaultPartitioner hashes the key with FNV-1a, Hadoop's
// HashPartitioner analogue. Redoop requires the partitioner to stay
// fixed across recurrences so cached reduce inputs remain aligned with
// reducer assignments (paper §4.3).
func DefaultPartitioner(key []byte, r int) int {
	h := uint32(2166136261)
	for _, b := range key {
		h = (h ^ uint32(b)) * 16777619
	}
	return int(h % uint32(r))
}

// Job describes one MapReduce job.
type Job struct {
	// Name identifies the job in stats and fault plans.
	Name string
	// Inputs are the DFS paths to read.
	Inputs []string
	// Map is the user map function (required).
	Map MapFunc
	// Reduce is the user reduce function (required).
	Reduce ReduceFunc
	// Combine optionally pre-aggregates map output per partition
	// before the spill, Hadoop's combiner; what it emits is partitioned
	// by key, as map output is.
	Combine ReduceFunc
	// NumReducers is the number of reduce partitions (required > 0).
	NumReducers int
	// Partition overrides DefaultPartitioner when non-nil.
	Partition Partitioner
	// OutputPath, when non-empty, receives the job's concatenated
	// reducer output in DFS.
	OutputPath string
	// CacheReduceInput models Redoop's modified ReduceTask (paper §5):
	// when true, each reduce task additionally spills its shuffled
	// input to the local file system — the reduce-input cache — and is
	// charged the corresponding disk write.
	CacheReduceInput bool
	// Place overrides the engine's task placement for this job only;
	// Redoop pins each query's reduce partitions to that query's home
	// nodes this way.
	Place Placement
	// LocalOutput marks jobs whose reduce output stays on the task
	// node's local file system (Redoop's reduce-output caches, §5).
	// Plain jobs commit their output to the DFS, paying pipeline
	// replication across the network.
	LocalOutput bool
	// Query names the cost-ledger account this job's work is billed
	// to (see internal/account). Empty leaves the job unattributed:
	// the engine runs it normally but meters nothing.
	Query string
}

// Validate reports job specification errors.
func (j *Job) Validate() error {
	if j.Map == nil {
		return fmt.Errorf("mapreduce: job %q has no map function", j.Name)
	}
	if j.Reduce == nil {
		return fmt.Errorf("mapreduce: job %q has no reduce function", j.Name)
	}
	if j.NumReducers <= 0 {
		return fmt.Errorf("mapreduce: job %q needs a positive reducer count, got %d", j.Name, j.NumReducers)
	}
	return nil
}

func (j *Job) partitioner() Partitioner {
	if j.Partition != nil {
		return j.Partition
	}
	return DefaultPartitioner
}

// Input is one logical map input: a byte range of a DFS file. Redoop's
// Dynamic Data Packer stores multiple undersized panes in one physical
// file (paper §3.2); the file's header lets a job read just one pane's
// range, which Input expresses. Length < 0 means "to end of file".
// Ranges must be record-aligned, which the packer guarantees.
type Input struct {
	Path   string
	Offset int64
	Length int64
}

// WholeFile returns an Input covering all of path.
func WholeFile(path string) Input { return Input{Path: path, Offset: 0, Length: -1} }

// WholeFiles converts paths to full-file Inputs.
func WholeFiles(paths []string) []Input {
	out := make([]Input, len(paths))
	for i, p := range paths {
		out[i] = WholeFile(p)
	}
	return out
}

// Split is one map task's input: the intersection of a logical Input
// range with one DFS block. A record belongs to the split containing
// its first byte.
type Split struct {
	Path  string
	Block dfs.Block
	// Lo and Hi bound the split's byte range within the file
	// (clipped to both the block and the input range).
	Lo, Hi int64
}

// Size returns the split's byte length.
func (s Split) Size() int64 { return s.Hi - s.Lo }

// ID returns a stable identifier for fault plans and logs.
func (s Split) ID() string {
	return s.Path + "#" + strconv.Itoa(s.Block.Index) + "@" + strconv.FormatInt(s.Lo, 10)
}

// Stats aggregates the timing and volume accounting of one job (or one
// phase-level operation). Phase durations are summed task durations, the
// quantity the paper's Figures 6–7 "time distribution" panels report;
// Makespan (End-Start) is the per-window response time.
type Stats struct {
	Start simtime.Time
	End   simtime.Time

	MapTasks       int
	ReduceTasks    int
	FailedAttempts int

	// MapTime is the summed duration of all map task attempts.
	MapTime simtime.Duration
	// ShuffleTime is the summed per-reducer copy time: the span from a
	// reducer starting to copy map output to it starting to sort.
	ShuffleTime simtime.Duration
	// ReduceTime is the summed time reducers spend after the shuffle:
	// sort + group + reduce calls + output write (paper §6.2).
	ReduceTime simtime.Duration

	BytesRead      int64 // DFS input bytes
	BytesReadLocal int64 // portion of BytesRead served by a local replica
	BytesSpilled   int64 // map output spilled to local disk
	BytesShuffled  int64 // bytes copied mapper→reducer
	BytesCacheRead int64 // cached reduce inputs/outputs loaded (Redoop)
	BytesOutput    int64 // reducer output bytes
}

// Makespan returns the job's response time End-Start.
func (s Stats) Makespan() simtime.Duration { return s.End.Sub(s.Start) }

// Accumulate adds o's counters into s and extends the time span. It lets
// a recurrence built from several phase-level operations report one
// combined Stats.
func (s *Stats) Accumulate(o Stats) {
	// A Stats with no tasks and a zero span carries no timing; merging
	// it must not drag the accumulated Start back to t=0.
	zeroSpan := func(x Stats) bool {
		return x.MapTasks == 0 && x.ReduceTasks == 0 && x.Start == 0 && x.End == 0
	}
	if !zeroSpan(o) {
		if zeroSpan(*s) {
			s.Start = o.Start
		} else if o.Start < s.Start {
			s.Start = o.Start
		}
		if o.End > s.End {
			s.End = o.End
		}
	}
	s.MapTasks += o.MapTasks
	s.ReduceTasks += o.ReduceTasks
	s.FailedAttempts += o.FailedAttempts
	s.MapTime += o.MapTime
	s.ShuffleTime += o.ShuffleTime
	s.ReduceTime += o.ReduceTime
	s.BytesRead += o.BytesRead
	s.BytesReadLocal += o.BytesReadLocal
	s.BytesSpilled += o.BytesSpilled
	s.BytesShuffled += o.BytesShuffled
	s.BytesCacheRead += o.BytesCacheRead
	s.BytesOutput += o.BytesOutput
}

// Group is one reduce invocation's input: a key and its values, views of
// their producer's arrays (a Grouper's scratch, a map phase's key groups)
// under ReduceFunc's rule. It is colfmt's, which encodes a partition's
// groups as its cache (colfmt.PutGroups).
type Group = colfmt.Group

// MergeSortedRuns merges key-sorted runs into dst (append-style) by an
// n-way merge, ties going to the lower-numbered run, so the result is
// key-sorted and deterministic. The runs are not modified.
func MergeSortedRuns(dst []records.Pair, runs ...[]records.Pair) []records.Pair {
	live := make([][]records.Pair, 0, len(runs))
	total := 0
	for _, r := range runs {
		if len(r) > 0 {
			live = append(live, r)
			total += len(r)
		}
	}
	dst = slices.Grow(dst, total)
	for len(live) > 1 {
		lo := 0
		for i := 1; i < len(live); i++ {
			if bytes.Compare(live[i][0].Key, live[lo][0].Key) < 0 {
				lo = i
			}
		}
		dst = append(dst, live[lo][0])
		if live[lo] = live[lo][1:]; len(live[lo]) == 0 {
			live = append(live[:lo], live[lo+1:]...)
		}
	}
	if len(live) == 1 {
		dst = append(dst, live[0]...)
	}
	return dst
}

// ReduceGroups is Grouper.Reduce on a writer of its own, for one-off
// callers: the emitted pairs, views of one exactly-sized segment.
func ReduceGroups(fn ReduceFunc, groups []Group) []records.Pair {
	_, out := new(Grouper).Reduce(fn, groups)
	return out.AppendTo(nil)
}
