package baseline

import (
	"fmt"
	"strconv"
	"testing"

	"redoop/internal/cluster"
	"redoop/internal/core"
	"redoop/internal/dfs"
	"redoop/internal/iocost"
	"redoop/internal/mapreduce"
	"redoop/internal/records"
	"redoop/internal/simtime"
	"redoop/internal/window"
)

func rig(t testing.TB, workers int) *mapreduce.Engine {
	t.Helper()
	ids := make([]int, workers)
	for i := range ids {
		ids[i] = i
	}
	cl, err := cluster.New(cluster.Config{Workers: workers, MapSlots: 4, ReduceSlots: 2})
	if err != nil {
		t.Fatal(err)
	}
	d, err := dfs.New(dfs.Config{BlockSize: 64 << 10, Replication: 2, Nodes: ids, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	mr, err := mapreduce.New(cl, d, iocost.Default())
	if err != nil {
		t.Fatal(err)
	}
	return mr
}

func countQuery() *core.Query {
	sum := func(key []byte, values [][]byte, emit mapreduce.Emitter) {
		total := 0
		for _, v := range values {
			n, _ := strconv.Atoi(string(v))
			total += n
		}
		emit.Emit(key, []byte(strconv.Itoa(total)))
	}
	return &core.Query{
		Name:    "agg",
		Sources: []core.Source{{Name: "S1", Spec: window.NewTimeSpec(30*simtime.Second, 10*simtime.Second)}},
		Maps: []mapreduce.MapFunc{func(_ int64, payload []byte, emit mapreduce.Emitter) {
			emit.Emit(append([]byte(nil), payload...), []byte("1"))
		}},
		Reduce:      sum,
		Merge:       sum,
		NumReducers: 2,
	}
}

func slideBatch(slideIdx, n int) []records.Record {
	base := int64(slideIdx) * int64(10*simtime.Second)
	recs := make([]records.Record, n)
	for i := range recs {
		recs[i] = records.Record{
			Ts:   base + int64(i)*int64(10*simtime.Second)/int64(n),
			Data: []byte(fmt.Sprintf("w%d", i%4)),
		}
	}
	return recs
}

func newDriver(t *testing.T, mr *mapreduce.Engine, q *core.Query) *Driver {
	t.Helper()
	d, err := NewDriver(mr, q)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestDriverValidation(t *testing.T) {
	if _, err := NewDriver(nil, countQuery()); err == nil {
		t.Error("nil runtime should fail")
	}
	bad := countQuery()
	bad.Reduce = nil
	if _, err := NewDriver(rig(t, 2), bad); err == nil {
		t.Error("invalid query should fail")
	}
}

func TestWindowSelectionAndCounts(t *testing.T) {
	drv := newDriver(t, rig(t, 3), countQuery())
	// Each slide batch holds 120 records; a window spans 3 slides.
	for s := 0; s < 5; s++ {
		if err := drv.Ingest(0, slideBatch(s, 120)); err != nil {
			t.Fatal(err)
		}
	}
	for r := 0; r < 3; r++ {
		if drv.NextRecurrence() != r {
			t.Errorf("NextRecurrence = %d, want %d", drv.NextRecurrence(), r)
		}
		res, err := drv.RunNext()
		if err != nil {
			t.Fatal(err)
		}
		total := 0
		for _, p := range res.Output {
			n, _ := strconv.Atoi(string(p.Value))
			total += n
		}
		if total != 360 {
			t.Errorf("window %d counted %d records, want exactly 360 (window filter)", r, total)
		}
		if res.ResponseTime <= 0 {
			t.Error("response time should be positive")
		}
		if res.TriggerAt != simtime.Time(res.Recurrence*int(10*simtime.Second))+simtime.Time(30*simtime.Second) {
			t.Errorf("trigger at %v wrong for recurrence %d", res.TriggerAt, res.Recurrence)
		}
	}
}

func TestIngestValidation(t *testing.T) {
	drv := newDriver(t, rig(t, 2), countQuery())
	if err := drv.Ingest(2, slideBatch(0, 5)); err == nil {
		t.Error("bad source index should fail")
	}
	if err := drv.Ingest(0, nil); err != nil {
		t.Errorf("empty batch should be a no-op, got %v", err)
	}
}

// The baseline re-reads the full window every recurrence: its DFS read
// volume per window stays constant while the window's data is
// constant.
func TestBaselineRereadsEverything(t *testing.T) {
	drv := newDriver(t, rig(t, 3), countQuery())
	for s := 0; s < 6; s++ {
		drv.Ingest(0, slideBatch(s, 200))
	}
	var reads []int64
	for r := 0; r < 4; r++ {
		res, err := drv.RunNext()
		if err != nil {
			t.Fatal(err)
		}
		reads = append(reads, res.Stats.BytesRead)
	}
	for i := 1; i < len(reads); i++ {
		if reads[i] == 0 {
			t.Fatal("baseline should read data every window")
		}
		ratio := float64(reads[i]) / float64(reads[0])
		if ratio < 0.9 || ratio > 1.1 {
			t.Errorf("window %d read %d bytes; expected ≈ window 0's %d", i, reads[i], reads[0])
		}
	}
}

// Merge∘Reduce composition: a query whose Merge differs from Reduce
// (average via sum,count pairs) must produce finalized output.
func TestMergeComposition(t *testing.T) {
	q := countQuery()
	q.Reduce = func(key []byte, values [][]byte, emit mapreduce.Emitter) {
		// Partial: "sum,count".
		sum, count := 0, 0
		for _, v := range values {
			n, _ := strconv.Atoi(string(v))
			sum += n
			count++
		}
		emit.Emit(key, []byte(fmt.Sprintf("%d,%d", sum, count)))
	}
	q.Merge = func(key []byte, values [][]byte, emit mapreduce.Emitter) {
		sum, count := 0, 0
		for _, v := range values {
			var s, c int
			fmt.Sscanf(string(v), "%d,%d", &s, &c)
			sum += s
			count += c
		}
		emit.Emit(key, []byte(fmt.Sprintf("avg=%d/%d", sum, count)))
	}
	drv := newDriver(t, rig(t, 2), q)
	for s := 0; s < 3; s++ {
		drv.Ingest(0, slideBatch(s, 40))
	}
	res, err := drv.RunNext()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Output) == 0 {
		t.Fatal("no output")
	}
	for _, p := range res.Output {
		if string(p.Value[:4]) != "avg=" {
			t.Errorf("output %q not finalized through Merge", p.Value)
		}
	}
}
