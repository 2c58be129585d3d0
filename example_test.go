package redoop_test

import (
	"fmt"
	"slices"
	"strconv"
	"strings"
	"time"

	"redoop"
)

// ExampleSystem_Register runs a recurring count aggregation over three
// windows, demonstrating pane reuse across overlapping windows.
func ExampleSystem_Register() {
	sys, err := redoop.NewSystem(redoop.DefaultClusterConfig())
	if err != nil {
		panic(err)
	}

	sum := func(key []byte, values [][]byte, emit redoop.Emitter) {
		total := 0
		for _, v := range values {
			n := 0
			for _, c := range v {
				n = n*10 + int(c-'0')
			}
			total += n
		}
		emit.Emit(key, []byte(fmt.Sprintf("%d", total)))
	}
	q := &redoop.Query{
		Name:    "events",
		Sources: []redoop.Source{{Name: "S1", Window: redoop.TimeWindow(30*time.Second, 10*time.Second)}},
		Maps: []redoop.MapFunc{func(_ int64, payload []byte, emit redoop.Emitter) {
			emit.Emit(payload, []byte("1"))
		}},
		Reduce:   sum,
		Merge:    sum,
		Reducers: 2,
	}
	h, err := sys.Register(q)
	if err != nil {
		panic(err)
	}

	// One batch of "click" events per 10-second slide.
	batch := func(slide int) []redoop.Record {
		recs := make([]redoop.Record, 10)
		for i := range recs {
			recs[i] = redoop.Record{
				Ts:   int64(slide)*int64(10*time.Second) + int64(i)*int64(time.Second),
				Data: []byte("click"),
			}
		}
		return recs
	}

	fed := 0
	for r := 0; r < 3; r++ {
		for ; fed < 3+r; fed++ {
			if err := h.Ingest(0, batch(fed)); err != nil {
				panic(err)
			}
		}
		res, err := h.RunNext()
		if err != nil {
			panic(err)
		}
		fmt.Printf("window %d: %s=%s (new panes %d, reused %d)\n",
			res.Recurrence+1, res.Output[0].Key, res.Output[0].Value,
			res.NewPanes, res.ReusedPanes)
	}
	// Output:
	// window 1: click=30 (new panes 3, reused 0)
	// window 2: click=30 (new panes 1, reused 2)
	// window 3: click=30 (new panes 1, reused 2)
}

// ExampleCollector calls a map and a reduce function directly, outside
// any query, as a unit test of them would. Both build every pair in one
// buffer they overwrite: each emit copies.
func ExampleCollector() {
	words := func(_ int64, payload []byte, emit redoop.Emitter) {
		var buf [16]byte
		for _, w := range strings.Fields(string(payload)) {
			emit.Emit(append(buf[:0], strings.ToUpper(w)...), []byte("1"))
		}
	}
	count := func(key []byte, values [][]byte, emit redoop.Emitter) {
		var buf [20]byte
		emit.Emit(key, strconv.AppendInt(buf[:0], int64(len(values)), 10))
	}

	var mapped redoop.Collector
	words(0, []byte("to be or not to be"), mapped.Emitter())
	groups, keys := map[string][][]byte{}, []string(nil)
	for _, p := range mapped.Pairs() {
		if _, ok := groups[string(p.Key)]; !ok {
			keys = append(keys, string(p.Key))
		}
		groups[string(p.Key)] = append(groups[string(p.Key)], p.Value)
	}
	slices.Sort(keys)

	var reduced redoop.Collector
	for _, k := range keys {
		count([]byte(k), groups[k], reduced.Emitter())
	}
	for _, p := range reduced.Pairs() {
		fmt.Printf("%s=%s\n", p.Key, p.Value)
	}
	// Output:
	// BE=2
	// NOT=1
	// OR=1
	// TO=2
}

// ExampleTimeWindow shows the pane unit derived from a window
// constraint: GCD(win, slide).
func ExampleTimeWindow() {
	w := redoop.TimeWindow(60*time.Minute, 20*time.Minute)
	fmt.Printf("pane=%v overlap=%.0f%%\n", time.Duration(w.Pane()), 100*w.Overlap())
	// Output:
	// pane=20m0s overlap=67%
}
