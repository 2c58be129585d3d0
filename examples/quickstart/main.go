// Quickstart: a recurring word-count aggregation over a sliding
// window, compared against plain-Hadoop re-execution.
//
// The query counts word occurrences over the last 30 (virtual) minutes
// and re-executes every 10 minutes. Redoop processes each 10-minute
// pane once and assembles windows from cached pane counts; the
// baseline re-reads and re-reduces the full window every time.
//
// Run with:
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"
	"math/rand"
	"time"

	"redoop"
)

const (
	win      = 30 * time.Minute
	slide    = 10 * time.Minute
	perSlide = 50000
	windows  = 5
)

var vocabulary = []string{
	"alpha", "bravo", "charlie", "delta", "echo",
	"foxtrot", "golf", "hotel", "india", "juliet",
}

// batch generates one slide's worth of word records.
func batch(slideIdx int) []redoop.Record {
	rng := rand.New(rand.NewSource(int64(slideIdx) + 7))
	base := int64(slideIdx) * int64(slide)
	recs := make([]redoop.Record, perSlide)
	for i := range recs {
		recs[i] = redoop.Record{
			Ts:   base + rng.Int63n(int64(slide)),
			Data: []byte(vocabulary[rng.Intn(len(vocabulary))]),
		}
	}
	return recs
}

func wordCountQuery() *redoop.Query {
	count := func(_ int64, payload []byte, emit redoop.Emitter) {
		emit.Emit(payload, []byte("1"))
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
	return &redoop.Query{
		Name:     "wordcount",
		Sources:  []redoop.Source{{Name: "S1", Window: redoop.TimeWindow(win, slide)}},
		Maps:     []redoop.MapFunc{count},
		Reduce:   sum,
		Combine:  sum,
		Merge:    sum,
		Reducers: 8,
	}
}

func main() {
	cfg := redoop.DefaultClusterConfig()

	// Two isolated systems so timings don't interfere.
	redoopSys, err := redoop.NewSystem(cfg)
	if err != nil {
		log.Fatal(err)
	}
	hadoopSys, err := redoop.NewSystem(cfg)
	if err != nil {
		log.Fatal(err)
	}
	h, err := redoopSys.Register(wordCountQuery())
	if err != nil {
		log.Fatal(err)
	}
	b, err := hadoopSys.RegisterBaseline(wordCountQuery())
	if err != nil {
		log.Fatal(err)
	}

	slidesPerWindow := int(win / slide)
	fmt.Printf("recurring word count: win=%v slide=%v (overlap %.0f%%), %d windows\n\n",
		win, slide, 100*redoop.TimeWindow(win, slide).Overlap(), windows)
	fmt.Printf("%-8s %14s %14s %10s %14s\n", "window", "redoop", "hadoop", "speedup", "panes new/old")

	fed := 0
	for r := 0; r < windows; r++ {
		for ; fed < slidesPerWindow+r; fed++ {
			data := batch(fed)
			if err := h.Ingest(0, data); err != nil {
				log.Fatal(err)
			}
			if err := b.Ingest(0, data); err != nil {
				log.Fatal(err)
			}
		}
		rr, err := h.RunNext()
		if err != nil {
			log.Fatal(err)
		}
		br, err := b.RunNext()
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-8d %14v %14v %9.1fx %10d/%d\n",
			r+1, rr.Stats.Response.Round(time.Microsecond),
			br.Stats.Response.Round(time.Microsecond),
			float64(br.Stats.Response)/float64(rr.Stats.Response),
			rr.NewPanes, rr.ReusedPanes)

		if r == windows-1 {
			fmt.Println("\nfinal window's top words:")
			redoop.SortPairs(rr.Output)
			for _, p := range rr.Output {
				fmt.Printf("  %-10s %s\n", p.Key, p.Value)
			}
		}
	}
}
