// Clickstream analysis (paper Example 3): an ad broker maintains a
// predictive model — here click-through rates per (publisher,
// advertiser) — by re-running a recurring aggregation over the recent
// clickstream. Traffic spikes (a flash sale) double the stream's rate;
// with Adaptive enabled, Redoop's profiler forecasts the overrun,
// re-partitions input into finer sub-panes and processes them
// proactively as they arrive (§3.3).
//
// Run with:
//
//	go run ./examples/clickstream
package main

import (
	"fmt"
	"log"
	"math/rand"
	"strconv"
	"time"

	"redoop"
)

const (
	win      = 60 * time.Minute
	slide    = 10 * time.Minute
	baseRate = 12000 // records per slide at multiplier 1
	windows  = 9
)

// spikeMultiplier doubles the traffic for the middle windows.
func spikeMultiplier(slideIdx int) int {
	if slideIdx >= 8 && slideIdx <= 11 {
		return 2
	}
	return 1
}

// clickBatch synthesizes one slide of impressions:
// "publisher,advertiser,clicked".
func clickBatch(slideIdx int) []redoop.Record {
	rng := rand.New(rand.NewSource(int64(slideIdx)*101 + 3))
	base := int64(slideIdx) * int64(slide)
	n := baseRate * spikeMultiplier(slideIdx)
	recs := make([]redoop.Record, n)
	for i := range recs {
		clicked := 0
		if rng.Float64() < 0.03 {
			clicked = 1
		}
		payload := fmt.Sprintf("pub%02d,adv%02d,%d", rng.Intn(40), rng.Intn(25), clicked)
		recs[i] = redoop.Record{Ts: base + rng.Int63n(int64(slide)), Data: []byte(payload)}
	}
	return recs
}

// ctrQuery aggregates "impressions,clicks" per (publisher, advertiser);
// the CTR model is derived from the final counts.
func ctrQuery() *redoop.Query {
	mapFn := func(_ int64, payload []byte, emit redoop.Emitter) {
		// Key = "pubXX,advYY", value = "1,<clicked>".
		last := -1
		for i := len(payload) - 1; i >= 0; i-- {
			if payload[i] == ',' {
				last = i
				break
			}
		}
		if last < 0 {
			return
		}
		key := payload[:last] // the emit copies it
		emit.Emit(key, append([]byte("1,"), payload[last+1:]...))
	}
	agg := func(key []byte, values [][]byte, emit redoop.Emitter) {
		var imps, clicks int64
		for _, v := range values {
			var i, c int64
			fmt.Sscanf(string(v), "%d,%d", &i, &c)
			imps += i
			clicks += c
		}
		emit.Emit(key, []byte(fmt.Sprintf("%d,%d", imps, clicks)))
	}
	return &redoop.Query{
		Name:     "ctr-model",
		Sources:  []redoop.Source{{Name: "clicks", Window: redoop.TimeWindow(win, slide)}},
		Maps:     []redoop.MapFunc{mapFn},
		Reduce:   agg,
		Combine:  agg,
		Merge:    agg,
		Reducers: 10,
		Adaptive: true,
	}
}

func main() {
	// A slow cluster (rates ÷ 250000) makes executions commensurate
	// with the slide, the regime where adaptivity matters.
	cfg := redoop.DefaultClusterConfig()
	cfg.Cost.DiskReadBps /= 250000
	cfg.Cost.DiskWriteBps /= 250000
	cfg.Cost.NetBps /= 250000
	cfg.Cost.MapCPUBps /= 250000
	cfg.Cost.ReduceCPUBps /= 250000
	cfg.Cost.SortBps /= 250000
	cfg.Cost.TaskOverhead = 800 * time.Millisecond

	sys, err := redoop.NewSystem(cfg)
	if err != nil {
		log.Fatal(err)
	}
	h, err := sys.Register(ctrQuery())
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("clickstream CTR model: win=%v slide=%v, traffic doubles during windows 3-6\n\n", win, slide)
	fmt.Printf("%-7s %14s %10s %9s %10s %12s\n",
		"window", "response", "proactive", "subpanes", "forecast", "deadline")

	slides := int(win / slide)
	fed := 0
	for r := 0; r < windows; r++ {
		for ; fed < slides+r; fed++ {
			if err := h.Ingest(0, clickBatch(fed)); err != nil {
				log.Fatal(err)
			}
		}
		res, err := h.RunNext()
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-7d %14v %10v %9d %10v %12v\n",
			r+1, res.Stats.Response.Round(time.Second),
			res.Proactive, res.SubPanes,
			h.Forecast().Round(time.Second), slide)

		if r == windows-1 {
			fmt.Println("\nupdated model, highest-CTR pairs:")
			printTopCTR(res.Output, 5)
		}
	}
}

func printTopCTR(out []redoop.Pair, k int) {
	type row struct {
		key string
		ctr float64
		n   int64
	}
	var rows []row
	for _, p := range out {
		var imps, clicks int64
		fmt.Sscanf(string(p.Value), "%d,%d", &imps, &clicks)
		if imps < 100 {
			continue // too little data for the model
		}
		rows = append(rows, row{key: string(p.Key), ctr: float64(clicks) / float64(imps), n: imps})
	}
	for i := 0; i < len(rows); i++ {
		for j := i + 1; j < len(rows); j++ {
			if rows[j].ctr > rows[i].ctr {
				rows[i], rows[j] = rows[j], rows[i]
			}
		}
	}
	if k > len(rows) {
		k = len(rows)
	}
	for _, r := range rows[:k] {
		fmt.Printf("  %-14s ctr=%.3f%% over %d impressions\n", r.key, 100*r.ctr, r.n)
	}
	_ = strconv.Itoa
}
