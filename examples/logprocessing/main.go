// Log processing (paper Example 1): a data center continuously
// collects web-server logs into the DFS and a recurring query
// aggregates the recent past over a dimension — here, requests per
// country over the last 6 (virtual) hours, refreshed every hour — to
// detect emerging traffic patterns.
//
// The example demonstrates window-aware caching end to end: per-window
// cache reuse counts, byte-level savings versus the plain-Hadoop
// driver, and the per-recurrence output paths of the paper's §5 API.
//
// Run with:
//
//	go run ./examples/logprocessing
package main

import (
	"fmt"
	"log"
	"math/rand"
	"time"

	"redoop"
)

const (
	win     = 6 * time.Hour
	slide   = 1 * time.Hour
	perHour = 30000
	windows = 6
)

var countries = []string{
	"US", "DE", "JP", "BR", "IN", "FR", "GB", "CN", "AU", "CA",
	"MX", "KR", "IT", "ES", "NL", "SE", "PL", "TR", "ID", "NG",
}

// logBatch synthesizes one hour of access-log lines:
// "country,client,url,bytes,status".
func logBatch(hour int) []redoop.Record {
	rng := rand.New(rand.NewSource(int64(hour)*31 + 5))
	base := int64(hour) * int64(slide)
	recs := make([]redoop.Record, perHour)
	for i := range recs {
		line := fmt.Sprintf("%s,c%05d,/page/%03d,%d,%d",
			countries[rng.Intn(len(countries))], rng.Intn(40000),
			rng.Intn(500), 200+rng.Intn(30000), 200)
		recs[i] = redoop.Record{Ts: base + rng.Int63n(int64(slide)), Data: []byte(line)}
	}
	return recs
}

func logQuery() *redoop.Query {
	byCountry := func(_ int64, payload []byte, emit redoop.Emitter) {
		for i, c := range payload {
			if c == ',' {
				emit.Emit(payload[:i], []byte("1"))
				return
			}
		}
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
		Name:     "geo-traffic",
		Sources:  []redoop.Source{{Name: "logs", Window: redoop.TimeWindow(win, slide)}},
		Maps:     []redoop.MapFunc{byCountry},
		Reduce:   sum,
		Merge:    sum,
		Reducers: 10,
	}
}

func main() {
	cfg := redoop.DefaultClusterConfig()
	redoopSys, err := redoop.NewSystem(cfg)
	if err != nil {
		log.Fatal(err)
	}
	hadoopSys, err := redoop.NewSystem(cfg)
	if err != nil {
		log.Fatal(err)
	}
	h, err := redoopSys.Register(logQuery())
	if err != nil {
		log.Fatal(err)
	}
	b, err := hadoopSys.RegisterBaseline(logQuery())
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("log processing: requests per country, win=%v slide=%v (overlap %.0f%%)\n\n",
		win, slide, 100*redoop.TimeWindow(win, slide).Overlap())
	fmt.Printf("%-7s %12s %12s %9s %16s %16s\n",
		"window", "redoop", "hadoop", "speedup", "DFS bytes (R)", "DFS bytes (H)")

	hours := int(win / slide)
	fed := 0
	var lastOut []redoop.Pair
	for r := 0; r < windows; r++ {
		for ; fed < hours+r; fed++ {
			batch := logBatch(fed)
			if err := h.Ingest(0, batch); err != nil {
				log.Fatal(err)
			}
			if err := b.Ingest(0, batch); err != nil {
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
		fmt.Printf("%-7d %12v %12v %8.1fx %16d %16d\n",
			r+1, rr.Stats.Response.Round(time.Microsecond),
			br.Stats.Response.Round(time.Microsecond),
			float64(br.Stats.Response)/float64(rr.Stats.Response),
			rr.Stats.BytesRead, br.Stats.BytesRead)
		lastOut = rr.Output
	}

	fmt.Println("\nlast window, busiest countries:")
	redoop.SortPairs(lastOut)
	// Pick the three with the highest counts.
	type entry struct {
		country string
		count   int
	}
	var top []entry
	for _, p := range lastOut {
		n := 0
		for _, c := range p.Value {
			n = n*10 + int(c-'0')
		}
		top = append(top, entry{string(p.Key), n})
	}
	for i := 0; i < len(top); i++ {
		for j := i + 1; j < len(top); j++ {
			if top[j].count > top[i].count {
				top[i], top[j] = top[j], top[i]
			}
		}
	}
	for i := 0; i < 3 && i < len(top); i++ {
		fmt.Printf("  %-3s %d requests\n", top[i].country, top[i].count)
	}
	fmt.Printf("\nwindow %d output committed at %s\n", windows, h.OutputPath(windows-1))
	fmt.Printf("window %d inputs: %d pane files\n", windows, len(h.InputPaths(windows-1)))
}
