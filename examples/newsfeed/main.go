// News feed updates (paper Example 2): a social network computes
// periodic member updates by joining large evolving datasets — here,
// profile-change events joined with connection activity on the member
// id, over the last 4 (virtual) days refreshed daily, to build each
// member's weekly digest.
//
// This exercises the two-source join path: pane pairs are joined once,
// their results cached, and each day's digest is assembled from the
// cached pair outputs (§6.2.2).
//
// Run with:
//
//	go run ./examples/newsfeed
package main

import (
	"bytes"
	"fmt"
	"log"
	"math/rand"
	"time"

	"redoop"
)

const (
	day     = 24 * time.Hour
	win     = 4 * day
	slide   = 1 * day
	perDay  = 6000
	members = 8000
	windows = 5
)

// profileBatch synthesizes one day of profile-change events:
// "member:change".
func profileBatch(dayIdx int) []redoop.Record {
	rng := rand.New(rand.NewSource(int64(dayIdx)*7 + 1))
	base := int64(dayIdx) * int64(slide)
	changes := []string{"new-job", "new-title", "new-skill", "anniversary"}
	recs := make([]redoop.Record, perDay)
	for i := range recs {
		payload := fmt.Sprintf("m%05d:%s", rng.Intn(members), changes[rng.Intn(len(changes))])
		recs[i] = redoop.Record{Ts: base + rng.Int63n(int64(slide)), Data: []byte(payload)}
	}
	return recs
}

// activityBatch synthesizes one day of connection activity:
// "member:viewed-by-cNNN".
func activityBatch(dayIdx int) []redoop.Record {
	rng := rand.New(rand.NewSource(int64(dayIdx)*13 + 2))
	base := int64(dayIdx) * int64(slide)
	recs := make([]redoop.Record, perDay/2)
	for i := range recs {
		payload := fmt.Sprintf("m%05d:viewed-by-c%04d", rng.Intn(members), rng.Intn(3000))
		recs[i] = redoop.Record{Ts: base + rng.Int63n(int64(slide)), Data: []byte(payload)}
	}
	return recs
}

func digestQuery() *redoop.Query {
	tag := func(prefix byte) redoop.MapFunc {
		return func(_ int64, payload []byte, emit redoop.Emitter) {
			i := bytes.IndexByte(payload, ':')
			if i < 0 {
				return
			}
			key := payload[:i] // the emit copies it
			val := append([]byte{prefix, '|'}, payload[i+1:]...)
			emit.Emit(key, val)
		}
	}
	join := func(key []byte, values [][]byte, emit redoop.Emitter) {
		var changes, views [][]byte
		for _, v := range values {
			if len(v) < 2 || v[1] != '|' {
				continue
			}
			switch v[0] {
			case 'P':
				changes = append(changes, v[2:])
			case 'A':
				views = append(views, v[2:])
			}
		}
		// Digest entry: every (profile change, connection view) of a
		// member in the window.
		for _, c := range changes {
			for _, v := range views {
				entry := make([]byte, 0, len(c)+len(v)+1)
				entry = append(entry, c...)
				entry = append(entry, '+')
				entry = append(entry, v...)
				emit.Emit(key, entry)
			}
		}
	}
	return &redoop.Query{
		Name: "digest",
		Sources: []redoop.Source{
			{Name: "profiles", Window: redoop.TimeWindow(win, slide)},
			{Name: "activity", Window: redoop.TimeWindow(win, slide)},
		},
		Maps:     []redoop.MapFunc{tag('P'), tag('A')},
		Reduce:   join,
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
	h, err := redoopSys.Register(digestQuery())
	if err != nil {
		log.Fatal(err)
	}
	b, err := hadoopSys.RegisterBaseline(digestQuery())
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("news feed digests: profile changes ⋈ connection activity, win=%v slide=%v\n\n",
		win, slide)
	fmt.Printf("%-7s %12s %12s %9s %14s\n", "window", "redoop", "hadoop", "speedup", "pairs new/old")

	days := int(win / slide)
	fed := 0
	for r := 0; r < windows; r++ {
		for ; fed < days+r; fed++ {
			if err := h.Ingest(0, profileBatch(fed)); err != nil {
				log.Fatal(err)
			}
			if err := h.Ingest(1, activityBatch(fed)); err != nil {
				log.Fatal(err)
			}
			if err := b.Ingest(0, profileBatch(fed)); err != nil {
				log.Fatal(err)
			}
			if err := b.Ingest(1, activityBatch(fed)); err != nil {
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
		fmt.Printf("%-7d %12v %12v %8.1fx %10d/%d\n",
			r+1, rr.Stats.Response.Round(time.Microsecond),
			br.Stats.Response.Round(time.Microsecond),
			float64(br.Stats.Response)/float64(rr.Stats.Response),
			rr.NewPairs, rr.ReusedPairs)

		if r == windows-1 {
			fmt.Printf("\n%d digest entries in the final window; a sample:\n", len(rr.Output))
			redoop.SortPairs(rr.Output)
			for i := 0; i < 5 && i < len(rr.Output); i++ {
				fmt.Printf("  %s → %s\n", rr.Output[i].Key, rr.Output[i].Value)
			}
		}
	}
}
