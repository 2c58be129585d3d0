// Sensor fusion: a three-way recurring join with heterogeneous
// windows, exercising two of this library's extensions beyond the
// paper's binary joins.
//
// A stadium analytics pipeline fuses, every (virtual) minute:
//   - position samples from the last 3 minutes (dense),
//   - ball-contact events from the last 2 minutes (sparse),
//   - referee decisions from the last 6 minutes (rare),
//
// joined on the player id. Each source keeps its own window size on
// the shared one-minute cadence; Redoop caches each pane once and each
// pane *triple*'s join once, assembling every recurrence from cached
// results.
//
// Run with:
//
//	go run ./examples/sensorfusion
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
	slide   = 1 * time.Minute
	winPos  = 3 * time.Minute
	winBall = 2 * time.Minute
	winRef  = 6 * time.Minute
	players = 22
	windows = 6
)

func batch(kind string, seed int64, slideIdx, n int) []redoop.Record {
	rng := rand.New(rand.NewSource(seed + int64(slideIdx)*101))
	base := int64(slideIdx) * int64(slide)
	recs := make([]redoop.Record, n)
	for i := range recs {
		player := rng.Intn(players)
		var payload string
		switch kind {
		case "pos":
			payload = fmt.Sprintf("p%02d:%.1f;%.1f", player, rng.Float64()*105, rng.Float64()*68)
		case "ball":
			payload = fmt.Sprintf("p%02d:touch@%d", player, rng.Intn(60))
		case "ref":
			payload = fmt.Sprintf("p%02d:%s", player, []string{"foul", "offside", "card"}[rng.Intn(3)])
		}
		recs[i] = redoop.Record{Ts: base + rng.Int63n(int64(slide)), Data: []byte(payload)}
	}
	return recs
}

func fusionQuery() *redoop.Query {
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
	return &redoop.Query{
		Name: "fusion",
		Sources: []redoop.Source{
			{Name: "positions", Window: redoop.TimeWindow(winPos, slide)},
			{Name: "ball", Window: redoop.TimeWindow(winBall, slide)},
			{Name: "referee", Window: redoop.TimeWindow(winRef, slide)},
		},
		Maps: []redoop.MapFunc{tag('P'), tag('B'), tag('R')},
		Reduce: func(key []byte, values [][]byte, emit redoop.Emitter) {
			var pos, ball, ref [][]byte
			for _, v := range values {
				if len(v) < 2 || v[1] != '|' {
					continue
				}
				switch v[0] {
				case 'P':
					pos = append(pos, v[2:])
				case 'B':
					ball = append(ball, v[2:])
				case 'R':
					ref = append(ref, v[2:])
				}
			}
			// Fuse: every (position, touch, decision) co-occurrence of
			// one player across the three windows.
			for _, p := range pos {
				for _, b := range ball {
					for _, r := range ref {
						out := make([]byte, 0, len(p)+len(b)+len(r)+2)
						out = append(out, p...)
						out = append(out, '+')
						out = append(out, b...)
						out = append(out, '+')
						out = append(out, r...)
						emit.Emit(key, out)
					}
				}
			}
		},
		Reducers: 8,
	}
}

func main() {
	sys, err := redoop.NewSystem(redoop.DefaultClusterConfig())
	if err != nil {
		log.Fatal(err)
	}
	h, err := sys.Register(fusionQuery())
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("sensor fusion: positions(%v) ⋈ ball(%v) ⋈ referee(%v), every %v\n\n",
		winPos, winBall, winRef, slide)
	fmt.Printf("%-7s %12s %9s %14s %14s %12s\n",
		"window", "response", "fused", "panes new/old", "tuples new/old", "cached bytes")

	// The largest window (6 min) gates the first recurrence.
	slidesToFirst := int(winRef / slide)
	fed := 0
	for r := 0; r < windows; r++ {
		for ; fed < slidesToFirst+r; fed++ {
			if err := h.Ingest(0, batch("pos", 1, fed, 3000)); err != nil {
				log.Fatal(err)
			}
			if err := h.Ingest(1, batch("ball", 2, fed, 150)); err != nil {
				log.Fatal(err)
			}
			if err := h.Ingest(2, batch("ref", 3, fed, 12)); err != nil {
				log.Fatal(err)
			}
		}
		res, err := h.RunNext()
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-7d %12v %9d %10d/%-4d %10d/%-4d %12d\n",
			r+1, res.Stats.Response.Round(time.Microsecond), len(res.Output),
			res.NewPanes, res.ReusedPanes, res.NewPairs, res.ReusedPairs,
			sys.CachedBytes())

		if r == windows-1 {
			redoop.SortPairs(res.Output)
			fmt.Println("\na sample of the final window's fused events:")
			for i := 0; i < 3 && i < len(res.Output); i++ {
				fmt.Printf("  %s → %s\n", res.Output[i].Key, res.Output[i].Value)
			}
		}
	}
}
