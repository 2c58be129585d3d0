package main

import (
	"redoop/internal/records"
	"redoop/internal/window"
)

// pool is the benchmark's whole input: poolPanes distinct pane batches
// per source, generated once in set-up from the seed and replayed
// cyclically. Pre-generating a whole run would keep millions of records
// live and inflate the measured recurrences through GC marking; the
// pool is small, constant, and held in pointer-free arrays so the
// collector never scans it while the engine is being timed.
type pool struct {
	pane    int64    // pane unit, virtual ns
	slots   [][]slot // [source][slot]
	records int      // total records generated
}

// slot is one generated pane batch, flattened: record i has timestamp
// ts[i] (inside pane `slot index`) and payload blob[off[i]:off[i+1]].
type slot struct {
	ts   []int64
	off  []uint32
	blob []byte
}

func flatten(recs []records.Record) slot {
	s := slot{ts: make([]int64, len(recs)), off: make([]uint32, len(recs)+1)}
	for i, r := range recs {
		s.ts[i] = r.Ts
		s.blob = append(s.blob, r.Data...)
		s.off[i+1] = uint32(len(s.blob))
	}
	return s
}

func newPool(w spec, seed int64) *pool {
	pl := &pool{pane: window.NewTimeSpec(window60, w.slide).PaneUnit()}
	for _, src := range w.sources {
		slots := make([]slot, poolPanes)
		for i := range slots {
			lo := int64(i) * pl.pane
			slots[i] = flatten(src.gen(seed, lo, lo+pl.pane, src.recsPerPane))
			pl.records += len(slots[i].ts)
		}
		pl.slots = append(pl.slots, slots)
	}
	return pl
}

// batch returns source src's records for absolute pane p: pool slot
// p mod poolPanes with timestamps moved forward by whole pool periods,
// in a fresh slice (the engine keeps what it is handed). Payloads alias
// the pool; nothing downstream writes to them.
func (pl *pool) batch(src int, p int64) []records.Record {
	s := pl.slots[src][p%poolPanes]
	shift := p / poolPanes * poolPanes * pl.pane
	out := make([]records.Record, len(s.ts))
	for i, ts := range s.ts {
		out[i] = records.Record{Ts: ts + shift, Data: s.blob[s.off[i]:s.off[i+1]:s.off[i+1]]}
	}
	return out
}
