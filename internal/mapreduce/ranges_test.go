package mapreduce

import (
	"encoding/binary"
	"errors"
	"math/rand"
	"slices"
	"testing"

	"redoop/internal/cluster"
	"redoop/internal/colfmt"
	"redoop/internal/dfs"
	"redoop/internal/records"
)

// visitRecords is the walk the map phase used to bucket records with,
// kept as the oracle of the searches that replaced it: it parses a valid
// file of record segments for itself, off the documented layout, and
// calls fn per record with the file offset its payload starts at.
func visitRecords(data []byte, fn func(off int, ts int64, payload []byte)) {
	u32 := binary.LittleEndian.Uint32
	for base := 0; base < len(data); {
		n := int(u32(data[base+4:]))
		ts, offs := data[base+8:], data[base+8+8*n:]
		blob := base + 8 + 8*n + 4*(n+1)
		for i := 0; i < n; i++ {
			lo, hi := blob+int(u32(offs[4*i:])), blob+int(u32(offs[4*i+4:]))
			fn(lo, int64(binary.LittleEndian.Uint64(ts[8*i:])), data[lo:hi])
		}
		base = blob + int(u32(offs[4*n:])) + 4
	}
}

// rangeGeometry decodes one geometry from plain bytes, so the property
// test (bytes drawn for the shapes that matter) and the fuzz target (any
// bytes) check the same thing. block picks the DFS block size, down to
// less than a record. lens is the file, a byte per record: 0xf0 and above
// opens another segment (a shared group file of up to four panes), the
// rest pick a payload length, empty two times in seven; a record's
// timestamp is its index in the file. cuts is the inputs, four bytes per
// range, two per end: the start of a record, a segment boundary or any
// byte of the file — so ranges start mid-record, on a record, overlap,
// repeat and nest.
func rangeGeometry(block byte, lens, cuts []byte) (blockSize int64, file []byte, inputs []Input) {
	blockSize = []int64{16, 64, 700, 4 << 10}[block%4]
	var recs []records.Record
	var offs, bounds []int // payload starts; segment boundaries
	k, segs := 0, 1
	flush := func() {
		bounds = append(bounds, len(file))
		file = colfmt.AppendRecords(file, recs)
		recs = recs[:0]
	}
	for _, b := range lens {
		if b >= 0xf0 {
			if segs < 4 && len(recs) > 0 {
				flush()
				segs++
			}
			continue
		}
		n := []int{0, 0, 1, 3, 7, 20, 45}[b%7]
		recs = append(recs, records.Record{Ts: int64(k), Data: []byte("the-payload-of-a-record-is-what-the-mapper-reads")[:n]})
		k++
	}
	flush()
	bounds = append(bounds, len(file))
	if k == 0 {
		return blockSize, nil, nil
	}
	visitRecords(file, func(off int, _ int64, _ []byte) { offs = append(offs, off) })
	end := func(kind, v byte) int64 {
		switch kind % 3 {
		case 0:
			return int64(offs[int(v)%len(offs)])
		case 1:
			return int64(bounds[int(v)%len(bounds)])
		}
		return int64(v) * int64(len(file)) / 255
	}
	for ; len(cuts) >= 4; cuts = cuts[4:] {
		lo, hi := end(cuts[0], cuts[1]), end(cuts[2], cuts[3])
		inputs = append(inputs, Input{Path: "/in/f", Offset: min(lo, hi), Length: max(lo, hi) - min(lo, hi)})
	}
	return blockSize, file, inputs
}

// rangeRig is a serial engine over a three-node DFS of the given block size.
func rangeRig(t testing.TB, blockSize int64) *Engine {
	e := newRig(t, cluster.Config{Workers: 3, MapSlots: 2, ReduceSlots: 1},
		dfs.Config{BlockSize: blockSize, Replication: 2, Nodes: rangeInts(3), Seed: 7})
	e.Workers = 1
	return e
}

// checkSearchedRanges holds the map phase's searched record ranges
// against the oracle, split by split: every split maps exactly the
// records whose payload starts in its byte range, in file order, with the
// payload bytes the file holds, and the user map is called on those and
// no others, in split order. It returns how many records and splits the
// geometry had.
func checkSearchedRanges(t testing.TB, block byte, lens, cuts []byte) (nrecs, nsplits int) {
	blockSize, file, inputs := rangeGeometry(block, lens, cuts)
	if file == nil {
		return 0, 0
	}
	e := rangeRig(t, blockSize)
	if err := e.DFS.Write("/in/f", file); err != nil {
		t.Fatal(err)
	}
	var offs []int
	var payloads [][]byte
	visitRecords(file, func(off int, ts int64, payload []byte) {
		if ts != int64(len(offs)) {
			t.Fatalf("the oracle reads record %d as %d", len(offs), ts)
		}
		offs, payloads = append(offs, off), append(payloads, payload)
	})
	splits, err := e.SplitsOf(inputs)
	if err != nil {
		t.Fatal(err)
	}
	spans, starts, err := e.viewSplits(splits)
	if err != nil {
		t.Fatal(err)
	}
	var wantCalls []int64
	for i, s := range splits {
		var got, want []int64
		for _, sp := range spans[starts[i]:starts[i+1]] {
			if sp.Lo >= sp.Hi {
				t.Fatalf("split %s: empty span [%d,%d)", s.ID(), sp.Lo, sp.Hi)
			}
			for j := sp.Lo; j < sp.Hi; j++ {
				ts, payload := sp.Seg.Record(j)
				if string(payload) != string(payloads[ts]) || sp.Seg.Offset(j) != offs[ts] {
					t.Fatalf("split %s: record %d reads %q at %d, the file holds %q at %d",
						s.ID(), ts, payload, sp.Seg.Offset(j), payloads[ts], offs[ts])
				}
				got = append(got, ts)
			}
		}
		for k, off := range offs {
			if int64(off) >= s.Lo && int64(off) < s.Hi {
				want = append(want, int64(k))
			}
		}
		if !slices.Equal(got, want) {
			t.Fatalf("split %s [%d,%d): searched records %v, bucketed by payload start %v", s.ID(), s.Lo, s.Hi, got, want)
		}
		wantCalls = append(wantCalls, want...)
	}
	var calls []int64
	job := &Job{Name: "ranges", NumReducers: 1,
		Map:    func(ts int64, _ []byte, emit Emitter) { calls = append(calls, ts); emit.Emit([]byte("k"), nil) },
		Reduce: func(k []byte, vs [][]byte, emit Emitter) { emit.Emit(k, vs[0]) }}
	if _, err := e.PrepareMapPhase(job, inputs); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(calls, wantCalls) {
		t.Fatalf("the user map saw records %v, the splits hold %v", calls, wantCalls)
	}
	return len(offs), len(splits)
}

// rangeShapes draws geometries of the shapes the searches must get right:
// files of one to four segments with empty payloads (also first and last
// in a segment), ranges that end exactly on a record or a segment (the
// sub-ranges of a shared group file the packer hands out), a range listed
// twice, and ranges overlapping as chance has it.
func rangeShapes(rng *rand.Rand) (block byte, lens, cuts []byte) {
	lens = make([]byte, 1+rng.Intn(120))
	for i := range lens {
		lens[i] = byte(rng.Intn(0xf0))
		if rng.Intn(25) == 0 {
			lens[i] = 0xf0 // next segment
		}
	}
	cuts = make([]byte, 4*rng.Intn(5))
	rng.Read(cuts)
	if len(cuts) > 0 && rng.Intn(2) == 0 {
		cuts = append(cuts, cuts[:4]...) // the first range again
	}
	if rng.Intn(3) == 0 {
		cuts = append(cuts, 2, 0, 2, 255) // the whole file
	}
	return byte(rng.Intn(4)), lens, cuts
}

// TestSearchedRangesMatchTheWalk is the property over random geometries,
// and for a tenth of them the corruption half of the contract: with any
// one byte of the file damaged, a map phase over part of it fails with
// ErrCorrupt before the user map is called once.
func TestSearchedRangesMatchTheWalk(t *testing.T) {
	rng := rand.New(rand.NewSource(20261003))
	recs, splits, corrupted := 0, 0, 0
	for trial := 0; trial < 400; trial++ {
		block, lens, cuts := rangeShapes(rng)
		r, s := checkSearchedRanges(t, block, lens, cuts)
		recs, splits = recs+r, splits+s
		if trial%10 != 0 {
			continue
		}
		blockSize, file, _ := rangeGeometry(block, lens, nil)
		e := rangeRig(t, blockSize)
		calls := 0
		job := &Job{Name: "corrupt", NumReducers: 1,
			Map:    func(int64, []byte, Emitter) { calls++ },
			Reduce: func([]byte, [][]byte, Emitter) {}}
		for p := range file {
			bad := slices.Clone(file)
			bad[p] ^= 0x5a
			if err := e.DFS.Write("/in/f", bad); err != nil {
				t.Fatal(err)
			}
			_, err := e.PrepareMapPhase(job, []Input{{Path: "/in/f", Offset: 0, Length: int64(len(file)+1) / 2}})
			if !errors.Is(err, colfmt.ErrCorrupt) || calls != 0 {
				t.Fatalf("trial %d: byte %d of %d damaged: error %v, %d Map calls; want ErrCorrupt and none", trial, p, len(file), err, calls)
			}
			corrupted++
		}
	}
	t.Logf("%d records in %d splits, %d damaged files", recs, splits, corrupted)
	if recs < 10000 || splits < 2000 || corrupted < 5000 {
		t.Fatalf("geometries are vacuous: %d records in %d splits, %d damaged files", recs, splits, corrupted)
	}
}

// FuzzSearchedRanges runs the same check over arbitrary geometries,
// seeded from the property test's shapes.
func FuzzSearchedRanges(f *testing.F) {
	rng := rand.New(rand.NewSource(20261003))
	for i := 0; i < 12; i++ {
		block, lens, cuts := rangeShapes(rng)
		f.Add(block, lens, cuts)
	}
	f.Add(byte(0), []byte{0, 0, 0xf0, 1, 0xff, 0}, []byte{0, 1, 0, 1, 1, 1, 1, 2}) // empty payloads around a boundary
	f.Fuzz(func(t *testing.T, block byte, lens, cuts []byte) {
		if len(lens) > 2000 || len(cuts) > 64 {
			t.Skip()
		}
		checkSearchedRanges(t, block, lens, cuts)
	})
}
