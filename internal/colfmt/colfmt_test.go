package colfmt

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math/rand"
	"slices"
	"testing"

	"redoop/internal/records"
)

// genRecords builds a random batch in the shapes the packer actually
// writes: empty payloads, long payloads, negative and duplicate
// timestamps all occur in real pane files.
func genRecords(rng *rand.Rand, n int) []records.Record {
	recs := make([]records.Record, n)
	for i := range recs {
		data := make([]byte, rng.Intn(64))
		rng.Read(data)
		recs[i] = records.Record{Ts: rng.Int63n(1<<40) - 1<<20, Data: data}
	}
	return recs
}

// genPairs builds a random batch over both cache schemas: the agg
// schema (textual key, fixed-width value) and the join schema
// (composite key, variable tuple value) reduce to arbitrary byte
// strings at this layer, so arbitrary bytes cover both.
func genPairs(rng *rand.Rand, n int) []records.Pair {
	pairs := make([]records.Pair, n)
	for i := range pairs {
		k := make([]byte, 1+rng.Intn(24))
		v := make([]byte, rng.Intn(48))
		rng.Read(k)
		rng.Read(v)
		pairs[i] = records.Pair{Key: k, Value: v}
	}
	return pairs
}

// TestRecordsRoundTrip is the round-trip property: for random batches
// — including the zero-record and single-record panes the packer's
// edge cases produce — encode→decode returns byte- and order-identical
// records.
func TestRecordsRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		n := 0
		switch trial % 4 {
		case 1:
			n = 1
		case 2:
			n = 1 + rng.Intn(8)
		case 3:
			n = 1 + rng.Intn(200)
		}
		recs := genRecords(rng, n)
		enc := EncodeRecords(recs)
		if n == 0 && len(enc) != 0 {
			t.Fatalf("empty batch encoded to %d bytes, want 0", len(enc))
		}
		got, err := DecodeRecords(enc)
		if err != nil {
			t.Fatalf("trial %d: decode: %v", trial, err)
		}
		if len(got) != len(recs) {
			t.Fatalf("trial %d: decoded %d records, want %d", trial, len(got), n)
		}
		for i := range recs {
			if got[i].Ts != recs[i].Ts || !bytes.Equal(got[i].Data, recs[i].Data) {
				t.Fatalf("trial %d: record %d mismatch: got (%d,%q) want (%d,%q)",
					trial, i, got[i].Ts, got[i].Data, recs[i].Ts, recs[i].Data)
			}
		}
		// Concatenated segments (one per pane in a shared group file)
		// decode to the concatenation of the batches.
		double, err := DecodeRecords(append(append([]byte(nil), enc...), enc...))
		if err != nil {
			t.Fatalf("trial %d: concatenated decode: %v", trial, err)
		}
		if len(double) != 2*n {
			t.Fatalf("trial %d: concatenated decode yields %d records, want %d", trial, len(double), 2*n)
		}
	}
}

// checkPairReaders asserts that the append decoder and the header-only
// counter agree with DecodePairs on data. Accepted input: the append
// decoder keeps a non-empty dst prefix and appends exactly DecodePairs'
// views, and the counter returns their number. Rejected input: the
// append decoder fails with ErrCorrupt and hands dst back unextended;
// the counter reads no blob or checksum, so it may still count a file
// whose fault lies inside a segment body, but any error it returns is
// ErrCorrupt.
func checkPairReaders(t *testing.T, data []byte) {
	t.Helper()
	want, wantErr := DecodePairs(data)
	prefix := records.Pair{Key: []byte("pre"), Value: []byte("fix")}
	dst := append(make([]records.Pair, 0, 4), prefix)
	got, err := AppendDecodedPairs(dst, data)
	n, countErr := CountPairs(data)
	if len(got) == 0 || !bytes.Equal(got[0].Key, prefix.Key) || !bytes.Equal(got[0].Value, prefix.Value) {
		t.Fatalf("AppendDecodedPairs lost the dst prefix")
	}
	if wantErr != nil {
		if !errors.Is(err, ErrCorrupt) {
			t.Fatalf("DecodePairs rejects (%v) but AppendDecodedPairs returns %v", wantErr, err)
		}
		if len(got) != len(dst) {
			t.Fatalf("AppendDecodedPairs extended dst by %d on error", len(got)-len(dst))
		}
		if countErr != nil && !errors.Is(countErr, ErrCorrupt) {
			t.Fatalf("CountPairs error %v does not wrap ErrCorrupt", countErr)
		}
		return
	}
	if err != nil || countErr != nil {
		t.Fatalf("DecodePairs accepts but AppendDecodedPairs: %v, CountPairs: %v", err, countErr)
	}
	if n != len(want) || len(got) != 1+len(want) {
		t.Fatalf("DecodePairs %d pairs, CountPairs %d, AppendDecodedPairs %d", len(want), n, len(got)-1)
	}
	for i, w := range want {
		if g := got[1+i]; !bytes.Equal(g.Key, w.Key) || !bytes.Equal(g.Value, w.Value) {
			t.Fatalf("pair %d: append decoder and DecodePairs differ", i)
		}
	}
}

// TestPairsRoundTrip is the pair-schema half of the round-trip
// property.
func TestPairsRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 200; trial++ {
		n := 0
		switch trial % 4 {
		case 1:
			n = 1
		case 2:
			n = 1 + rng.Intn(8)
		case 3:
			n = 1 + rng.Intn(200)
		}
		pairs := genPairs(rng, n)
		enc := EncodePairs(pairs)
		if n == 0 && len(enc) != 0 {
			t.Fatalf("empty batch encoded to %d bytes, want 0", len(enc))
		}
		got, err := DecodePairs(enc)
		if err != nil {
			t.Fatalf("trial %d: decode: %v", trial, err)
		}
		if len(got) != len(pairs) {
			t.Fatalf("trial %d: decoded %d pairs, want %d", trial, len(got), n)
		}
		for i := range pairs {
			if !bytes.Equal(got[i].Key, pairs[i].Key) || !bytes.Equal(got[i].Value, pairs[i].Value) {
				t.Fatalf("trial %d: pair %d mismatch", trial, i)
			}
		}
		// A file is any concatenation of segments: all three readers
		// must see one, two and three copies alike.
		file := enc
		for copies := 1; copies <= 3; copies++ {
			checkPairReaders(t, file)
			if c, _ := CountPairs(file); c != copies*n {
				t.Fatalf("trial %d: %d concatenated segments count %d pairs, want %d", trial, copies, c, copies*n)
			}
			file = append(append([]byte(nil), file...), enc...)
		}
	}
}

// TestEncodeDeterministic pins that the encoding is a pure function of
// the batch — the cache SHA audit and the oracle's re-encode comparison
// both depend on byte-stable output.
func TestEncodeDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	recs := genRecords(rng, 50)
	pairs := genPairs(rng, 50)
	if !bytes.Equal(EncodeRecords(recs), EncodeRecords(recs)) {
		t.Fatal("EncodeRecords is not deterministic")
	}
	if !bytes.Equal(EncodePairs(pairs), EncodePairs(pairs)) {
		t.Fatal("EncodePairs is not deterministic")
	}
}

// recRef names one record of a view.
type recRef struct {
	seg *RecordSegment
	i   int
}

// flatten lists the records of spans in order.
func flatten(spans []Span) (out []recRef) {
	for _, sp := range spans {
		for i := sp.Lo; i < sp.Hi; i++ {
			out = append(out, recRef{sp.Seg, i})
		}
	}
	return out
}

// TestViewRecordsOffsets pins the split-bucketing contract on the view:
// every record is there, in order, with the timestamp and payload it was
// encoded from; payload offsets are non-decreasing, lie inside the file
// and the record's payload is readable at its offset — so a record can
// never be attributed to a byte range outside its own segment (pane).
// Search agrees with a linear scan of those offsets, and a range yields
// exactly the records whose payload starts inside it.
func TestViewRecordsOffsets(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var file []byte
	var all []records.Record
	var bounds []int // segment boundaries, ascending
	for seg := 0; seg < 4; seg++ {
		bounds = append(bounds, len(file))
		recs := genRecords(rng, 1+rng.Intn(20))
		for i := range recs {
			if rng.Intn(4) == 0 {
				recs[i].Data = nil // empty payloads share an offset with their successor
			}
		}
		all = append(all, recs...)
		file = AppendRecords(file, recs)
	}
	bounds = append(bounds, len(file))
	view, err := ViewRecords(file)
	if err != nil {
		t.Fatalf("view: %v", err)
	}
	whole := flatten(view.AppendRange(nil, 0, int64(len(file))))
	if len(whole) != len(all) {
		t.Fatalf("the whole-file range holds %d records, encoded %d", len(whole), len(all))
	}
	prev, seg := -1, 0
	offs := make([]int, len(whole))
	for k, r := range whole {
		ts, payload := r.seg.Record(r.i)
		off := r.seg.Offset(r.i)
		offs[k] = off
		if ts != all[k].Ts || !bytes.Equal(payload, all[k].Data) {
			t.Fatalf("record %d reads (%d, %q), encoded (%d, %q)", k, ts, payload, all[k].Ts, all[k].Data)
		}
		if off < prev {
			t.Fatalf("offsets decrease: %d after %d", off, prev)
		}
		prev = off
		for seg+1 < len(bounds)-1 && off >= bounds[seg+1] {
			seg++
		}
		if off < bounds[seg] || off+len(payload) > bounds[seg+1] {
			t.Fatalf("record at %d (%d bytes) escapes segment [%d,%d)", off, len(payload), bounds[seg], bounds[seg+1])
		}
		if !bytes.Equal(file[off:off+len(payload)], payload) {
			t.Fatalf("payload at %d does not match file bytes", off)
		}
		if cap(payload) != len(payload) {
			t.Fatalf("record %d leaves room to append into its neighbour", k)
		}
	}
	// Search is the linear scan's answer, at every offset of every segment.
	for si := range view.segs {
		s := &view.segs[si]
		for x := bounds[si] - 1; x <= bounds[si+1]+1; x++ {
			want := 0
			for want < s.n && s.Offset(want) < x {
				want++
			}
			if got := s.Search(int64(x)); got != want {
				t.Fatalf("segment %d: Search(%d) = %d, a scan finds %d", si, x, got, want)
			}
		}
	}
	// A range holds the records whose payload starts inside it: the third
	// segment alone from its blob, nothing of a segment from its columns,
	// records of two segments across their boundary, none from an empty
	// range, all from one beyond the file — and a range asked for twice or
	// overlapping another is answered for itself.
	thirdBlob := view.segs[2].base
	for _, c := range [][2]int{
		{thirdBlob, bounds[3]}, {bounds[2], thirdBlob}, {bounds[2] - 9, thirdBlob + 9}, {bounds[2] - 9, thirdBlob + 9},
		{bounds[1], bounds[1]}, {-5, len(file) + 100}, {offs[3], offs[7]}, {offs[3], offs[3] + 1}, {offs[5] + 1, offs[len(offs)-2]},
	} {
		var want []int
		for k, off := range offs {
			if off >= c[0] && off < c[1] {
				want = append(want, k)
			}
		}
		got := flatten(view.AppendRange(nil, int64(c[0]), int64(c[1])))
		if len(got) != len(want) {
			t.Fatalf("range [%d,%d) holds %d records, a scan finds %d", c[0], c[1], len(got), len(want))
		}
		for k, r := range got {
			if w := whole[want[k]]; r != w {
				t.Fatalf("range [%d,%d): record %d is not the scan's", c[0], c[1], k)
			}
		}
	}
}

// TestDecodeRejectsCorruption pins the validator's error cases the way
// TestParsePaneHeaderRejections does for the §3.2 header: every
// corruption class chaos can produce — truncation and byte-flips, plus
// structural damage — yields ErrCorrupt, never success or panic.
func TestDecodeRejectsCorruption(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	recEnc := EncodeRecords(genRecords(rng, 20))
	pairEnc := EncodePairs(genPairs(rng, 20))

	check := func(name string, data []byte) {
		t.Helper()
		if _, err := DecodeRecords(data); err != nil && !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: DecodeRecords error %v does not wrap ErrCorrupt", name, err)
		}
		if _, err := DecodePairs(data); err != nil && !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: DecodePairs error %v does not wrap ErrCorrupt", name, err)
		}
	}

	// Chaos PaneTruncate: data[:len/2].
	if _, err := DecodeRecords(recEnc[:len(recEnc)/2]); !errors.Is(err, ErrCorrupt) {
		t.Errorf("truncated record segment: got %v, want ErrCorrupt", err)
	}
	if _, err := DecodePairs(pairEnc[:len(pairEnc)/2]); !errors.Is(err, ErrCorrupt) {
		t.Errorf("truncated pair segment: got %v, want ErrCorrupt", err)
	}
	// Every truncation of a two-segment pair file off a segment
	// boundary is rejected by all three pair readers — the counter too,
	// since a cut always leaves the last header promising more bytes
	// than remain.
	twoSegs := append(append([]byte(nil), pairEnc...), pairEnc...)
	for cut := 1; cut < len(twoSegs); cut++ {
		if cut == len(pairEnc) {
			continue
		}
		checkPairReaders(t, twoSegs[:cut])
		if _, err := DecodePairs(twoSegs[:cut]); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("pair file cut at %d: DecodePairs got %v, want ErrCorrupt", cut, err)
		}
		if _, err := CountPairs(twoSegs[:cut]); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("pair file cut at %d: CountPairs got %v, want ErrCorrupt", cut, err)
		}
	}
	// Chaos PaneCorrupt: XOR 0xA5 over the middle third.
	for name, enc := range map[string][]byte{"records": recEnc, "pairs": pairEnc, "pairs-2seg": twoSegs} {
		flipped := append([]byte(nil), enc...)
		for i := len(flipped) / 3; i < 2*len(flipped)/3; i++ {
			flipped[i] ^= 0xA5
		}
		check("xor-"+name, flipped)
		checkPairReaders(t, flipped)
		if _, err := DecodePairs(flipped); name != "records" && !errors.Is(err, ErrCorrupt) {
			t.Errorf("xor-corrupted %s: DecodePairs got %v, want ErrCorrupt", name, err)
		}
		if _, err := DecodeRecords(flipped); name == "records" && !errors.Is(err, ErrCorrupt) {
			t.Errorf("xor-corrupted record segment: got %v, want ErrCorrupt", err)
		}
	}
	// Single bit flips anywhere in the segment: the CRC (or a bounds
	// check) must catch every one of them.
	for i := 0; i < len(recEnc); i++ {
		mut := append([]byte(nil), recEnc...)
		mut[i] ^= 1 << uint(i%8)
		if _, err := DecodeRecords(mut); err == nil {
			t.Fatalf("bit flip at byte %d accepted", i)
		} else if !errors.Is(err, ErrCorrupt) {
			t.Fatalf("bit flip at byte %d: error %v does not wrap ErrCorrupt", i, err)
		}
	}
	for i := 0; i < len(pairEnc); i++ {
		mut := append([]byte(nil), pairEnc...)
		mut[i] ^= 1 << uint(i%8)
		checkPairReaders(t, mut)
		if _, err := DecodePairs(mut); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("pair bit flip at byte %d: got %v, want ErrCorrupt", i, err)
		}
	}
	check("zero count", append(append([]byte(nil), "RCR1"...), 0, 0, 0, 0))
	check("short header", []byte("RCR1\x01"))
	check("trailing garbage", append(append([]byte(nil), recEnc...), 'x'))
}

// FuzzColumnarPane mirrors FuzzParsePaneHeader for the columnar
// decoders: arbitrary bytes may be rejected but must never panic, and
// any input a decoder accepts must be internally consistent — records
// re-encode to the identical bytes, and the view's offsets stay inside
// the file in non-decreasing order, so a damaged pane can never be
// silently mis-attributed or misread. Corrupt inputs must fail with
// ErrCorrupt so the recovery ladder (not garbage output) handles them.
func FuzzColumnarPane(f *testing.F) {
	rng := rand.New(rand.NewSource(17))
	good := EncodeRecords(genRecords(rng, 5))
	goodPairs := EncodePairs(genPairs(rng, 5))
	f.Add(good)
	f.Add(goodPairs)
	f.Add(append(append([]byte(nil), good...), goodPairs...)) // mixed magics
	f.Add(append(append([]byte(nil), goodPairs...), goodPairs...))
	f.Add(goodPairs[:len(goodPairs)/2])
	xoredPairs := append([]byte(nil), goodPairs...)
	for i := len(xoredPairs) / 3; i < 2*len(xoredPairs)/3; i++ {
		xoredPairs[i] ^= 0xA5
	}
	f.Add(xoredPairs)
	f.Add(good[:len(good)/2]) // chaos PaneTruncate
	xored := append([]byte(nil), good...)
	for i := len(xored) / 3; i < 2*len(xored)/3; i++ {
		xored[i] ^= 0xA5 // chaos PaneCorrupt
	}
	f.Add(xored)
	f.Add([]byte{})
	f.Add([]byte("RCR1"))
	f.Add([]byte("RCR1\xff\xff\xff\xff"))
	f.Add([]byte("RCP1\x00\x00\x00\x00"))
	f.Add([]byte("\x02\x05alpha\x04\x00")) // varint row framing is not columnar

	f.Fuzz(func(t *testing.T, data []byte) {
		recs, err := DecodeRecords(data)
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("DecodeRecords error %v does not wrap ErrCorrupt", err)
			}
		} else {
			// Accepted input round-trips semantically: re-encoding the
			// decoded records (a concatenated file re-encodes as one
			// segment) and decoding again yields identical records.
			again, err := DecodeRecords(EncodeRecords(recs))
			if err != nil || len(again) != len(recs) {
				t.Fatalf("re-encode of accepted input fails: %v (%d vs %d records)", err, len(again), len(recs))
			}
			for i := range recs {
				if again[i].Ts != recs[i].Ts || !bytes.Equal(again[i].Data, recs[i].Data) {
					t.Fatalf("record %d does not survive re-encode", i)
				}
			}
		}
		checkPairReaders(t, data)
		if pairs, err := DecodePairs(data); err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("DecodePairs error %v does not wrap ErrCorrupt", err)
			}
		} else {
			again, err := DecodePairs(EncodePairs(pairs))
			if err != nil || len(again) != len(pairs) {
				t.Fatalf("re-encode of accepted pairs fails: %v", err)
			}
			for i := range pairs {
				if !bytes.Equal(again[i].Key, pairs[i].Key) || !bytes.Equal(again[i].Value, pairs[i].Value) {
					t.Fatalf("pair %d does not survive re-encode", i)
				}
			}
		}
		view, viewErr := ViewRecords(data)
		if (viewErr == nil) != (err == nil) {
			t.Fatalf("ViewRecords and DecodeRecords disagree: %v vs %v", viewErr, err)
		}
		prev := -1
		for _, r := range flatten(view.AppendRange(nil, 0, int64(len(data)))) {
			off := r.seg.Offset(r.i)
			_, payload := r.seg.Record(r.i)
			if off < prev || off < 0 || off+len(payload) > len(data) || r.seg.Search(int64(off)) > r.i {
				t.Fatalf("record offset %d (payload %d) out of order, bounds or reach of its search (prev %d, len %d)",
					off, len(payload), prev, len(data))
			}
			prev = off
		}
	})
}

// pairCorruptions damages a segment of two or more pairs, each with
// non-empty keys, in every way a pair reader must refuse, the damage
// inside the checksummed bytes resealed with a valid checksum so that
// only the offset checks stand between it and a decode.
func pairCorruptions(enc []byte) map[string][]byte {
	n := int(binary.LittleEndian.Uint32(enc[4:]))
	koff, voff := 8, 8+4*(n+1)
	kb := binary.LittleEndian.Uint32(enc[koff+4*n:])
	damaged := func(at int, v uint32) []byte {
		b := slices.Clone(enc)
		binary.LittleEndian.PutUint32(b[at:], v)
		binary.LittleEndian.PutUint32(b[len(b)-4:], crc32.ChecksumIEEE(b[:len(b)-4]))
		return b
	}
	flipped := slices.Clone(enc)
	flipped[len(flipped)-1] ^= 1
	return map[string][]byte{
		"key offsets decrease":       damaged(koff+4, binary.LittleEndian.Uint32(enc[koff+8:])+1),
		"value offsets decrease":     damaged(voff+4, binary.LittleEndian.Uint32(enc[voff+8:])+1),
		"key offset past the keys":   damaged(koff+4, kb+1),
		"nonzero first key offset":   damaged(koff, 1),
		"nonzero first value offset": damaged(voff, 1),
		"truncated by a byte":        enc[:len(enc)-1],
		"truncated by half":          enc[:len(enc)/2],
		"flipped checksum":           flipped,
	}
}

// viewDecode is the decode AppendDecodedPairs replaced: ViewPairs checks
// each segment whole, then AppendTo reads its offsets again.
func viewDecode(dst []records.Pair, data []byte) ([]records.Pair, error) {
	out := dst
	for len(data) > 0 {
		run, rest, err := ViewPairs(data)
		if err != nil {
			return dst, err
		}
		out, data = run.AppendTo(out), rest
	}
	return out, nil
}

// TestPairCorruptionsAreRejected: each damage pairCorruptions makes is
// refused by both pair decoders, alone and after a good segment.
func TestPairCorruptionsAreRejected(t *testing.T) {
	enc := EncodePairs(genPairs(rand.New(rand.NewSource(41)), 6))
	for name, bad := range pairCorruptions(enc) {
		for _, data := range [][]byte{bad, append(slices.Clone(enc), bad...)} {
			if _, err := viewDecode(nil, data); !errors.Is(err, ErrCorrupt) {
				t.Errorf("%s: ViewPairs accepts it (%v)", name, err)
			}
			if _, err := AppendDecodedPairs(nil, data); !errors.Is(err, ErrCorrupt) {
				t.Errorf("%s: AppendDecodedPairs accepts it (%v)", name, err)
			}
		}
	}
}

// FuzzAppendDecodedPairs holds the one-walk decode to the ViewPairs +
// AppendTo decode it replaced: it accepts exactly what that accepted,
// appending the same pairs after dst, and rejects everything else with
// ErrCorrupt, handing dst back unchanged.
func FuzzAppendDecodedPairs(f *testing.F) {
	rng := rand.New(rand.NewSource(43))
	for _, n := range []int{1, 2, 7} {
		enc := EncodePairs(genPairs(rng, n))
		f.Add(enc)
		f.Add(append(slices.Clone(enc), enc...))
		if n > 1 {
			for _, bad := range pairCorruptions(enc) {
				f.Add(bad)
				f.Add(append(slices.Clone(enc), bad...))
			}
		}
	}
	f.Add(EncodePairs([]records.Pair{{}, {Key: []byte("k")}}))
	f.Add([]byte{})
	prefix := records.Pair{Key: []byte("pre"), Value: []byte("fix")}
	f.Fuzz(func(t *testing.T, data []byte) {
		want, wantErr := viewDecode([]records.Pair{prefix}, data)
		dst := append(make([]records.Pair, 0, 1+len(data)/8), prefix)
		got, err := AppendDecodedPairs(dst, data)
		if wantErr != nil {
			if !errors.Is(err, ErrCorrupt) || len(got) != 1 || &got[0] != &dst[0] ||
				!bytes.Equal(dst[0].Key, prefix.Key) || !bytes.Equal(dst[0].Value, prefix.Value) {
				t.Fatalf("ViewPairs rejects (%v); AppendDecodedPairs returns %d pairs, %v", wantErr, len(got), err)
			}
			return
		}
		if err != nil || len(got) != len(want) {
			t.Fatalf("ViewPairs decodes %d pairs; AppendDecodedPairs %d, %v", len(want)-1, len(got)-1, err)
		}
		for i := range want {
			g, w := got[i], want[i]
			if !bytes.Equal(g.Key, w.Key) || !bytes.Equal(g.Value, w.Value) || cap(g.Key) != len(g.Key) || cap(g.Value) != len(g.Value) {
				t.Fatalf("pair %d: AppendDecodedPairs reads %q=%q, ViewPairs %q=%q", i, g.Key, g.Value, w.Key, w.Value)
			}
		}
	})
}

// TestDecodedViewsAliasTheInput pins the zero-copy contract the stores
// rely on when they take ownership of an encode: decoded payloads are
// views of the buffer handed in, capacity-limited, not copies.
func TestDecodedViewsAliasTheInput(t *testing.T) {
	stored := EncodeRecords(genRecords(rand.New(rand.NewSource(19)), 40))
	views, err := DecodeRecords(stored)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	for i, v := range views {
		if len(v.Data) == 0 {
			continue
		}
		if !aliases(stored, v.Data) {
			t.Fatalf("view %d does not alias the stored buffer — zero-copy contract broken", i)
		}
		if cap(v.Data) != len(v.Data) {
			t.Fatalf("view %d leaves room to append into its neighbour", i)
		}
	}
}

// aliases reports whether view's first byte lies inside buf's array.
func aliases(buf, view []byte) bool {
	for i := range buf {
		if &buf[i] == &view[0] {
			return true
		}
	}
	return false
}

// TestRecordsSizeIsTheEncodedLength: a buffer sized from RecordsSize
// holds the segments appended to it without growing.
func TestRecordsSizeIsTheEncodedLength(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	batches := [][]records.Record{genRecords(rng, 40), nil, genRecords(rng, 1), {{Ts: 7}}}
	size := 0
	for _, b := range batches {
		if got, want := RecordsSize(b), len(EncodeRecords(b)); got != want {
			t.Fatalf("RecordsSize = %d for a %d-byte segment of %d records", got, want, len(b))
		}
		size += RecordsSize(b)
	}
	body := make([]byte, 0, size)
	for _, b := range batches {
		body = AppendRecords(body, b)
	}
	if len(body) != size || cap(body) != size {
		t.Fatalf("packed body is %d bytes (cap %d), sized %d", len(body), cap(body), size)
	}
}

// chunkRecorder keeps what is written to it and the largest write.
type chunkRecorder struct {
	bytes.Buffer
	largest int
}

func (c *chunkRecorder) Write(p []byte) (int, error) {
	c.largest = max(c.largest, len(p))
	return c.Buffer.Write(p)
}

// TestPairStreamWritesEncodePairs: one PairStream, reused, writes
// exactly the segment EncodePairs builds, PairsSize long, in writes no
// larger than its scratch, however large the pairs; keys longer than
// the scratch and segments of many scratches included.
func TestPairStreamWritesEncodePairs(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	var s PairStream
	for trial := 0; trial < 60; trial++ {
		pairs := genPairs(rng, []int{0, 1, 1 + rng.Intn(8), 1 + rng.Intn(3000)}[trial%4])
		if trial%6 == 5 {
			pairs[0].Key = bytes.Repeat([]byte{'k'}, 10000)
		}
		var c chunkRecorder
		s.WritePairs(&c, pairs)
		want := EncodePairs(pairs)
		if !bytes.Equal(c.Bytes(), want) || PairsSize(pairs) != len(want) {
			t.Fatalf("%d pairs: WritePairs wrote %d bytes, PairsSize says %d, EncodePairs %d",
				len(pairs), c.Len(), PairsSize(pairs), len(want))
		}
		if c.largest > 4096 {
			t.Fatalf("%d pairs: one write of %d bytes", len(pairs), c.largest)
		}
	}
}

// writeAll adds pairs to w the way a reducer reusing one buffer emits
// them: each key and value is copied into buf, handed to Add, and
// overwritten by the next pair, so a writer that kept a view would
// encode garbage.
func writeAll(w *PairWriter, pairs []records.Pair) {
	var buf []byte
	for _, p := range pairs {
		buf = append(append(buf[:0], p.Key...), p.Value...)
		w.Add(buf[:len(p.Key)], buf[len(p.Key):])
		clear(buf)
	}
}

// checkPairWriter holds one writer, reused after a Reset, to EncodePairs
// of the same pairs, and its Segment's pairs to views of the segment
// equal to the pairs added; ViewPairs must read the segment back.
func checkPairWriter(t *testing.T, w *PairWriter, pairs []records.Pair) {
	t.Helper()
	w.Reset()
	writeAll(w, pairs)
	want := EncodePairs(pairs)
	if got := w.Encode(); !bytes.Equal(got, want) {
		t.Fatalf("%d pairs: Encode differs from EncodePairs (%d vs %d bytes)", len(pairs), len(got), len(want))
	}
	seg, run := w.Segment()
	views := run.AppendTo(nil)
	if !bytes.Equal(seg, want) || len(views) != len(pairs) || (seg == nil) != (len(pairs) == 0) {
		t.Fatalf("%d pairs: Segment gives %d bytes and %d pairs", len(pairs), len(seg), len(views))
	}
	if run.Size() != records.PairsSize(pairs) {
		t.Fatalf("%d pairs: the run sizes to %d, records.PairsSize to %d", len(pairs), run.Size(), records.PairsSize(pairs))
	}
	for i, p := range pairs {
		v := views[i]
		if !bytes.Equal(v.Key, p.Key) || !bytes.Equal(v.Value, p.Value) {
			t.Fatalf("pair %d: Segment reads %q=%q, added %q=%q", i, v.Key, v.Value, p.Key, p.Value)
		}
		if (len(v.Key) > 0 && !aliases(seg, v.Key)) || (len(v.Value) > 0 && !aliases(seg, v.Value)) {
			t.Fatalf("pair %d is not a view of the segment", i)
		}
	}
	if len(pairs) == 0 {
		return
	}
	run, rest, err := ViewPairs(append(seg, seg...))
	if err != nil || len(rest) != len(seg) || run.Len() != len(pairs) {
		t.Fatalf("ViewPairs of two segments: %d pairs, %d bytes after, %v", run.Len(), len(rest), err)
	}
	for i, p := range pairs {
		if !bytes.Equal(run.Key(i), p.Key) || !bytes.Equal(run.Value(i), p.Value) {
			t.Fatalf("pair %d: ViewPairs reads %q=%q", i, run.Key(i), run.Value(i))
		}
	}
}

// TestPairWriterMatchesEncodePairs: a reduce emit's writer copies what
// it is handed and encodes, byte for byte, what EncodePairs writes for
// the same pairs — the caches it produces are the ones EncodePairs did.
func TestPairWriterMatchesEncodePairs(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	var w PairWriter
	for trial := 0; trial < 200; trial++ {
		n := []int{0, 1, 1 + rng.Intn(8), 1 + rng.Intn(300)}[trial%4]
		pairs := genPairs(rng, n)
		if trial%5 == 0 && n > 0 { // empty keys and values encode too
			pairs[0] = records.Pair{}
		}
		checkPairWriter(t, &w, pairs)
	}
}

// FuzzPairWriter splits arbitrary bytes into pairs (a length byte
// before each key and value) and holds the writer to EncodePairs.
func FuzzPairWriter(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0})
	f.Add([]byte{3, 'k', 'e', 'y', 1, 'v', 2, 'k', '2', 0})
	rng := rand.New(rand.NewSource(31))
	for i := 0; i < 4; i++ {
		var seed []byte
		for _, p := range genPairs(rng, 1+rng.Intn(6)) {
			seed = append(append(append(seed, byte(len(p.Key))), p.Key...), byte(len(p.Value)))
			seed = append(seed, p.Value...)
		}
		f.Add(seed)
	}
	var w PairWriter
	f.Fuzz(func(t *testing.T, data []byte) {
		var pairs []records.Pair
		next := func() []byte {
			n := int(data[0])
			data = data[1:]
			n = min(n, len(data))
			b := data[:n:n]
			data = data[n:]
			return b
		}
		for len(data) > 0 {
			k := next()
			var v []byte
			if len(data) > 0 {
				v = next()
			}
			pairs = append(pairs, records.Pair{Key: k, Value: v})
		}
		checkPairWriter(t, &w, pairs)
	})
}

// FuzzEncodeGroups cuts arbitrary bytes into groups — per group a key, a
// value count and per value a byte that makes it the last value's slice,
// a copy of its bytes or new bytes, the last value carried from group to
// group as a mapper's constant is — and holds PutGroups to EncodePairs
// of the pairs they expand to, byte for byte.
func FuzzEncodeGroups(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0})                                  // one empty key, no values
	f.Add([]byte{0, 3, 2, 0})                            // an empty key, an empty value three times
	f.Add([]byte{1, 'k', 40, 2, 1, '1'})                 // one group, one shared value forty times
	f.Add([]byte{1, 'a', 2, 2, 1, '1', 0, 1, 'b', 3, 0}) // a shared value over two groups
	f.Add([]byte{2, 'k', '1', 4, 2, 1, 'x', 1, 2, 2, 'y', 'z', 0, 0, 0, 1, 2, 1, 'q'})
	f.Fuzz(func(t *testing.T, data []byte) {
		next := func() int {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return int(b)
		}
		cut := func() []byte {
			n := min(next(), len(data))
			b := data[:n:n]
			data = data[n:]
			return b
		}
		var gs []Group
		var pairs []records.Pair
		var last []byte
		for len(data) > 0 {
			g := Group{Key: cut()}
			for n := next() % 64; n > 0; n-- { // past the input's end, the last value's slice
				switch next() % 3 {
				case 1:
					last = slices.Clone(last)
				case 2:
					last = cut()
				}
				g.Values = append(g.Values, last)
				pairs = append(pairs, records.Pair{Key: g.Key, Value: last})
			}
			gs = append(gs, g)
		}
		got := make([]byte, GroupsSize(gs))
		PutGroups(got, gs)
		if want := EncodePairs(pairs); !bytes.Equal(got, want) {
			t.Fatalf("%d groups, %d pairs: PutGroups writes %d bytes, EncodePairs %d, or other bytes", len(gs), len(pairs), len(got), len(want))
		}
	})
}
