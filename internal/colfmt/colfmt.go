// Package colfmt is the columnar encoding of everything the system
// stores: pane files and cached reduce intermediates.
//
// A row layout would interleave per-record headers with payloads, so
// decoding allocates and copies once per record. The columnar layout
// instead groups each field into one contiguous block — timestamps,
// then cumulative payload offsets, then one payload blob — so a
// decoder materializes records as slices aliasing the encoded buffer:
// no per-record allocation, no copies, and the whole segment is
// validated up front by fixed-width arithmetic plus a trailing CRC.
//
// Record segment ("RCR1"):
//
//	magic   [4]byte  "RCR1"
//	count   uint32   little-endian record count (> 0)
//	ts      [count]int64      little-endian timestamps
//	off     [count+1]uint32   cumulative payload offsets, off[0] == 0
//	payload [off[count]]byte  concatenated record payloads
//	crc     uint32   IEEE CRC-32 of everything above
//
// Pair segment ("RCP1"):
//
//	magic   [4]byte  "RCP1"
//	count   uint32   little-endian pair count (> 0)
//	koff    [count+1]uint32   cumulative key offsets, koff[0] == 0
//	voff    [count+1]uint32   cumulative value offsets, voff[0] == 0
//	keys    [koff[count]]byte concatenated keys
//	values  [voff[count]]byte concatenated values
//	crc     uint32   IEEE CRC-32 of everything above
//
// An empty batch encodes to zero bytes (the packer's empty-pane
// invariant), and a file may concatenate any number of segments: each
// segment states its own length, so the shared group files of §3.2 —
// several panes packed into one DFS file — remain walkable pane by
// pane, and PaneSlice over the packer's header yields exactly one
// decodable segment per pane.
//
// A record file has one reader, ViewRecords: it validates the whole file
// and returns a RecordFile, from which record i of a segment and the
// first record at or after a file offset are read off the columns. The
// mapper maps from the view by index — a split's records are two binary
// searches per segment, no record is turned back into a struct — and
// DecodeRecords materializes the same view for callers that want a slice.
// A pair segment's view is a PairRun (ViewPairs), read by index the same
// way; PairWriter writes one as pairs are added, copying each.
//
// Zero-copy lifetime rule: views, decoded records and pairs alias the
// input buffer. The buffer must stay immutable and live for as long as
// anything read from it. Encode* and PairWriter.Encode return
// exactly-sized buffers, which the stores take ownership of
// (Node.PutLocal, dfs.Write).
package colfmt

import (
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"slices"
	"sort"

	"redoop/internal/records"
)

// Magic prefixes of the two segment kinds.
var (
	magicRecords = [4]byte{'R', 'C', 'R', '1'}
	magicPairs   = [4]byte{'R', 'C', 'P', '1'}
)

// ErrCorrupt reports a structurally invalid or checksum-failing
// segment: the pane is unusable and the recovery ladder recomputes it.
var ErrCorrupt = errors.New("colfmt: corrupt segment")

func corruptf(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrCorrupt, fmt.Sprintf(format, args...))
}

// RecordsSize returns the length of the segment AppendRecords writes for
// recs: what a caller packing several into one buffer sizes it from.
func RecordsSize(recs []records.Record) int {
	if len(recs) == 0 {
		return 0
	}
	var blob int
	for _, r := range recs {
		blob += len(r.Data)
	}
	return 8 + 8*len(recs) + 4*(len(recs)+1) + blob + 4
}

// AppendRecords appends one record segment holding recs to dst and
// returns the extended slice. Zero records append nothing.
func AppendRecords(dst []byte, recs []records.Record) []byte {
	base := len(dst)
	dst = append(dst, make([]byte, RecordsSize(recs))...)
	putRecords(dst[base:], recs)
	return dst
}

// EncodeRecords encodes recs as one exactly-sized columnar segment: the
// headers are walked for the size once and the buffer is cleared once.
func EncodeRecords(recs []records.Record) []byte {
	dst := make([]byte, RecordsSize(recs))
	putRecords(dst, recs)
	return dst
}

// putRecords writes the segment holding recs over seg, RecordsSize(recs)
// bytes long.
func putRecords(seg []byte, recs []records.Record) {
	if len(recs) == 0 {
		return
	}
	copy(seg, magicRecords[:])
	binary.LittleEndian.PutUint32(seg[4:], uint32(len(recs)))
	p := 8
	for _, r := range recs {
		binary.LittleEndian.PutUint64(seg[p:], uint64(r.Ts))
		p += 8
	}
	off := uint32(0)
	p += 4 // off[0] == 0
	for _, r := range recs {
		off += uint32(len(r.Data))
		binary.LittleEndian.PutUint32(seg[p:], off)
		p += 4
	}
	for _, r := range recs {
		p += copy(seg[p:], r.Data)
	}
	binary.LittleEndian.PutUint32(seg[p:], crc32.ChecksumIEEE(seg[:p]))
}

// PairsSize returns the length of the segment EncodePairs writes for
// pairs.
func PairsSize(pairs []records.Pair) int {
	if len(pairs) == 0 {
		return 0
	}
	n := 8 + 2*4*(len(pairs)+1) + 4
	for _, pr := range pairs {
		n += len(pr.Key) + len(pr.Value)
	}
	return n
}

// EncodePairs encodes pairs as one exactly-sized columnar segment.
func EncodePairs(pairs []records.Pair) []byte {
	if len(pairs) == 0 {
		return nil
	}
	dst := make([]byte, PairsSize(pairs))
	PutPairs(dst, pairs)
	return dst
}

// PutPairs writes the segment EncodePairs returns for pairs over dst,
// PairsSize(pairs) bytes long: a caller packing several segments into
// one buffer cuts it by their sizes and fills the pieces apart.
func PutPairs(dst []byte, pairs []records.Pair) {
	if len(pairs) == 0 {
		return
	}
	copy(dst, magicPairs[:])
	binary.LittleEndian.PutUint32(dst[4:], uint32(len(pairs)))
	p, off := 12, uint32(0) // koff[0] == 0
	for _, pr := range pairs {
		off += uint32(len(pr.Key))
		binary.LittleEndian.PutUint32(dst[p:], off)
		p += 4
	}
	p, off = p+4, 0 // voff[0] == 0
	for _, pr := range pairs {
		off += uint32(len(pr.Value))
		binary.LittleEndian.PutUint32(dst[p:], off)
		p += 4
	}
	for _, pr := range pairs {
		p += copy(dst[p:], pr.Key)
	}
	for _, pr := range pairs {
		p += copy(dst[p:], pr.Value)
	}
	binary.LittleEndian.PutUint32(dst[p:], crc32.ChecksumIEEE(dst[:p]))
}

// Group is one key and its values: the pairs of one key, a key group of
// a map phase's output, one reduce invocation's input.
type Group struct {
	Key    []byte
	Values [][]byte
}

// GroupsSize returns the length of the segment PutGroups writes for gs.
func GroupsSize(gs []Group) int {
	n, kb := groupsShape(gs)
	if n == 0 {
		return 0
	}
	vb := 0
	for _, g := range gs {
		for _, v := range g.Values {
			vb += len(v)
		}
	}
	return 8 + 2*4*(n+1) + kb + vb + 4
}

// groupsShape returns the pair count and the key bytes of gs's segment.
func groupsShape(gs []Group) (n, kb int) {
	for _, g := range gs {
		n, kb = n+len(g.Values), kb+len(g.Key)*len(g.Values)
	}
	return n, kb
}

// PutGroups writes the groups' pairs, each group's key with each of its
// values in order, as one columnar segment over dst, GroupsSize(gs)
// bytes long (see PutPairs): byte for byte what PutPairs writes for
// those pairs. A key, and each run of values that share one slice, is
// copied once and then doubled.
func PutGroups(dst []byte, gs []Group) {
	n, kb := groupsShape(gs)
	if n == 0 {
		return
	}
	copy(dst, magicPairs[:])
	binary.LittleEndian.PutUint32(dst[4:], uint32(n))
	ko, vo, kp, vp := 12, 16+4*n, 16+8*n, 16+8*n+kb // past koff[0] and voff[0], both 0
	var koff, voff uint32
	for _, g := range gs {
		kp += repeat(dst[kp:], g.Key, len(g.Values))
		for i, j := 0, 0; i < len(g.Values); i = j {
			v := g.Values[i]
			for j = i + 1; j < len(g.Values) && sameSlice(g.Values[j], v); j++ {
			}
			vp += repeat(dst[vp:], v, j-i)
			for ; i < j; i++ {
				koff, voff = koff+uint32(len(g.Key)), voff+uint32(len(v))
				binary.LittleEndian.PutUint32(dst[ko:], koff)
				binary.LittleEndian.PutUint32(dst[vo:], voff)
				ko, vo = ko+4, vo+4
			}
		}
	}
	binary.LittleEndian.PutUint32(dst[vp:], crc32.ChecksumIEEE(dst[:vp]))
}

// sameSlice reports whether a and b are one slice: as long, at one address.
func sameSlice(a, b []byte) bool { return len(a) == len(b) && (len(a) == 0 || &a[0] == &b[0]) }

// repeat writes b n times at the start of dst, copying it once and then
// doubling what is written, and returns the length written.
func repeat(dst, b []byte, n int) int {
	end := len(b) * n
	for w := copy(dst[:end], b); w < end; {
		w += copy(dst[w:end], dst[:w])
	}
	return end
}

// PairStream writes what EncodePairs returns a 4 KB chunk at a time, so
// a caller that only hashes a segment never holds it. Keep one to reuse.
type PairStream struct {
	w   io.Writer
	crc uint32
	n   int
	buf [4096]byte
}

// WritePairs writes pairs' segment to w, a hash: errors go unreported.
func (s *PairStream) WritePairs(w io.Writer, pairs []records.Pair) {
	if len(pairs) == 0 {
		return
	}
	s.w, s.crc, s.n = w, 0, 0
	s.put(magicPairs[:])
	s.u32(uint32(len(pairs)))
	var koff, voff uint32
	s.u32(0)
	for _, pr := range pairs {
		koff += uint32(len(pr.Key))
		s.u32(koff)
	}
	s.u32(0)
	for _, pr := range pairs {
		voff += uint32(len(pr.Value))
		s.u32(voff)
	}
	for _, pr := range pairs {
		s.put(pr.Key)
	}
	for _, pr := range pairs {
		s.put(pr.Value)
	}
	s.flush()
	w.Write(binary.LittleEndian.AppendUint32(s.buf[:0], s.crc))
}

// put copies b into buf; a full buf goes to w and into the running CRC.
func (s *PairStream) put(b []byte) {
	for len(b) > 0 {
		if s.n == len(s.buf) {
			s.flush()
		}
		c := copy(s.buf[s.n:], b)
		s.n, b = s.n+c, b[c:]
	}
}

func (s *PairStream) u32(v uint32) { s.put(binary.LittleEndian.AppendUint32(make([]byte, 0, 4), v)) }

func (s *PairStream) flush() {
	s.crc = crc32.Update(s.crc, crc32.IEEETable, s.buf[:s.n])
	s.w.Write(s.buf[:s.n])
	s.n = 0
}

// RecordFile is the validated, random-access view of a file of
// concatenated record segments, and the one reader of the record format:
// the mapper maps straight from it, by index, and DecodeRecords
// materializes it.
type RecordFile struct{ segs []RecordSegment }

// RecordSegment is one segment of a RecordFile: its record count, the
// file offset of its blob's first byte and views of its three columns.
type RecordSegment struct {
	n, base        int
	ts, offs, blob []byte
}

// Span is records [Lo, Hi) of one segment.
type Span struct {
	Seg    *RecordSegment
	Lo, Hi int
}

// ViewRecords validates a whole file of concatenated record segments and
// returns its view. Every bound is checked before any column is touched,
// then the checksum and the offset column, so malformed input yields
// ErrCorrupt — never a panic, never a partial view.
func ViewRecords(data []byte) (RecordFile, error) {
	var f RecordFile
	for base := 0; base < len(data); {
		seg := data[base:]
		if len(seg) < 8 {
			return RecordFile{}, corruptf("record segment header truncated (%d bytes)", len(seg))
		}
		if [4]byte(seg) != magicRecords {
			return RecordFile{}, corruptf("bad record segment magic %q", seg[:4])
		}
		n := binary.LittleEndian.Uint32(seg[4:])
		if n == 0 {
			return RecordFile{}, corruptf("record segment with zero count")
		}
		// Fixed-width prefix: magic+count, ts column, offset column.
		tsEnd := uint64(8) + 8*uint64(n)
		fixed := tsEnd + 4*(uint64(n)+1)
		if fixed+4 > uint64(len(seg)) {
			return RecordFile{}, corruptf("record columns truncated: need %d fixed bytes, have %d", fixed+4, len(seg))
		}
		end := fixed + uint64(binary.LittleEndian.Uint32(seg[fixed-4:])) // of the blob
		if end+4 > uint64(len(seg)) {
			return RecordFile{}, corruptf("record payload truncated: need %d bytes, have %d", end+4, len(seg))
		}
		if got, want := crc32.ChecksumIEEE(seg[:end]), binary.LittleEndian.Uint32(seg[end:]); got != want {
			return RecordFile{}, corruptf("record segment checksum mismatch (%08x != %08x)", got, want)
		}
		if err := checkOffsets("record", seg[tsEnd:fixed], n); err != nil {
			return RecordFile{}, err
		}
		f.segs = append(f.segs, RecordSegment{int(n), base + int(fixed), seg[8:tsEnd], seg[tsEnd:fixed], seg[fixed:end]})
		base += int(end) + 4
	}
	return f, nil
}

// Record returns record i of the segment: its timestamp and its payload,
// a capacity-limited view of the file, so an append by the caller cannot
// clobber the next record.
func (s *RecordSegment) Record(i int) (ts int64, payload []byte) {
	lo, hi := binary.LittleEndian.Uint32(s.offs[4*i:]), binary.LittleEndian.Uint32(s.offs[4*i+4:])
	return int64(binary.LittleEndian.Uint64(s.ts[8*i:])), s.blob[lo:hi:hi]
}

// Offset returns the file offset record i's payload starts at; for i the
// record count, where the blob ends. Offsets never decrease and never
// leave the record's own segment.
func (s *RecordSegment) Offset(i int) int {
	return s.base + int(binary.LittleEndian.Uint32(s.offs[4*i:]))
}

// Search returns the first record of the segment whose payload starts at
// or after file offset x, the record count when none does: a binary
// search on the cumulative offset column.
func (s *RecordSegment) Search(x int64) int {
	return sort.Search(s.n, func(i int) bool { return int64(s.Offset(i)) >= x })
}

// AppendRange appends to dst the records whose payload starts in the file
// byte range [lo, hi) — Hadoop's split rule, "a record belongs to the
// split holding its first payload byte", empty payloads included — as one
// span per segment that has any, in file order. Each call searches for
// itself, so ranges that overlap each get every record of theirs.
func (f RecordFile) AppendRange(dst []Span, lo, hi int64) []Span {
	// Segments whose blob ends before lo hold no such record.
	i := sort.Search(len(f.segs), func(i int) bool { return int64(f.segs[i].Offset(f.segs[i].n)) >= lo })
	for ; i < len(f.segs) && int64(f.segs[i].base) < hi; i++ {
		s := &f.segs[i]
		if a, b := s.Search(lo), s.Search(hi); a < b {
			dst = append(dst, Span{s, a, b})
		}
	}
	return dst
}

// checkOffsets validates a cumulative offset column of n+1 entries: it
// starts at zero and never decreases.
func checkOffsets(what string, col []byte, n uint32) error {
	if binary.LittleEndian.Uint32(col) != 0 {
		return corruptf("%s offsets do not start at zero", what)
	}
	prev := uint32(0)
	for i := uint32(1); i <= n; i++ {
		o := binary.LittleEndian.Uint32(col[4*i:])
		if o < prev {
			return corruptf("%s offsets decrease at %d", what, i)
		}
		prev = o
	}
	return nil
}

// pairHeader reads the fixed-width header of the pair segment at the
// head of data — magic, count and the two offset columns' final entries
// — and bounds-checks the segment's stated length against data. It
// touches neither blob nor checksum.
func pairHeader(data []byte) (n uint32, fixed, kb, vb, total uint64, err error) {
	if len(data) < 8 {
		return 0, 0, 0, 0, 0, corruptf("pair segment header truncated (%d bytes)", len(data))
	}
	if [4]byte(data) != magicPairs {
		return 0, 0, 0, 0, 0, corruptf("bad pair segment magic %q", data[:4])
	}
	n = binary.LittleEndian.Uint32(data[4:])
	if n == 0 {
		return 0, 0, 0, 0, 0, corruptf("pair segment with zero count")
	}
	fixed = uint64(8) + 2*4*(uint64(n)+1)
	if fixed+4 > uint64(len(data)) {
		return 0, 0, 0, 0, 0, corruptf("pair columns truncated: need %d fixed bytes, have %d", fixed+4, len(data))
	}
	kb = uint64(binary.LittleEndian.Uint32(data[8+4*uint64(n):]))
	vb = uint64(binary.LittleEndian.Uint32(data[fixed-4:]))
	total = fixed + kb + vb + 4
	if total > uint64(len(data)) {
		return 0, 0, 0, 0, 0, corruptf("pair payload truncated: need %d bytes, have %d", total, len(data))
	}
	return n, fixed, kb, vb, total, nil
}

// PairRun is the validated view of one pair segment: pair i's key and
// value are read off its columns, as capacity-limited views of the
// segment. The zero value is an empty run.
type PairRun struct {
	n                      int
	koff, voff, keys, vals []byte
}

// ViewPairs validates the pair segment at the head of data — bounds,
// checksum, offset columns — and returns its view and the bytes after it,
// the file's further segments.
func ViewPairs(data []byte) (run PairRun, rest []byte, err error) {
	if run, rest, err = checkedColumns(data); err == nil {
		err = cmp.Or(checkOffsets("pair key", run.koff, uint32(run.n)), checkOffsets("pair value", run.voff, uint32(run.n)))
	}
	if err != nil {
		return PairRun{}, nil, err
	}
	return run, rest, nil
}

// checkedColumns is ViewPairs short of the offset columns: it checks the
// bounds and the checksum of the pair segment at the head of data and
// cuts its columns, leaving the offsets to the caller's walk.
func checkedColumns(data []byte) (PairRun, []byte, error) {
	n, _, kb, vb, total, err := pairHeader(data)
	if err != nil {
		return PairRun{}, nil, err
	}
	if got, want := crc32.ChecksumIEEE(data[:total-4]), binary.LittleEndian.Uint32(data[total-4:]); got != want {
		return PairRun{}, nil, corruptf("pair segment checksum mismatch (%08x != %08x)", got, want)
	}
	return viewColumns(data[:total], int(n), int(kb), int(vb)), data[total:], nil
}

// viewColumns cuts the columns of a pair segment of n pairs, kb key and
// vb value bytes.
func viewColumns(seg []byte, n, kb, vb int) PairRun {
	fixed := 8 + 2*4*(n+1)
	return PairRun{n, seg[8 : 8+4*(n+1)], seg[8+4*(n+1) : fixed], seg[fixed : fixed+kb], seg[fixed+kb : fixed+kb+vb]}
}

// Len returns the run's pair count.
func (r *PairRun) Len() int { return r.n }

// Key returns pair i's key.
func (r *PairRun) Key(i int) []byte {
	lo, hi := binary.LittleEndian.Uint32(r.koff[4*i:]), binary.LittleEndian.Uint32(r.koff[4*i+4:])
	return r.keys[lo:hi:hi]
}

// Value returns pair i's value.
func (r *PairRun) Value(i int) []byte {
	lo, hi := binary.LittleEndian.Uint32(r.voff[4*i:]), binary.LittleEndian.Uint32(r.voff[4*i+4:])
	return r.vals[lo:hi:hi]
}

// AppendTo appends the run's pairs to dst.
func (r *PairRun) AppendTo(dst []records.Pair) []records.Pair {
	if r.n > 0 { // the empty run has no columns; a view's offsets are valid
		dst, _ = r.appendChecked(dst)
	}
	return dst
}

// Size returns records.PairsSize of the run's pairs.
func (r *PairRun) Size() int64 {
	var n int64
	for i := range r.n {
		n += records.PairSize(records.Pair{Key: r.Key(i), Value: r.Value(i)})
	}
	return n
}

// appendChecked is AppendTo checking the offset columns as it cuts the
// pairs, each offset read once: it rejects what checkOffsets does, an
// offset past its column's last where it stands, not at the decrease.
func (r *PairRun) appendChecked(dst []records.Pair) ([]records.Pair, error) {
	if binary.LittleEndian.Uint32(r.koff) != 0 || binary.LittleEndian.Uint32(r.voff) != 0 {
		return dst, corruptf("pair offsets do not start at zero")
	}
	dst = slices.Grow(dst, r.n)
	ps := dst[len(dst) : len(dst)+r.n]
	kb, vb := uint32(len(r.keys)), uint32(len(r.vals))
	var k0, v0 uint32
	for i := range ps {
		k1, v1 := binary.LittleEndian.Uint32(r.koff[4*i+4:]), binary.LittleEndian.Uint32(r.voff[4*i+4:])
		if k1 < k0 || v1 < v0 || k1 > kb || v1 > vb {
			return dst, corruptf("pair offsets decrease at %d", i+1)
		}
		ps[i] = records.Pair{Key: r.keys[k0:k1:k1], Value: r.vals[v0:v1:v1]}
		k0, v0 = k1, v1
	}
	return dst[:len(dst)+r.n], nil
}

// PairWriter encodes pairs as they are added. Add copies key and value
// into the writer's column scratch, so a caller may reuse its buffers as
// soon as Add returns — the collect of a reducer, Hadoop's
// context.write. Encode writes what was added since the last Reset as one
// exactly-sized segment, byte for byte what EncodePairs writes for the
// same pairs. The zero value is ready; the scratch is kept across Reset.
type PairWriter struct {
	koff, voff []byte // per pair its cumulative key and value end, little-endian
	keys, vals []byte
}

// Reset empties the writer, keeping its scratch.
func (w *PairWriter) Reset() {
	w.koff, w.voff, w.keys, w.vals = w.koff[:0], w.voff[:0], w.keys[:0], w.vals[:0]
}

// Add copies one pair in.
func (w *PairWriter) Add(key, value []byte) {
	w.keys = append(w.keys, key...)
	w.vals = append(w.vals, value...)
	w.koff = binary.LittleEndian.AppendUint32(w.koff, uint32(len(w.keys)))
	w.voff = binary.LittleEndian.AppendUint32(w.voff, uint32(len(w.vals)))
}

// Encode returns the pairs added since the last Reset as one
// exactly-sized segment, nil when there are none.
func (w *PairWriter) Encode() []byte {
	n := len(w.koff) / 4
	if n == 0 {
		return nil
	}
	seg := make([]byte, 8+2*4*(n+1)+len(w.keys)+len(w.vals)+4)
	copy(seg, magicPairs[:])
	binary.LittleEndian.PutUint32(seg[4:], uint32(n))
	p := 12 // koff[0] == 0
	p += copy(seg[p:], w.koff)
	p += 4 // voff[0] == 0
	p += copy(seg[p:], w.voff)
	p += copy(seg[p:], w.keys)
	p += copy(seg[p:], w.vals)
	binary.LittleEndian.PutUint32(seg[p:], crc32.ChecksumIEEE(seg[:p]))
	return seg
}

// Segment is Encode plus the segment's view, its pairs in the order they
// were added; the empty run when there are none.
func (w *PairWriter) Segment() ([]byte, PairRun) {
	seg := w.Encode()
	if seg == nil {
		return nil, PairRun{}
	}
	return seg, viewColumns(seg, len(w.koff)/4, len(w.keys), len(w.vals))
}

// DecodeRecords materializes the view of a file of concatenated record
// segments as one exactly-sized slice. The returned records alias data
// (zero-copy), as the view's do.
func DecodeRecords(data []byte) ([]records.Record, error) {
	f, err := ViewRecords(data)
	if err != nil {
		return nil, err
	}
	n := 0
	for _, s := range f.segs {
		n += s.n
	}
	out := slices.Grow([]records.Record(nil), n)
	for _, s := range f.segs {
		for j := 0; j < s.n; j++ {
			ts, payload := s.Record(j)
			out = append(out, records.Record{Ts: ts, Data: payload})
		}
	}
	return out, nil
}

// DecodePairs decodes a file of concatenated pair segments. The
// returned pairs alias data (zero-copy) via three-index views.
func DecodePairs(data []byte) ([]records.Pair, error) {
	return AppendDecodedPairs(nil, data)
}

// AppendDecodedPairs is DecodePairs appending to dst: a caller that has
// counted its inputs (CountPairs) decodes them all into one presized
// slice. Each segment is checked as ViewPairs checks it, its offset
// columns in the walk that cuts its pairs. On error dst is returned as
// passed in.
func AppendDecodedPairs(dst []records.Pair, data []byte) ([]records.Pair, error) {
	out := dst
	for len(data) > 0 {
		run, rest, err := checkedColumns(data)
		if err == nil {
			out, err = run.appendChecked(out)
		}
		if err != nil {
			return dst, err
		}
		data = rest
	}
	return out, nil
}

// CountPairs returns the number of pairs in a file of concatenated
// pair segments by walking segment headers only: lengths are
// bounds-checked, blobs and checksums are not read, so a fault inside
// a segment's body surfaces at decode, not here.
func CountPairs(data []byte) (int, error) {
	total := 0
	for len(data) > 0 {
		n, _, _, _, segLen, err := pairHeader(data)
		if err != nil {
			return 0, err
		}
		total += int(n)
		data = data[segLen:]
	}
	return total, nil
}
