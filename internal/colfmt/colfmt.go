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
// Zero-copy lifetime rule: decoded records, pairs and visited payloads
// alias the input buffer. The buffer must stay immutable and live for
// as long as any view into it. Encode* return exactly-sized buffers,
// which the stores take ownership of (Node.PutLocal, dfs.Write).
package colfmt

import (
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"slices"

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
	if len(recs) == 0 {
		return dst
	}
	base := len(dst)
	dst = append(dst, make([]byte, RecordsSize(recs))...)
	copy(dst[base:], magicRecords[:])
	binary.LittleEndian.PutUint32(dst[base+4:], uint32(len(recs)))
	p := base + 8
	for _, r := range recs {
		binary.LittleEndian.PutUint64(dst[p:], uint64(r.Ts))
		p += 8
	}
	off := uint32(0)
	binary.LittleEndian.PutUint32(dst[p:], 0)
	p += 4
	for _, r := range recs {
		off += uint32(len(r.Data))
		binary.LittleEndian.PutUint32(dst[p:], off)
		p += 4
	}
	for _, r := range recs {
		p += copy(dst[p:], r.Data)
	}
	binary.LittleEndian.PutUint32(dst[p:], crc32.ChecksumIEEE(dst[base:p]))
	return dst
}

// EncodeRecords encodes recs as one exactly-sized columnar segment.
func EncodeRecords(recs []records.Record) []byte {
	return AppendRecords(make([]byte, 0, RecordsSize(recs)), recs)
}

// EncodePairs encodes pairs as one exactly-sized columnar segment.
func EncodePairs(pairs []records.Pair) []byte {
	if len(pairs) == 0 {
		return nil
	}
	var kb, vb int
	for _, pr := range pairs {
		kb += len(pr.Key)
		vb += len(pr.Value)
	}
	dst := make([]byte, 8+2*4*(len(pairs)+1)+kb+vb+4)
	copy(dst, magicPairs[:])
	binary.LittleEndian.PutUint32(dst[4:], uint32(len(pairs)))
	p := 8
	off := uint32(0)
	binary.LittleEndian.PutUint32(dst[p:], 0)
	p += 4
	for _, pr := range pairs {
		off += uint32(len(pr.Key))
		binary.LittleEndian.PutUint32(dst[p:], off)
		p += 4
	}
	off = 0
	binary.LittleEndian.PutUint32(dst[p:], 0)
	p += 4
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
	return dst
}

// recHeader reads the fixed-width header of the record segment at the
// head of data — magic, count and the offset column's final entry — and
// bounds-checks the segment's stated length against data. It touches
// neither blob nor checksum.
func recHeader(data []byte) (n uint32, fixed, blobLen, total uint64, err error) {
	if len(data) < 8 {
		return 0, 0, 0, 0, corruptf("record segment header truncated (%d bytes)", len(data))
	}
	if [4]byte(data) != magicRecords {
		return 0, 0, 0, 0, corruptf("bad record segment magic %q", data[:4])
	}
	n = binary.LittleEndian.Uint32(data[4:])
	if n == 0 {
		return 0, 0, 0, 0, corruptf("record segment with zero count")
	}
	// Fixed-width prefix: magic+count, ts column, offset column.
	fixed = uint64(8) + 8*uint64(n) + 4*(uint64(n)+1)
	if fixed+4 > uint64(len(data)) {
		return 0, 0, 0, 0, corruptf("record columns truncated: need %d fixed bytes, have %d", fixed+4, len(data))
	}
	blobLen = uint64(binary.LittleEndian.Uint32(data[fixed-4:]))
	total = fixed + blobLen + 4
	if total > uint64(len(data)) {
		return 0, 0, 0, 0, corruptf("record payload truncated: need %d bytes, have %d", total, len(data))
	}
	return n, fixed, blobLen, total, nil
}

// recSegment validates the record segment at the head of data and
// returns its count, column views and total length. Every bound is
// checked before any column is touched, so malformed input yields
// ErrCorrupt, never a panic.
func recSegment(data []byte) (count int, ts, offs, blob []byte, segLen int, err error) {
	n, fixed, blobLen, total, err := recHeader(data)
	if err != nil {
		return 0, nil, nil, nil, 0, err
	}
	seg := data[:total]
	if got, want := crc32.ChecksumIEEE(seg[:total-4]), binary.LittleEndian.Uint32(seg[total-4:]); got != want {
		return 0, nil, nil, nil, 0, corruptf("record segment checksum mismatch (%08x != %08x)", got, want)
	}
	tsEnd := 8 + 8*uint64(n)
	offs = seg[tsEnd:fixed]
	if err := checkOffsets("record", offs, n); err != nil {
		return 0, nil, nil, nil, 0, err
	}
	return int(n), seg[8:tsEnd], offs, seg[fixed : fixed+blobLen], int(total), nil
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

// pairSegment validates the pair segment at the head of data and
// returns its count, column views and total length.
func pairSegment(data []byte) (count int, koff, voff, keys, vals []byte, segLen int, err error) {
	n, fixed, kb, vb, total, err := pairHeader(data)
	if err != nil {
		return 0, nil, nil, nil, nil, 0, err
	}
	seg := data[:total]
	if got, want := crc32.ChecksumIEEE(seg[:total-4]), binary.LittleEndian.Uint32(seg[total-4:]); got != want {
		return 0, nil, nil, nil, nil, 0, corruptf("pair segment checksum mismatch (%08x != %08x)", got, want)
	}
	koff = seg[8 : 8+4*(uint64(n)+1)]
	voff = seg[8+4*(uint64(n)+1) : fixed]
	if err := cmp.Or(checkOffsets("pair key", koff, n), checkOffsets("pair value", voff, n)); err != nil {
		return 0, nil, nil, nil, nil, 0, err
	}
	return int(n), koff, voff, seg[fixed : fixed+kb], seg[fixed+kb : fixed+kb+vb], int(total), nil
}

// DecodeRecords decodes a file of concatenated record segments. The
// returned records alias data (zero-copy): each Data slice is a
// three-index view into the payload blob, so appends by callers cannot
// clobber neighbouring records.
func DecodeRecords(data []byte) ([]records.Record, error) {
	var out []records.Record
	for len(data) > 0 {
		n, ts, offs, blob, segLen, err := recSegment(data)
		if err != nil {
			return nil, err
		}
		out = slices.Grow(out, n)
		for i := 0; i < n; i++ {
			lo := binary.LittleEndian.Uint32(offs[4*i:])
			hi := binary.LittleEndian.Uint32(offs[4*(i+1):])
			out = append(out, records.Record{
				Ts:   int64(binary.LittleEndian.Uint64(ts[8*i:])),
				Data: blob[lo:hi:hi],
			})
		}
		data = data[segLen:]
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
// slice. On error dst is returned as passed in.
func AppendDecodedPairs(dst []records.Pair, data []byte) ([]records.Pair, error) {
	out := dst
	for len(data) > 0 {
		n, koff, voff, keys, vals, segLen, err := pairSegment(data)
		if err != nil {
			return dst, err
		}
		out = slices.Grow(out, n)
		for i := 0; i < n; i++ {
			klo := binary.LittleEndian.Uint32(koff[4*i:])
			khi := binary.LittleEndian.Uint32(koff[4*(i+1):])
			vlo := binary.LittleEndian.Uint32(voff[4*i:])
			vhi := binary.LittleEndian.Uint32(voff[4*(i+1):])
			out = append(out, records.Pair{
				Key:   keys[klo:khi:khi],
				Value: vals[vlo:vhi:vhi],
			})
		}
		data = data[segLen:]
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

// VisitRecords walks a file of concatenated record segments calling
// fn(off, ts, payload) per record, where off is the file offset of the
// record's payload start, used for Hadoop-convention split bucketing ("a record
// belongs to the split containing its first byte"). Offsets are
// non-decreasing and always lie inside the record's own segment, so a
// record is never attributed outside its pane. payload aliases data.
// fn returning false stops the walk early.
func VisitRecords(data []byte, fn func(off int, ts int64, payload []byte) bool) error {
	base := 0
	for base < len(data) {
		n, ts, offs, blob, segLen, err := recSegment(data[base:])
		if err != nil {
			return err
		}
		blobBase := base + segLen - 4 - len(blob)
		for i := 0; i < n; i++ {
			lo := binary.LittleEndian.Uint32(offs[4*i:])
			hi := binary.LittleEndian.Uint32(offs[4*(i+1):])
			if !fn(blobBase+int(lo), int64(binary.LittleEndian.Uint64(ts[8*i:])), blob[lo:hi:hi]) {
				return nil
			}
		}
		base += segLen
	}
	return nil
}

// CountRecords returns the number of records in a columnar file.
func CountRecords(data []byte) (int, error) { return CountRecordsIn(data, 0, len(data)) }

// CountRecordsIn returns the number of records in those segments of a
// columnar file that overlap the byte range [lo, hi): what a decoder of
// the range sizes its output from. It walks segment headers only, as
// CountPairs does, and no further than hi; a fault inside a segment's
// body surfaces at the decode that follows.
func CountRecordsIn(data []byte, lo, hi int) (int, error) {
	total := 0
	for base := 0; base < min(hi, len(data)); {
		n, _, _, segLen, err := recHeader(data[base:])
		if err != nil {
			return 0, err
		}
		if base+int(segLen) > lo {
			total += int(n)
		}
		base += int(segLen)
	}
	return total, nil
}
