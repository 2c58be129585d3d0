// Package records defines the record and pair types shared by the DFS,
// the MapReduce runtime and the workload generators.
//
// A Record is one timestamped tuple of an evolving data source. Batch
// files in HDFS hold sequences of records; per the paper's data model
// (§2.1) the time ranges covered by successive batch files do not
// overlap and are in order, but records *within* a file are unordered.
//
// Everything the system stores — pane files, reduce-input and
// reduce-output caches — is encoded by internal/colfmt. The only
// encoding here is EncodePairs, the canonical byte form of a result
// that the oracle and the determinism tests compare and digest.
package records

import "encoding/binary"

// Record is one tuple: a timestamp on the source's unit axis plus an
// opaque payload that the query's map function parses.
type Record struct {
	Ts   int64
	Data []byte
}

// Pair is one intermediate or output key/value pair of a MapReduce job.
type Pair struct {
	Key   []byte
	Value []byte
}

func uvarintLen(v uint64) int {
	var buf [binary.MaxVarintLen64]byte
	return binary.PutUvarint(buf[:], v)
}

// PairSize returns the modelled byte size of a pair (key + value plus a
// small framing constant, matching the encoded form below).
func PairSize(p Pair) int64 {
	return int64(uvarintLen(uint64(len(p.Key))) + uvarintLen(uint64(len(p.Value))) + len(p.Key) + len(p.Value))
}

// PairsSize returns the total modelled byte size of a pair slice.
func PairsSize(ps []Pair) int64 {
	var n int64
	for _, p := range ps {
		n += PairSize(p)
	}
	return n
}

// EncodePairs serializes pairs with varint length framing: an
// unambiguous byte form of a result, PairsSize(ps) bytes long, for
// comparing and digesting outputs.
func EncodePairs(ps []Pair) []byte {
	var size int64
	for _, p := range ps {
		size += PairSize(p)
	}
	out := make([]byte, 0, size)
	var buf [binary.MaxVarintLen64]byte
	for _, p := range ps {
		n := binary.PutUvarint(buf[:], uint64(len(p.Key)))
		out = append(out, buf[:n]...)
		n = binary.PutUvarint(buf[:], uint64(len(p.Value)))
		out = append(out, buf[:n]...)
		out = append(out, p.Key...)
		out = append(out, p.Value...)
	}
	return out
}
