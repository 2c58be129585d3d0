package records

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestEncodePairsSizeAndFraming(t *testing.T) {
	in := []Pair{
		{Key: []byte("k1"), Value: []byte("v1")},
		{Key: nil, Value: []byte("only-value")},
		{Key: []byte("k3"), Value: nil},
	}
	enc := EncodePairs(in)
	if int64(len(enc)) != PairsSize(in) {
		t.Errorf("encoded length %d != PairsSize %d", len(enc), PairsSize(in))
	}
	// Moving a byte from a value to the next key must change the bytes:
	// the framing makes the form unambiguous.
	a := EncodePairs([]Pair{{Key: []byte("ab"), Value: []byte("c")}})
	b := EncodePairs([]Pair{{Key: []byte("a"), Value: []byte("bc")}})
	if bytes.Equal(a, b) {
		t.Error("different pairs encoded to the same bytes")
	}
}

// Property: encoded length always equals the modelled size.
func TestPairsSizeProperty(t *testing.T) {
	f := func(keys, vals [][]byte) bool {
		n := min(len(keys), len(vals))
		in := make([]Pair, n)
		for i := 0; i < n; i++ {
			in[i] = Pair{Key: keys[i], Value: vals[i]}
		}
		return int64(len(EncodePairs(in))) == PairsSize(in)
	}
	cfg := &quick.Config{MaxCount: 100, Rand: rand.New(rand.NewSource(2))}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}
