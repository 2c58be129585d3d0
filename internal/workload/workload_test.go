package workload

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"strings"
	"testing"
	"testing/quick"
	"unsafe"

	"redoop/internal/records"
	"redoop/internal/simtime"
)

func TestWCCDeterministicAndInRange(t *testing.T) {
	cfg := DefaultWCC(7)
	a := WCC(cfg, 100, 200, 500)
	b := WCC(cfg, 100, 200, 500)
	if len(a) != 500 || len(b) != 500 {
		t.Fatalf("got %d/%d records", len(a), len(b))
	}
	for i := range a {
		if a[i].Ts != b[i].Ts || !bytes.Equal(a[i].Data, b[i].Data) {
			t.Fatal("generator must be deterministic per seed")
		}
		if a[i].Ts < 100 || a[i].Ts >= 200 {
			t.Fatalf("timestamp %d outside [100,200)", a[i].Ts)
		}
		if i > 0 && a[i].Ts < a[i-1].Ts {
			t.Fatal("batch must be timestamp-ordered")
		}
	}
}

func TestWCCSchema(t *testing.T) {
	recs := WCC(DefaultWCC(1), 0, 1000, 50)
	for _, r := range recs {
		fields := strings.Split(string(r.Data), ",")
		if len(fields) != 7 {
			t.Fatalf("WCC record %q has %d fields, want 7", r.Data, len(fields))
		}
		if !strings.HasPrefix(fields[0], "c") || !strings.HasPrefix(fields[1], "obj") {
			t.Fatalf("WCC record %q has wrong client/object fields", r.Data)
		}
	}
}

func TestWCCSkew(t *testing.T) {
	recs := WCC(DefaultWCC(3), 0, int64(simtime.Hour), 20000)
	counts := map[string]int{}
	for _, r := range recs {
		obj := strings.Split(string(r.Data), ",")[1]
		counts[obj]++
	}
	if counts["obj0"] < counts["obj9"]*2 {
		t.Errorf("Zipf skew missing: obj0=%d obj9=%d", counts["obj0"], counts["obj9"])
	}
}

func TestWCCEmptyInputs(t *testing.T) {
	if got := WCC(DefaultWCC(1), 0, 100, 0); got != nil {
		t.Error("zero records should yield nil")
	}
	if got := WCC(DefaultWCC(1), 200, 100, 10); got != nil {
		t.Error("inverted range should yield nil")
	}
}

func TestFFGSchemas(t *testing.T) {
	cfg := DefaultFFG(5)
	readings := FFGReadings(cfg, 0, 1000, 100)
	for _, r := range readings {
		fields := strings.Split(string(r.Data), ",")
		if len(fields) != 6 {
			t.Fatalf("reading %q has %d fields, want 6", r.Data, len(fields))
		}
		if !strings.HasPrefix(fields[0], "s") {
			t.Fatalf("reading %q missing sensor field", r.Data)
		}
	}
	events := FFGEvents(cfg, 0, 1000, 100)
	for _, r := range events {
		fields := strings.Split(string(r.Data), ",")
		if len(fields) != 3 {
			t.Fatalf("event %q has %d fields, want 3", r.Data, len(fields))
		}
	}
}

func TestFFGEventKeysNarrowPopulation(t *testing.T) {
	cfg := DefaultFFG(9)
	cfg.EventKeys = 5
	events := FFGEvents(cfg, 0, int64(simtime.Hour), 2000)
	seen := map[string]bool{}
	for _, r := range events {
		seen[strings.Split(string(r.Data), ",")[0]] = true
	}
	if len(seen) > 5 {
		t.Errorf("event keys should be capped at 5, saw %d", len(seen))
	}
}

func TestSteadyRate(t *testing.T) {
	for s := 0; s < 5; s++ {
		if SteadyRate(s) != 1 {
			t.Fatal("steady rate must be 1")
		}
	}
}

// §6.3: windows 1, 4, 7 and 10 carry the normal workload; the rest are
// doubled. With one slide per window, slide s first feeds window
// s-slidesPerWindow+2.
func TestPaperFluctuation(t *testing.T) {
	sched := PaperFluctuation(10)
	// Slides 0..9 feed window 1: normal.
	for s := 0; s < 10; s++ {
		if sched(s) != 1 {
			t.Errorf("slide %d should be normal", s)
		}
	}
	// Slides 10..18 feed windows 2..10.
	want := map[int]float64{
		10: 2, 11: 2, // windows 2, 3
		12: 1,        // window 4
		13: 2, 14: 2, // windows 5, 6
		15: 1,        // window 7
		16: 2, 17: 2, // windows 8, 9
		18: 1, // window 10
	}
	for s, m := range want {
		if got := sched(s); got != m {
			t.Errorf("slide %d multiplier = %v, want %v", s, got, m)
		}
	}
}

func TestBatches(t *testing.T) {
	cfg := DefaultWCC(11)
	sched := func(s int) float64 {
		if s == 1 {
			return 2
		}
		return 1
	}
	batches := Batches(3, 10*simtime.Second, 100, sched,
		func(start, end int64, n int) []records.Record {
			return WCC(cfg, start, end, n)
		})
	if len(batches) != 3 {
		t.Fatalf("got %d batches", len(batches))
	}
	if len(batches[0]) != 100 || len(batches[1]) != 200 || len(batches[2]) != 100 {
		t.Errorf("batch sizes = %d/%d/%d, want 100/200/100",
			len(batches[0]), len(batches[1]), len(batches[2]))
	}
	// Each batch covers its own slide interval.
	for i, b := range batches {
		lo := int64(i) * int64(10*simtime.Second)
		hi := lo + int64(10*simtime.Second)
		for _, r := range b {
			if r.Ts < lo || r.Ts >= hi {
				t.Fatalf("batch %d record at %d outside [%d,%d)", i, r.Ts, lo, hi)
			}
		}
	}
}

// Property: generated volumes always match the request and stay within
// the covered range.
func TestGeneratorBoundsProperty(t *testing.T) {
	f := func(seed int64, nU uint16, spanU uint16) bool {
		n := int(nU%500) + 1
		span := int64(spanU%1000) + 1
		recs := WCC(DefaultWCC(seed), 0, span, n)
		if len(recs) != n {
			return false
		}
		for _, r := range recs {
			if r.Ts < 0 || r.Ts >= span {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestDiurnal(t *testing.T) {
	sched := Diurnal(24, 0.5, 12)
	// Peak at slide 12, trough at slide 0/24.
	if p := sched(12); p < 1.49 || p > 1.51 {
		t.Errorf("peak multiplier = %v, want ≈1.5", p)
	}
	if tr := sched(0); tr < 0.49 || tr > 0.51 {
		t.Errorf("trough multiplier = %v, want ≈0.5", tr)
	}
	if sched(36) != sched(12) {
		t.Error("schedule should repeat with its period")
	}
	// Extreme amplitude floors at a trickle rather than zero.
	deep := Diurnal(24, 2.0, 12)
	if m := deep(0); m < 0.05 {
		t.Errorf("floored multiplier = %v, want >= 0.05", m)
	}
	// Degenerate inputs clamp.
	if Diurnal(0, -1, 0)(5) != 1 {
		t.Error("degenerate schedule should be flat 1")
	}
}

// batchDigest hashes every timestamp and every payload byte of a batch,
// lengths included, in order.
func batchDigest(recs []records.Record) string {
	h := sha256.New()
	var b [8]byte
	for _, r := range recs {
		binary.LittleEndian.PutUint64(b[:], uint64(r.Ts))
		h.Write(b[:])
		binary.LittleEndian.PutUint64(b[:], uint64(len(r.Data)))
		h.Write(b[:])
		h.Write(r.Data)
	}
	return fmt.Sprintf("%x", h.Sum(nil)[:8])
}

// TestGeneratorsPinnedToTheByte: every published number is a function of
// these batches, so the generators may change how they build a payload,
// never what it is. The digests were recorded from the fmt.Sprintf
// generators (the commit before they appended with strconv), over the
// shapes their formats distinguish.
func TestGeneratorsPinnedToTheByte(t *testing.T) {
	for _, c := range []struct {
		seed, lo, hi          int64
		n, sensors, eventKeys int
		wcc, readings, events string
	}{
		{1, 0, 1000, 1, 1000, 1000, "063f4aecc28277f5", "d41fc4c6de3a13f8", "8f2953a53feef7be"},
		// A narrow range: equal timestamps, ordered by payload.
		{7, 100, 200, 500, 1000, 1000, "780603d2db59c2f6", "4dfd25759c2fadfd", "a0b4a3f0479c1923"},
		// Two panes of the benchmark's size, the second joining on few keys.
		{42, 0, 60000000000, 4000, 1000, 1000, "219878eee9fe060a", "77ae0676a96aeab6", "6b5034f9d4aa2433"},
		{42, 60000000000, 120000000000, 4000, 1000, 40, "061da81d2f2f7cd2", "75bddaf54568ab03", "41d11211a1a91782"},
		// One-digit sensors padded to three; a negative range and seed.
		{-3, -500, 500, 300, 7, 0, "af17da5e1c0c07e2", "4706f9a3d892fb9e", "b547a90618f155fe"},
		// Five-digit sensors, past the pad; every record at one timestamp.
		{99, 5, 6, 64, 25000, 12000, "4a6b3cfb5bd8bc53", "f6001d1df2395859", "882321ebefc434e6"},
		// EventKeys above Sensors.
		{2026, 1099511627776, 1099511628753, 2500, 1234, 5000, "904e5f524a079134", "3a97b3f089018930", "c7adb02e41f68cde"},
		// Spans whose offsets take one byte, two, and eight.
		{11, 0, 256, 3000, 1000, 1000, "8567b7b2a8769fd1", "5ec05c203596d0d7", "1d75683208336102"},
		{12, 1000, 1257, 3000, 1000, 1000, "a6c49c931dbae5f2", "b55fc1e308847e13", "37e7fa361f4dd4cb"},
		{13, -1 << 61, 1 << 61, 2000, 1000, 1000, "002db55334199d69", "5e3c613915a93596", "0a7db23a6539b0a3"},
		// 70 000 records over a 6-minute pane.
		{42, 360000000000, 720000000000, 70000, 1000, 1000, "f9bc3408f179b704", "6707c2ff8be5352a", "7382d7c626bc9215"},
	} {
		ffg := FFGConfig{Seed: c.seed, Sensors: c.sensors, EventKeys: c.eventKeys}
		for name, got := range map[string][2]string{
			"WCC":         {batchDigest(WCC(DefaultWCC(c.seed), c.lo, c.hi, c.n)), c.wcc},
			"FFGReadings": {batchDigest(FFGReadings(ffg, c.lo, c.hi, c.n)), c.readings},
			"FFGEvents":   {batchDigest(FFGEvents(ffg, c.lo, c.hi, c.n)), c.events},
		} {
			if got[0] != got[1] {
				t.Errorf("%s(seed %d, [%d,%d), n %d, %d sensors, %d event keys) digests to %s, recorded %s",
					name, c.seed, c.lo, c.hi, c.n, c.sensors, c.eventKeys, got[0], got[1])
			}
		}
	}
	// The blob's size is a guess: one that is outgrown changes nothing.
	draw := func(size int) string {
		rng := rand.New(rand.NewSource(5))
		return batchDigest(batch(rng, 0, 50, 200, size, func(b []byte) []byte {
			return append(b, "a-payload-of-some-length"[:1+rng.Intn(20)]...)
		}))
	}
	if draw(0) != draw(32) || draw(3) != draw(32) {
		t.Error("a batch depends on the size its blob was guessed at")
	}
	// Two letters over three timestamps: byte-identical records are
	// common, and where each one's payload sits in the blob pins their
	// draw order too.
	rng := rand.New(rand.NewSource(8))
	ab := batch(rng, 0, 3, 600, 3, func(b []byte) []byte {
		for k := rng.Intn(3); k >= 0; k-- {
			b = append(b, "ab"[rng.Intn(2)])
		}
		return b
	})
	at := func(r records.Record) uintptr { return uintptr(unsafe.Pointer(unsafe.SliceData(r.Data))) }
	base := at(ab[0])
	for _, r := range ab {
		base = min(base, at(r))
	}
	h := sha256.New()
	for _, r := range ab {
		h.Write(binary.LittleEndian.AppendUint64(nil, uint64(at(r)-base)))
	}
	if got := fmt.Sprintf("%s %x", batchDigest(ab), h.Sum(nil)[:8]); got != "a04103f7b23144c7 5d22236995d189ac" {
		t.Errorf("two-letter batch digests to %s, recorded a04103f7b23144c7 5d22236995d189ac", got)
	}
}

// eachFixed2Case calls check on every value appendFixed2 is checked on
// against strconv, with its case's name: the edges, the rounding ties and
// their neighbours, and the generator's own draws.
func eachFixed2Case(check func(name string, v float64)) {
	around := func(name string, v float64) {
		check(name, math.Nextafter(v, 0))
		check(name, v)
		check(name, math.Nextafter(v, math.Inf(1)))
	}
	check("zero", 0)
	check("smallest subnormal", math.SmallestNonzeroFloat64)
	for _, v := range []float64{9.995, 99.995, 104.995} {
		check("x.995 next to a carry", v)
	}
	for k := 0; k <= 105*8000; k++ { // every exact tie m/8 among them
		around("k/8000", float64(k)/8000)
	}
	for k := 1; k < 105*200; k += 2 {
		around("x.xx5", float64(k)/200)
	}
	rng := rand.New(rand.NewSource(1))
	for _, scale := range [...]float64{105, 68, 5, 12, 40} {
		name := fmt.Sprintf("draws at scale %v", scale)
		for i := 0; i < 1_000_000; i++ {
			check(name, rng.Float64()*scale)
		}
	}
}

func TestAppendFixed2MatchesStrconv(t *testing.T) {
	var got, want []byte
	eachFixed2Case(func(name string, v float64) {
		got, want = appendFixed2(got[:0], v), strconv.AppendFloat(want[:0], v, 'f', 2, 64)
		if !bytes.Equal(got, want) {
			t.Fatalf("%s: appendFixed2(%v) = %s, strconv gives %s", name, v, got, want)
		}
	})
}

func FuzzAppendFixed2(f *testing.F) {
	seeded := map[string]int{}
	eachFixed2Case(func(name string, v float64) {
		if seeded[name]++; seeded[name] <= 6 {
			f.Add(v)
		}
	})
	f.Fuzz(func(t *testing.T, v float64) {
		if !(v >= 0 && v < 1<<52) {
			t.Skip("outside appendFixed2's domain")
		}
		if got, want := appendFixed2(nil, v), strconv.AppendFloat(nil, v, 'f', 2, 64); !bytes.Equal(got, want) {
			t.Fatalf("appendFixed2(%v) = %s, strconv gives %s", v, got, want)
		}
	})
}

var sink []records.Record

// BenchmarkWCCPane generates one pane of the benchmark's aggregation
// input: 24 000 records over 6 minutes.
func BenchmarkWCCPane(b *testing.B) {
	pane := int64(6 * simtime.Minute)
	for i := 0; i < b.N; i++ {
		sink = WCC(DefaultWCC(42), pane, 2*pane, 24000)
	}
}

// BenchmarkFFGReadingsPane generates one pane of the benchmark's join
// readings: 3 000 records over 6 minutes.
func BenchmarkFFGReadingsPane(b *testing.B) {
	pane := int64(6 * simtime.Minute)
	for i := 0; i < b.N; i++ {
		sink = FFGReadings(DefaultFFG(42), pane, 2*pane, 3000)
	}
}
