// Package workload generates the synthetic stand-ins for the paper's
// two real datasets (§6.1):
//
//   - WCC — the 1998 WorldCup Click dataset (236 GB of web-server
//     access logs). The generator emits records in the WorldCup access
//     log schema (client, object, bytes, method, status, type, server)
//     with Zipf-distributed clients and objects, the skew that makes
//     the aggregation query's groups realistic.
//   - FFG — the RedFIR football-field sensor dataset from the Nuremberg
//     stadium (26 GB of high-velocity position samples). The generator
//     emits position/velocity/acceleration samples per sensor, plus a
//     correlated event stream for the join query, with configurable
//     join selectivity.
//
// Both generators are deterministic per seed and parameterized by a
// records-per-slide rate, so experiments reproduce exactly and the
// Figure 8 rate fluctuations are expressible as per-slide multipliers.
package workload

import (
	"bytes"
	"math"
	"math/rand"
	"slices"
	"strconv"

	"redoop/internal/records"
	"redoop/internal/simtime"
)

// WCCConfig parameterizes the WorldCup click generator.
type WCCConfig struct {
	// Seed drives the deterministic stream.
	Seed int64
	// Clients and Objects size the Zipf populations (the real trace
	// has ~2.7M clients and ~90K objects; scale to taste).
	Clients int
	// Objects is the number of distinct requested URLs.
	Objects int
	// Skew is the Zipf s parameter (>1); higher is more skewed.
	Skew float64
}

// DefaultWCC returns the generator configuration used by the
// experiments.
func DefaultWCC(seed int64) WCCConfig {
	return WCCConfig{Seed: seed, Clients: 50000, Objects: 800, Skew: 1.2}
}

// WCC generates n WorldCup click records with timestamps uniform in
// [startUnit, endUnit). Payload format (CSV):
//
//	client,object,bytes,method,status,type,server
func WCC(cfg WCCConfig, startUnit, endUnit int64, n int) []records.Record {
	if n <= 0 || endUnit <= startUnit {
		return nil
	}
	rng := rand.New(rand.NewSource(cfg.Seed ^ startUnit))
	clients := newZipf(rng, cfg.Clients, cfg.Skew)
	objects := newZipf(rng, cfg.Objects, cfg.Skew)
	methods := []string{"GET", "GET", "GET", "HEAD", "POST"}
	types := []string{"HTML", "IMAGE", "IMAGE", "DYNAMIC", "DIRECTORY"}
	statuses := []int64{200, 200, 200, 200, 304, 404}
	return batch(rng, startUnit, endUnit, n, 48, func(b []byte) []byte {
		b = strconv.AppendUint(append(b, 'c'), clients.Uint64(), 10)
		b = strconv.AppendUint(append(b, ",obj"...), objects.Uint64(), 10)
		b = strconv.AppendInt(append(b, ','), int64(200+rng.Intn(20000)), 10)
		b = append(append(b, ','), methods[rng.Intn(len(methods))]...)
		b = strconv.AppendInt(append(b, ','), statuses[rng.Intn(len(statuses))], 10)
		b = append(append(b, ','), types[rng.Intn(len(types))]...)
		return strconv.AppendInt(append(b, ",srv"...), int64(rng.Intn(30)), 10)
	})
}

// batch draws n records with timestamps uniform in [startUnit, endUnit):
// per record the timestamp, then whatever payload draws as it appends the
// record's payload to the batch's one blob, presized at size bytes a
// record (payloads are capacity-limited views of it; a blob that outgrows
// the guess moves on and leaves earlier views where they are). The batch
// is ordered by (timestamp, payload), and which of two byte-identical
// records comes first is unobservable, so it is a function of the seed.
func batch(rng *rand.Rand, startUnit, endUnit int64, n, size int, payload func(b []byte) []byte) []records.Record {
	out := make([]records.Record, n)
	blob := make([]byte, 0, n*size)
	span := endUnit - startUnit
	for i := range out {
		ts, lo := startUnit+rng.Int63n(span), len(blob)
		blob = payload(blob)
		out[i] = records.Record{Ts: ts, Data: blob[lo:len(blob):len(blob)]}
	}
	out = sortByOffset(out, startUnit, span)
	for i := 0; i < n; { // then by payload in each run of one timestamp, rare and short
		j := i + 1
		for j < n && out[j].Ts == out[i].Ts {
			j++
		}
		slices.SortStableFunc(out[i:j], func(a, b records.Record) int { return bytes.Compare(a.Data, b.Data) })
		i = j
	}
	return out
}

// sortByOffset orders recs by timestamp, stably, with an LSD radix sort
// of the offsets ts-startUnit in [0, span): one byte a pass, and only as
// many passes as span-1 has bytes. It returns whichever of recs and its
// scratch copy holds the result.
func sortByOffset(recs []records.Record, startUnit, span int64) []records.Record {
	tmp := make([]records.Record, len(recs))
	for shift := 0; uint64(span-1)>>shift != 0; shift += 8 {
		var next [256]int
		for _, r := range recs {
			next[uint8(uint64(r.Ts-startUnit)>>shift)]++
		}
		for d, at := 0, 0; d < 256; d++ {
			next[d], at = at, at+next[d]
		}
		for _, r := range recs {
			d := uint8(uint64(r.Ts-startUnit) >> shift)
			tmp[next[d]] = r
			next[d]++
		}
		recs, tmp = tmp, recs
	}
	return recs
}

// appendSensor appends "s%03d" of a sensor number.
func appendSensor(b []byte, id int) []byte {
	b = append(b, 's')
	for pad := 100; pad > 1 && id < pad; pad /= 10 {
		b = append(b, '0')
	}
	return strconv.AppendInt(b, int64(id), 10)
}

// FFGConfig parameterizes the football-sensor generator.
type FFGConfig struct {
	Seed int64
	// Sensors is the number of tracked transmitters (the RedFIR setup
	// tracks balls and players; ~200 signals).
	Sensors int
	// EventKeys narrows the event stream's sensor population; a
	// smaller value raises join selectivity.
	EventKeys int
}

// DefaultFFG returns the experiments' configuration.
func DefaultFFG(seed int64) FFGConfig {
	return FFGConfig{Seed: seed, Sensors: 1000, EventKeys: 1000}
}

// FFGReadings generates n position samples across [startUnit, endUnit):
//
//	sensor,x,y,z,|v|,|a|
func FFGReadings(cfg FFGConfig, startUnit, endUnit int64, n int) []records.Record {
	if n <= 0 || endUnit <= startUnit {
		return nil
	}
	rng := rand.New(rand.NewSource(cfg.Seed ^ (startUnit * 31)))
	return batch(rng, startUnit, endUnit, n, 40, func(b []byte) []byte {
		b = appendSensor(b, rng.Intn(cfg.Sensors))
		for _, scale := range [...]float64{105, 68, 5, 12, 40} { // x, y, z, |v|, |a| as %.2f
			b = appendFixed2(append(b, ','), rng.Float64()*scale)
		}
		return b
	})
}

// appendFixed2 appends v with two decimals, byte for byte what
// strconv.AppendFloat(b, v, 'f', 2, 64) appends, for 0 ≤ v < 2^52: it
// rounds v·100, computed exactly from v's 53-bit mantissa, half to even.
// Below 2^-8, v·100 < 0.5, so such v are "0.00".
func appendFixed2(b []byte, v float64) []byte {
	bits := math.Float64bits(v)
	exp := int(bits >> 52 & 0x7ff) // v = mant · 2^(exp-1075)
	if exp < 1023-8 {
		return append(b, "0.00"...)
	}
	shift := uint(1075 - exp) // 1 ≤ shift ≤ 60 on the domain
	x := (bits&(1<<52-1) | 1<<52) * 100
	q, rem, half := x>>shift, x&(1<<shift-1), uint64(1)<<(shift-1)
	if rem > half || rem == half && q&1 == 1 {
		q++
	}
	b = strconv.AppendUint(b, q/100, 10)
	return append(b, '.', byte('0'+q/10%10), byte('0'+q%10))
}

// FFGEvents generates n game events (possession, shot, pass) keyed by
// sensor, the join partner of the readings stream:
//
//	sensor,event,intensity
func FFGEvents(cfg FFGConfig, startUnit, endUnit int64, n int) []records.Record {
	if n <= 0 || endUnit <= startUnit {
		return nil
	}
	rng := rand.New(rand.NewSource(cfg.Seed ^ (startUnit*17 + 7)))
	events := []string{"possession", "pass", "shot", "tackle", "interrupt"}
	keys := cfg.EventKeys
	if keys <= 0 || keys > cfg.Sensors {
		keys = cfg.Sensors
	}
	return batch(rng, startUnit, endUnit, n, 24, func(b []byte) []byte {
		b = appendSensor(b, rng.Intn(keys))
		b = append(append(b, ','), events[rng.Intn(len(events))]...)
		return strconv.AppendInt(append(b, ','), int64(rng.Intn(100)), 10)
	})
}

// RateSchedule yields the per-slide workload multiplier for the
// Figure 8 fluctuation experiment: slides feeding windows 1, 4, 7 and
// 10 (1-based) carry the normal load and the rest are doubled.
type RateSchedule func(slideIdx int) float64

// SteadyRate is the constant schedule.
func SteadyRate(int) float64 { return 1 }

// PaperFluctuation reproduces §6.3's workload: with one new slide per
// window, the slide feeding window w (1-based) is normal for w ∈
// {1,4,7,10} and doubled otherwise. slidesPerWindow anchors the
// mapping from slide index to the first window it feeds.
func PaperFluctuation(slidesPerWindow int) RateSchedule {
	return func(slideIdx int) float64 {
		// Slide s (0-based) first contributes to 1-based window
		// max(1, s-slidesPerWindow+2); fluctuation follows that
		// window's parity in the paper's pattern.
		w := slideIdx - slidesPerWindow + 2
		if w < 1 {
			w = 1
		}
		switch (w - 1) % 3 {
		case 0:
			return 1 // windows 1, 4, 7, 10
		default:
			return 2
		}
	}
}

// Batches generates per-slide batches for `slides` slides of the given
// slide duration, calling gen for each range with the scheduled record
// count.
func Batches(slides int, slide simtime.Duration, base int, sched RateSchedule,
	gen func(startUnit, endUnit int64, n int) []records.Record) [][]records.Record {
	out := make([][]records.Record, slides)
	for s := 0; s < slides; s++ {
		start := int64(s) * int64(slide)
		end := start + int64(slide)
		n := int(float64(base) * sched(s))
		out[s] = gen(start, end, n)
	}
	return out
}

// newZipf builds a seeded Zipf sampler over [0, n).
func newZipf(rng *rand.Rand, n int, skew float64) *rand.Zipf {
	if n < 1 {
		n = 1
	}
	if skew <= 1 {
		skew = 1.01
	}
	return rand.NewZipf(rng, skew, 1, uint64(n-1))
}

// Diurnal returns a day-night rate schedule: the multiplier follows a
// sinusoid over `period` slides, swinging between 1-amplitude and
// 1+amplitude with the peak centred at peakSlide. Log volumes in the
// paper's motivating applications (web traffic, news feeds,
// clickstreams) follow this shape; pair it with an Adaptive query to
// exercise §3.3 under smooth rather than stepped load changes.
func Diurnal(period int, amplitude float64, peakSlide int) RateSchedule {
	if period < 1 {
		period = 1
	}
	if amplitude < 0 {
		amplitude = 0
	}
	return func(slideIdx int) float64 {
		phase := 2 * math.Pi * float64(slideIdx-peakSlide) / float64(period)
		m := 1 + amplitude*math.Cos(phase)
		if m < 0.05 {
			m = 0.05 // a quiet site still trickles
		}
		return m
	}
}
