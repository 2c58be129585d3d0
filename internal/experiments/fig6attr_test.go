package experiments

import (
	"fmt"
	"strings"
	"testing"

	"redoop/internal/core"
	"redoop/internal/obs"
	"redoop/internal/simtime"
)

// TestFigure6WindowOneAttribution measures where Figure 6's window-1
// gap comes from: window 1 of the overlap-0.9 aggregation, at the
// default scale, for Hadoop and for Redoop without cache reuse, each
// run as runOne runs the ablation-caching table's series, with an
// observer attached. From each run's spans and stats it prints the last
// map's end after the trigger, the post-map tail (response minus that
// end), Σ map, Σ shuffle and Σ reduce, how many reduce tasks started
// before the last map ended and how much reduce-slot time they spent
// before it (the pipelining share): the table EXPERIMENTS.md carries
// under Figure 6. It changes nothing and asserts only what the table's
// reading rests on: both systems map the same splits.
func TestFigure6WindowOneAttribution(t *testing.T) {
	if testing.Short() {
		t.Skip("runs window 1 at the default scale")
	}
	type row struct {
		name                       string
		maps, reduces, early       int
		lastMap, tail, response    simtime.Duration
		sumMap, sumShuffle, sumRed simtime.Duration
		pipelined                  simtime.Duration
	}
	var rows []row
	for _, sys := range []system{hadoop("Hadoop"), {name: "Redoop, no reuse", seedShift: 3, disableReuse: true}} {
		cfg := Default()
		cfg.Windows = 1
		cfg.Obs = obs.New()
		var res *core.RecurrenceResult
		if _, err := cfg.runOne(cfg.aggSpec("q1a", 0.9), sys, func(r *core.RecurrenceResult) { res = r }); err != nil {
			t.Fatal(err)
		}
		r := row{name: sys.name, response: res.ResponseTime,
			sumMap: res.Stats.MapTime, sumShuffle: res.Stats.ShuffleTime, sumRed: res.Stats.ReduceTime}
		events := cfg.Obs.Events()
		var lastMap simtime.Time
		for _, ev := range events {
			if ev.Cat == "map" {
				r.maps++
				lastMap = simtime.Max(lastMap, ev.End)
			}
		}
		for _, ev := range events {
			if ev.Cat == "reduce" {
				r.reduces++
				if ev.Start < lastMap {
					r.early++
					r.pipelined += simtime.Min(ev.End, lastMap).Sub(ev.Start)
				}
			}
		}
		r.lastMap, r.tail = lastMap.Sub(res.TriggerAt), res.CompletedAt.Sub(lastMap)
		rows = append(rows, r)
	}
	ms := func(d simtime.Duration) string { return fmt.Sprintf("%.2f ms", float64(d)/1e6) }
	var b strings.Builder
	b.WriteString("| | map tasks | last map ends | post-map tail | response | Σ map | Σ shuffle | Σ reduce | reduce tasks | started before the last map ended | their reduce time before it |\n")
	b.WriteString("|---|---|---|---|---|---|---|---|---|---|---|\n")
	for _, r := range rows {
		fmt.Fprintf(&b, "| %s | %d | %s | %s | %s | %s | %s | %s | %d | %d | %s |\n", r.name, r.maps,
			ms(r.lastMap), ms(r.tail), ms(r.response), ms(r.sumMap), ms(r.sumShuffle), ms(r.sumRed), r.reduces, r.early, ms(r.pipelined))
	}
	t.Logf("Figure 6, overlap 0.9, window 1:\n%s", b.String())
	if rows[0].maps != rows[1].maps {
		t.Errorf("Hadoop maps %d splits, Redoop %d: the systems' map work differs", rows[0].maps, rows[1].maps)
	}
}
