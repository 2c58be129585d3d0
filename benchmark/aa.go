package main

import (
	"fmt"
	"math"
)

// runAA measures the same code twice: per workload two interleaved sets
// (A1 B1 A2 B2 ...) of n end-to-end runs and one traced run each. It
// prints both medians of every end-to-end metric with their relative
// difference and the bound, and checks that the sets agree within the
// bound and that every exact-count per-layer metric is identical. A
// benchmark that fails its own A/A cannot judge a change.
func runAA(selected []spec, n int, seed int64, seconds float64) bool {
	ok := true
	for _, w := range selected {
		var sets [2]map[string][]float64
		var exact [2]map[string]float64
		for s := range sets {
			sets[s] = map[string][]float64{}
		}
		for i := 0; i < n; i++ {
			for s := range sets {
				o, err := measure(w, seed, seconds, false, "")
				if err != nil || o.failed > 0 {
					fmt.Printf("%s: run %c%d failed: %v %s\n", w.name, 'A'+s, i+1, err, o.failure)
					return false
				}
				for k, v := range o.metrics {
					sets[s][k] = append(sets[s][k], v)
				}
			}
		}
		for s := range exact {
			o, err := measure(w, seed, seconds, true, "")
			if err != nil {
				fmt.Printf("%s: traced run %c failed: %v\n", w.name, 'A'+s, err)
				return false
			}
			exact[s] = o.metrics
		}

		fmt.Printf("\n%s: A/A over 2 x %d runs\n", w.name, n)
		fmt.Printf("  %-28s %12s %12s %8s %7s\n", "metric", "median A", "median B", "diff", "bound")
		for _, m := range endToEnd {
			a, b := median(sets[0][m.name]), median(sets[1][m.name])
			diff := math.Abs(b-a) / a
			verdict := ""
			if diff > m.bound {
				verdict, ok = "  DISAGREE", false
			}
			fmt.Printf("  %-28s %12.4f %12.4f %7.2f%% %6g%%%s\n", m.name, a, b, diff*100, m.bound*100, verdict)
		}
		differing := 0
		for _, m := range perLayer {
			if m.exact && exact[0][m.name] != exact[1][m.name] {
				fmt.Printf("  exact count %s differs: %v vs %v\n", m.name, exact[0][m.name], exact[1][m.name])
				differing++
			}
		}
		if differing > 0 {
			ok = false
		} else {
			fmt.Printf("  all exact-count per-layer metrics identical between the two traced runs\n")
		}
	}
	return ok
}
