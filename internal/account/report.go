package account

import (
	"bufio"
	"fmt"
	"io"
	"slices"
	"sort"

	"redoop/internal/simtime"
)

// WriteReport renders a cost snapshot as a fixed-width table: the
// top-K queries by total compute (K <= 0 means all), then per-tenant
// rollups when any query is tenanted. Every number is derived from the
// snapshot alone, so the report is byte-identical whenever the
// snapshot is — in particular across -workers regimes. It returns the
// first write error.
func WriteReport(out io.Writer, snaps []QueryCosts, topK int) error {
	w := bufio.NewWriter(out)
	ordered := append([]QueryCosts(nil), snaps...)
	sort.SliceStable(ordered, func(i, j int) bool {
		return ordered[i].TotalComputeNS > ordered[j].TotalComputeNS
	})
	shown := ordered
	if topK > 0 && topK < len(shown) {
		shown = shown[:topK]
	}
	fmt.Fprintf(w, "%-10s %-10s %12s %12s %12s %12s %14s %12s %10s\n",
		"query", "tenant", "compute", "slot", "io(B)", "cache(B·s)", "peak(B)", "saved", "roi(ns/B·s)")
	for _, qc := range shown {
		var ioBytes int64
		for _, b := range qc.IOBytes {
			ioBytes += b
		}
		tenant := qc.Tenant
		if tenant == "" {
			tenant = "-"
		}
		fmt.Fprintf(w, "%-10s %-10s %12s %12s %12d %12.1f %14d %12s %10.3f\n",
			qc.Query, tenant, simtime.FormatNS(qc.TotalComputeNS), simtime.FormatNS(qc.SlotComputeNS),
			ioBytes, qc.CacheByteSeconds, qc.PeakResidentBytes, simtime.FormatNS(qc.SavedNS), qc.CacheROI)
	}
	if dropped := len(ordered) - len(shown); dropped > 0 {
		fmt.Fprintf(w, "(%d more queries below top %d)\n", dropped, topK)
	}

	// Per-phase compute breakdown for the shown queries.
	fmt.Fprintf(w, "\n%-10s", "phase")
	for _, qc := range shown {
		fmt.Fprintf(w, " %12s", qc.Query)
	}
	fmt.Fprintln(w)
	for _, p := range Phases {
		any := false
		for _, qc := range shown {
			if qc.ComputeNS[string(p)] != 0 {
				any = true
			}
		}
		if !any {
			continue
		}
		fmt.Fprintf(w, "%-10s", p)
		for _, qc := range shown {
			fmt.Fprintf(w, " %12s", simtime.FormatNS(qc.ComputeNS[string(p)]))
		}
		fmt.Fprintln(w)
	}

	if slices.ContainsFunc(snaps, func(qc QueryCosts) bool { return qc.Tenant != "" }) {
		fmt.Fprintf(w, "\n%-10s %7s %12s %12s %12s %12s %10s\n",
			"tenant", "queries", "compute", "io(B)", "cache(B·s)", "saved", "roi(ns/B·s)")
		for _, tc := range RollupTenants(snaps) {
			tenant := tc.Tenant
			if tenant == "" {
				tenant = "-"
			}
			fmt.Fprintf(w, "%-10s %7d %12s %12d %12.1f %12s %10.3f\n",
				tenant, tc.Queries, simtime.FormatNS(tc.TotalComputeNS), tc.IOBytes,
				tc.CacheByteSeconds, simtime.FormatNS(tc.SavedNS), tc.CacheROI)
		}
	}
	return w.Flush()
}
