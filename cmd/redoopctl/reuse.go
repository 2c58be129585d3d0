package main

import (
	"bufio"
	"fmt"
	"io"

	"redoop/internal/experiments"
	"redoop/internal/simtime"
)

// runReuse is the reuse subcommand: the shared-stream workload — two
// identical Figure-6 aggregations plus a 2x tumbling roll-up over one
// WCC stream — runs twice, with the cross-query reuse index detached
// and attached, under the differential oracle. The report contrasts
// per-query map tasks and pane accounting between the two runs, prints
// the ledger's cross-query savings attribution and the index counters,
// and fails with a non-zero exit if any query's window outputs differ
// byte-for-byte between the variants or if the identical-geometry
// sibling still computed panes of its own (the CI smoke step relies on
// both checks, experiments.CompareCrossQueryReuse's verdict).
func runReuse(out io.Writer, cfg experiments.Config) error {
	cfg.OracleCheck = true
	off, on, verdict, err := experiments.CompareCrossQueryReuse(cfg)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(out)
	fmt.Fprintf(w, "cross-query reuse: %d windows x %d queries over one shared stream (oracle on every window)\n\n",
		cfg.Windows, len(on.Queries))
	fmt.Fprintf(w, "%-10s %9s %9s %12s %12s %10s %12s %s\n",
		"query", "map(off)", "map(on)", "panes(off)", "panes(on)", "crosshits", "saved", "outputs")
	for i := range off.Queries {
		o, n := off.Queries[i], on.Queries[i]
		outputs := "identical"
		if o.OutputDigest != n.OutputDigest {
			outputs = "DIVERGED"
		}
		fmt.Fprintf(w, "%-10s %9d %9d %7d/%-4d %7d/%-4d %10d %12s %s\n",
			o.Query, o.MapTasks, n.MapTasks,
			o.NewPanes, o.ReusedPanes, n.NewPanes, n.ReusedPanes,
			n.CrossQueryHits, fmtMS(simtime.Duration(n.CrossSavedNS)), outputs)
	}
	fmt.Fprintf(w, "\ntotal map tasks: %d without reuse, %d with reuse\n",
		off.TotalMapTasks(), on.TotalMapTasks())
	if on.Index != nil {
		s := on.Index
		fmt.Fprintf(w, "reuse index: %d entries, %d published, %d exact hits, %d subsumption hits, %d dropped, %d evicted\n",
			s.Entries, s.Published, s.ExactHits, s.SubsumHits, s.Dropped, s.Evicted)
	}
	if err := w.Flush(); err != nil {
		return err
	}
	return verdict
}
