package main

import (
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
// both checks).
func runReuse(w io.Writer, cfg experiments.Config) error {
	cfg.OracleCheck = true
	off, err := experiments.RunCrossQueryReuse(cfg, false)
	if err != nil {
		return fmt.Errorf("reuse off: %w", err)
	}
	on, err := experiments.RunCrossQueryReuse(cfg, true)
	if err != nil {
		return fmt.Errorf("reuse on: %w", err)
	}

	fmt.Fprintf(w, "cross-query reuse: %d windows x %d queries over one shared stream (oracle on every window)\n\n",
		cfg.Windows, len(on.Queries))
	fmt.Fprintf(w, "%-10s %9s %9s %12s %12s %10s %12s %s\n",
		"query", "map(off)", "map(on)", "panes(off)", "panes(on)", "crosshits", "saved", "outputs")
	var digestErr error
	for i := range off.Queries {
		o, n := off.Queries[i], on.Queries[i]
		verdict := "identical"
		if o.OutputDigest != n.OutputDigest {
			verdict = "DIVERGED"
			digestErr = fmt.Errorf("reuse: query %s window outputs diverged between reuse off and on", o.Query)
		}
		fmt.Fprintf(w, "%-10s %9d %9d %7d/%-4d %7d/%-4d %10d %12s %s\n",
			o.Query, o.MapTasks, n.MapTasks,
			o.NewPanes, o.ReusedPanes, n.NewPanes, n.ReusedPanes,
			n.CrossQueryHits, fmtMS(simtime.Duration(n.CrossSavedNS)), verdict)
	}
	fmt.Fprintf(w, "\ntotal map tasks: %d without reuse, %d with reuse\n",
		off.TotalMapTasks(), on.TotalMapTasks())
	if on.Index != nil {
		s := on.Index
		fmt.Fprintf(w, "reuse index: %d entries, %d published, %d exact hits, %d subsumption hits, %d dropped, %d evicted\n",
			s.Entries, s.Published, s.ExactHits, s.SubsumHits, s.Dropped, s.Evicted)
	}
	if digestErr != nil {
		return digestErr
	}
	if n := on.Queries[1].MapTasks; n != 0 {
		return fmt.Errorf("reuse: sibling %s ran %d map tasks with reuse enabled; want 0 (every shared pane computed once)",
			on.Queries[1].Query, n)
	}
	return nil
}
