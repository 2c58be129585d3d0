package main

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"

	"redoop/internal/account"
	"redoop/internal/core"
	"redoop/internal/experiments"
	"redoop/internal/lineage"
	"redoop/internal/obs"
	"redoop/internal/simtime"
)

// maxTraceEdges bounds the per-window DAG rendering in the lineage
// report; the full graph is -lineage-out's.
const maxTraceEdges = 24

// runLineage is the lineage subcommand: both figure workloads with the
// differential oracle forced on (its lineage pass machine-checks the
// provenance store's closure and a sampled SHA audit every window — a
// violation fails the run), recording into one shared provenance store
// and cost ledger. After each workload it prints that query's plan
// fingerprint and the final window's derivation DAG with per-edge
// virtual-time build costs joined against the ledger's attributed
// compute; the store totals close the report.
func runLineage(tableW, reportW io.Writer, cfg experiments.Config, o runOpts) error {
	o.Baseline, o.topK, cfg.OracleCheck = false, 0, true
	for _, wl := range figureWorkloads {
		o.Kind, o.Tenant = wl.kind, wl.tenant
		eng, err := run(tableW, cfg, o)
		if err != nil {
			return err
		}
		fmt.Fprintln(tableW)
		if err := writeLineageReport(reportW, cfg.Lineage, cfg.Account, eng, cfg.Windows-1); err != nil {
			return err
		}
	}

	st := cfg.Lineage.Stats()
	fmt.Fprintf(reportW, "provenance store: %d derivations, %d edges, %d batches, %d fingerprints, %d rebuilds, %d evicted\n",
		st.Nodes, st.Edges, st.Batches, st.DistinctFingerprints, st.Rebuilds, st.Evicted)
	plans := cfg.Lineage.Plans()
	fps := make([]string, 0, len(plans))
	for fp := range plans {
		fps = append(fps, fp)
	}
	sort.Strings(fps)
	for _, fp := range fps {
		fmt.Fprintf(reportW, "  plan %.12s… = %s\n", fp, plans[fp])
	}
	return nil
}

// writeLineageReport renders one query's section of the lineage
// report: its canonical plan fingerprint, then the final window's
// derivation trace — every edge with the consumer's virtual build
// cost — and the DAG-vs-ledger cost join.
func writeLineageReport(w io.Writer, lin *lineage.Store, acct *account.Ledger, eng *core.Engine, lastRec int) error {
	name := eng.AccountName()
	fmt.Fprintf(w, "lineage %s: plan fingerprint %s\n", name, eng.PlanFingerprint())

	winID := lineage.WindowID(name, lastRec)
	tr, ok := lin.Trace(winID)
	if !ok {
		return fmt.Errorf("lineage: window derivation %s missing from the provenance store", winID)
	}
	labels := make(map[string]string, len(tr.Nodes))
	for _, n := range tr.Nodes {
		labels[n.ID] = n.Label
	}
	fmt.Fprintf(w, "  window %s derives from %d nodes over %d edges:\n", winID, len(tr.Nodes), len(tr.Edges))
	for i, e := range tr.Edges {
		if i == maxTraceEdges {
			fmt.Fprintf(w, "    … and %d more edges (full DAG via -lineage-out)\n", len(tr.Edges)-maxTraceEdges)
			break
		}
		cost := ""
		if e.CostNS > 0 {
			cost = fmt.Sprintf("  [build %s]", fmtMS(simtime.Duration(e.CostNS)))
		}
		fmt.Fprintf(w, "    %s ← %s%s\n", labels[e.To], labels[e.From], cost)
	}

	// The cost join: the DAG's summed (re)build costs — each distinct
	// derivation counted once — against the compute the PR-7 ledger
	// attributed to the query. Cached panes reused across overlapping
	// windows keep the DAG sum well under fresh per-window compute.
	var dagCost int64
	for _, n := range tr.Nodes {
		if n.Kind == "batch" || n.Kind == "evicted" || n.ID == winID {
			continue
		}
		if d, ok := lin.Lookup(n.ID); ok {
			dagCost += d.CostNS
		}
	}
	fmt.Fprintf(w, "  cost join: DAG pane builds %s (virtual) vs ledger attributed compute %s\n\n",
		fmtMS(simtime.Duration(dagCost)), fmtMS(simtime.Duration(acct.SlotComputeNS(name))))
	return nil
}

// writeLineageOut writes the provenance store's whole derivation DAG
// to path as a JSON envelope with stats, plans and the graph.
func writeLineageOut(lin *lineage.Store, path string) error {
	return obs.WriteFileAtomic(path, func(w io.Writer) error {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(map[string]any{
			"stats":     lin.Stats(),
			"watermark": lin.Watermark(),
			"plans":     lin.Plans(),
			"graph":     lin.Graph(),
		})
	})
}
