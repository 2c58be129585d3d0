// Command redoop-bench regenerates the paper's evaluation figures
// (Figures 6–9 of "Redoop: Supporting Recurring Queries in Hadoop",
// EDBT 2014) on the simulated cluster and prints the measured series
// as text tables.
//
// Usage:
//
//	redoop-bench [-fig ID|all] [-windows N] [-records N]
//	             [-nodes N] [-reducers N] [-seed N]
//	             [-workers N] [-reuse]
//	             [-chaos SEED[:profile]] [-chaos-report]
//	             [-metrics-out FILE] [-trace-out FILE]
//	             [-json-out FILE]
//
// -fig names one entry of the figures table (redoop-bench -h lists
// them) or all, the paper's four figures.
//
// -nodes sets the simulated cluster's worker node count. -workers sets
// the host-side parallel compute pool each engine uses (0 = GOMAXPROCS,
// 1 = serial); it changes only wall-clock time — every virtual result
// is byte-identical across settings. Host time is measured by the
// benchmark module (benchmark/), not here.
//
// -reuse additionally runs the cross-query reuse workload — two
// identical Figure-6 aggregations plus a 2x tumbling roll-up over one
// shared WCC stream — twice, with the fingerprint-keyed reuse index
// (internal/reuse) detached and attached, the differential oracle on
// every window. The comparison is folded into the -json-out summary as
// a "reuse" block (map tasks off/on, index hit counters, per-query
// cross-query savings); outputs that differ byte-for-byte between the
// variants, or a sibling that still computed panes of its own with
// reuse enabled, exit 4. The block holds only virtual quantities, so
// it is byte-identical across -workers settings.
//
// -metrics-out writes the Prometheus text exposition of every metric
// the run produced (cache hits/misses, placement outcomes, shuffle
// bytes, task latencies); -trace-out writes a Chrome trace-event JSON
// loadable in Perfetto (https://ui.perfetto.dev) showing recurrence,
// phase and task spans per query and node. Both artifacts are written
// even when a figure fails, so partial runs remain inspectable.
//
// -chaos SEED[:profile] switches from figure regeneration to chaos
// verification: every engine regime (aggregation, join, adaptive,
// speculative) runs under the deterministic fault schedule the seed
// generates — node crashes and revivals, cache losses, pane-file
// corruption, delayed batches, stragglers — with the differential
// window oracle attached. Every window's output is compared
// byte-for-byte against an independent recomputation and the engine's
// structural invariants are checked after each recurrence; any
// divergence exits 4. Profiles: mixed (default), crash, cacheloss,
// corrupt, delay, straggle, speculative, none. -chaos-report folds the
// generated schedule, every per-recurrence verdict and the first
// divergence into the -json-out summary.
//
// -json-out writes a machine-readable run summary (configuration,
// per-figure series with per-window timings, makespans, shuffle
// totals, the headline speedup, cache hit/shuffle aggregates, per-query
// SLO health, a "costs" block with the resource-accounting ledger's
// per-query attribution and conservation verdict, and a "lineage" block
// with the provenance store's totals — derivation nodes, edges,
// distinct plan fingerprints, rebuild count). Every field is virtual,
// so the summary is byte-identical across -workers settings.
// bench-trajectory/FIGS.json is the checked-in summary of
//
//	redoop-bench -fig all -reuse -q -json-out bench-trajectory/FIGS.json
//
// and CI regenerates it at -workers 1 and 4 and diffs both against it:
// any virtual change fails until the file is re-recorded on purpose.
//
// Exit codes: 0 success, 1 a failed run or artifact write, 2 a usage
// error, 4 a chaos or reuse divergence.
//
// See EXPERIMENTS.md for how the printed numbers map onto the paper's
// plots.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"redoop/internal/account"
	"redoop/internal/core"
	"redoop/internal/experiments"
	"redoop/internal/health"
	"redoop/internal/lineage"
	"redoop/internal/obs"
	"redoop/internal/simtime"
)

// figure is one -fig choice; cum figures print cumulative tables.
type figure struct {
	id  string
	run func(experiments.Config) (*experiments.FigResult, error)
	cum bool
}

// figures is every -fig choice, in the order -fig all and the help text
// list them.
var figures = []figure{
	{"6", experiments.Fig6, false},
	{"7", experiments.Fig7, false},
	{"8", experiments.Fig8, false},
	{"9", experiments.Fig9, true},
	{"ablation-caching", experiments.AblationCaching, false},
	{"ablation-scheduling", experiments.AblationScheduling, false},
	{"ablation-speculation", experiments.AblationSpeculation, false},
	{"sweep", experiments.OverlapSweep, false},
	{"multiquery", experiments.MultiQuerySharing, false},
}

// paperFigures are the figures -fig all runs.
var paperFigures = map[string]bool{"6": true, "7": true, "8": true, "9": true}

// figureIDs lists every -fig choice for the help text and the
// unknown-figure error.
func figureIDs() string {
	ids := make([]string, len(figures))
	for i, f := range figures {
		ids[i] = f.id
	}
	return strings.Join(ids, ", ")
}

func main() { os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr)) }

// realMain is main with its process boundary injected: the arguments
// after the program name, the two output streams, and the exit code as
// the return value.
func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("redoop-bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		fig      = fs.String("fig", "all", "figure to regenerate: "+figureIDs()+", or all (= the paper's four figures)")
		windows  = fs.Int("windows", 0, "windows per series (default 10)")
		recs     = fs.Int("records", 0, "records per window (default 120000)")
		nodes    = fs.Int("nodes", 0, "cluster worker nodes (default 10)")
		reducers = fs.Int("reducers", 0, "reduce partitions (default 20)")
		workers  = fs.Int("workers", 0, "parallel compute pool per engine: 0 = GOMAXPROCS, 1 = serial (virtual results are identical either way)")
		reuseRun = fs.Bool("reuse", false, "also run the cross-query reuse workload (two identical Figure-6 aggregations + a 2x tumbling roll-up over one shared stream) with the reuse index off and on, verify byte-identical outputs, and fold the comparison into -json-out")
		chaosArg = fs.String("chaos", "", "run chaos verification instead of figures: SEED[:profile] seeds a deterministic fault schedule, the oracle verifies every window (profiles: mixed, crash, cacheloss, corrupt, delay, straggle, speculative, none)")
		chaosRep = fs.Bool("chaos-report", false, "with -chaos and -json-out: include the fault schedule and every per-recurrence oracle verdict in the summary")
		seed     = fs.Int64("seed", 0, "generator seed (default 42)")
		quiet    = fs.Bool("q", false, "suppress progress lines")
		csvPath  = fs.String("csv", "", "also append every series as tidy CSV to this file")
		metrics  = fs.String("metrics-out", "", "write a Prometheus text exposition of the run's metrics to this file")
		trace    = fs.String("trace-out", "", "write a Perfetto-loadable Chrome trace JSON of the run to this file")
		jsonOut  = fs.String("json-out", "", "write a machine-readable JSON run summary to this file")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	cfg := experiments.Default()
	if *windows > 0 {
		cfg.Windows = *windows
	}
	if *recs > 0 {
		cfg.RecordsPerWindow = *recs
	}
	if *nodes > 0 {
		cfg.Workers = *nodes
	}
	if *reducers > 0 {
		cfg.Reducers = *reducers
	}
	cfg.ExecWorkers = *workers
	if *seed != 0 {
		cfg.Seed = *seed
	}
	var ob *obs.Observer
	if *metrics != "" || *trace != "" || *jsonOut != "" {
		ob = obs.New()
		cfg.Obs = ob
	}
	// One shared SLO monitor across every engine the figures build, so
	// the summary carries per-query health aggregates.
	var mon *health.Monitor
	if ob != nil {
		mon = health.NewMonitor(health.DefaultConfig())
		mon.SetObserver(ob)
		cfg.Health = mon
	}
	// One shared cost ledger across every Redoop engine the run builds,
	// so the summary carries per-query resource attribution. Engines are
	// collected through the same hook to total the clusters' busy time
	// for the conservation check (engines run sequentially, so the
	// append is race-free).
	var acct *account.Ledger
	var engines []*core.Engine
	if ob != nil {
		acct = account.New()
		cfg.Account = acct
		// One shared provenance store too, so the summary's lineage
		// block covers every engine.
		cfg.Lineage = lineage.New(0)
		cfg.OnEngine = func(e *core.Engine) { engines = append(engines, e) }
	}
	// Artifacts are flushed on every exit path — including figure
	// failures — so a crashed or fault-injected run still leaves its
	// metrics and trace behind for inspection. Returns false when an
	// artifact could not be written, so callers exit nonzero rather
	// than letting scripts assume the file exists.
	writeArtifacts := func() bool {
		if ob == nil {
			return true
		}
		ok := true
		if *metrics != "" {
			if err := ob.Exposition().WriteMetricsFile(*metrics); err != nil {
				fmt.Fprintf(stderr, "redoop-bench: metrics-out: %v\n", err)
				ok = false
			} else if !*quiet {
				fmt.Fprintf(stderr, "[metrics written to %s]\n", *metrics)
			}
		}
		if *trace != "" {
			if err := ob.WriteTraceFile(*trace); err != nil {
				fmt.Fprintf(stderr, "redoop-bench: trace-out: %v\n", err)
				ok = false
			} else if !*quiet {
				fmt.Fprintf(stderr, "[trace written to %s; open at https://ui.perfetto.dev]\n", *trace)
			}
		}
		return ok
	}
	// writeJSON folds the shared sidecars into sum and writes it to
	// -json-out; false when the file could not be written.
	writeJSON := func(sum summaryJSON) bool {
		sum.Health = healthSummary(mon)
		sum.Costs = costsSummary(acct, clusterBusyNS(engines))
		warnConservation(stderr, sum.Costs)
		sum.Lineage = lineageSummary(cfg.Lineage)
		if err := obs.WriteFileAtomic(*jsonOut, func(w io.Writer) error {
			return writeSummary(w, sum)
		}); err != nil {
			fmt.Fprintf(stderr, "redoop-bench: json-out: %v\n", err)
			return false
		}
		if !*quiet {
			fmt.Fprintf(stderr, "[run summary written to %s]\n", *jsonOut)
		}
		return true
	}

	if *chaosRep && *chaosArg == "" {
		fmt.Fprintln(stderr, "redoop-bench: -chaos-report needs -chaos SEED[:profile]")
		return 2
	}
	if *chaosArg != "" {
		cj, failed, err := runChaos(stdout, cfg, *chaosArg, *chaosRep, *quiet)
		if err != nil {
			fmt.Fprintf(stderr, "redoop-bench: chaos: %v\n", err)
			return 2
		}
		if *jsonOut != "" {
			sum := buildSummary(cfg, nil, nil, ob.Exposition())
			sum.Profile = profileSummary(ob)
			sum.Chaos = cj
			if !writeJSON(sum) {
				return 1
			}
		}
		if !writeArtifacts() {
			return 1
		}
		if failed {
			return 4
		}
		return 0
	}

	var fig6, fig7 *experiments.FigResult
	var results []*experiments.FigResult
	for _, f := range figures {
		if *fig == "all" && !paperFigures[f.id] {
			continue
		}
		if *fig != "all" && *fig != f.id {
			continue
		}
		start := time.Now()
		res, err := f.run(cfg)
		if err != nil {
			fmt.Fprintf(stderr, "redoop-bench: figure %s: %v\n", f.id, err)
			writeArtifacts()
			return 1
		}
		if !*quiet {
			fmt.Fprintf(stderr, "[figure %s regenerated in %v]\n", f.id, time.Since(start).Round(time.Millisecond))
		}
		if f.cum {
			res.FormatCumulative(stdout)
		} else {
			res.Format(stdout)
		}
		if *csvPath != "" {
			out, err := os.OpenFile(*csvPath, os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
			if err != nil {
				fmt.Fprintf(stderr, "redoop-bench: %v\n", err)
				return 1
			}
			if err := res.FormatCSV(out); err != nil {
				fmt.Fprintf(stderr, "redoop-bench: csv: %v\n", err)
				return 1
			}
			out.Close()
		}
		results = append(results, res)
		switch f.id {
		case "6":
			fig6 = res
		case "7":
			fig7 = res
		}
	}
	if len(results) == 0 {
		fmt.Fprintf(stderr, "redoop-bench: unknown figure %q (want %s or all)\n", *fig, figureIDs())
		return 2
	}
	var headline *float64
	if fig6 != nil && fig7 != nil {
		h := experiments.Headline(fig6, fig7)
		headline = &h
		fmt.Fprintf(stdout, "headline: best steady-state speedup over plain Hadoop = %.1fx (paper: up to 9x)\n", h)
	}
	// The cross-query reuse comparison runs on a clean config (its own
	// ledger, no shared observer) so its off/on runs do not bleed into
	// the figures' shared accounting; the resulting block holds only
	// virtual quantities metered at serial commit points, so it is
	// byte-identical across -workers settings.
	var reuseOff, reuseOn *experiments.ReuseReport
	if *reuseRun {
		rCfg := cfg
		rCfg.Obs = nil
		rCfg.Health = nil
		rCfg.OnEngine = nil
		rCfg.Account = nil
		rCfg.Lineage = nil
		rCfg.OracleCheck = true
		start := time.Now()
		var err error
		if reuseOff, err = experiments.RunCrossQueryReuse(rCfg, false); err == nil {
			reuseOn, err = experiments.RunCrossQueryReuse(rCfg, true)
		}
		if err != nil {
			fmt.Fprintf(stderr, "redoop-bench: reuse: %v\n", err)
			writeArtifacts()
			return 1
		}
		if !*quiet {
			fmt.Fprintf(stderr, "[reuse comparison measured in %v]\n", time.Since(start).Round(time.Millisecond))
		}
		for i := range reuseOff.Queries {
			if reuseOff.Queries[i].OutputDigest != reuseOn.Queries[i].OutputDigest {
				fmt.Fprintf(stderr, "redoop-bench: reuse: query %s window outputs diverged between reuse off and on\n",
					reuseOff.Queries[i].Query)
				writeArtifacts()
				return 4
			}
		}
		if n := reuseOn.Queries[1].MapTasks; n != 0 {
			fmt.Fprintf(stderr, "redoop-bench: reuse: sibling %s ran %d map tasks with reuse enabled; want 0\n",
				reuseOn.Queries[1].Query, n)
			writeArtifacts()
			return 4
		}
		fmt.Fprintf(stdout, "reuse: %d map tasks without index, %d with (sibling computes nothing; outputs byte-identical off/on)\n",
			reuseOff.TotalMapTasks(), reuseOn.TotalMapTasks())
	}
	if *jsonOut != "" {
		sum := buildSummary(cfg, results, headline, ob.Exposition())
		sum.Reuse = reuseSummary(reuseOff, reuseOn)
		sum.Profile = profileSummary(ob)
		if !writeJSON(sum) {
			return 1
		}
	}
	if !writeArtifacts() {
		return 1
	}
	return 0
}

// clusterBusyNS totals Node.Load() across every engine the run built —
// the cluster-side busy time the account ledger's attributed slot
// compute must never exceed.
func clusterBusyNS(engines []*core.Engine) int64 {
	var busy int64
	for _, e := range engines {
		for _, n := range e.MR().Cluster.Nodes() {
			busy += int64(n.Load())
		}
	}
	return busy
}

// warnConservation makes a ledger-invariant violation loud on stderr;
// the summary records it as costs.conservationOK.
func warnConservation(w io.Writer, c *costsJSON) {
	if c != nil && !c.ConservationOK {
		fmt.Fprintf(w, "redoop-bench: WARNING: cost ledger conservation VIOLATED (slot compute %s > cluster busy %s)\n",
			simtime.FormatNS(c.SlotComputeNS), simtime.FormatNS(c.ClusterBusyNS))
	}
}
