// Command redoopctl runs a recurring query over generated data on the
// simulated cluster and reports per-window results — a workbench for
// exploring Redoop's behaviour without writing code.
//
// Usage:
//
//	redoopctl [metrics|explain|health|profile|costs|lineage|reuse] [-query agg|join] [-overlap 0.9]
//	          [-windows 10] [-records 120000] [-adaptive] [-baseline]
//	          [-failnode N] [-dropcaches] [-chaos SEED[:profile]]
//	          [-top K] [-seed N]
//	          [-workers N] [-spikewin N] [-spikefactor F] [-deadline DUR]
//	          [-cache-budget BYTESEC]
//	          [-metrics-out FILE] [-trace-out FILE]
//	          [-critpath-out FILE] [-lineage-out FILE]
//
// -workers sets the host-side parallel compute pool the engine uses
// (0 = GOMAXPROCS, 1 = serial). It changes only real elapsed time:
// every simulated result — outputs, virtual timings, stats — is
// byte-identical across settings.
//
// -query agg runs the WCC click-ranking aggregation (the paper's Q1);
// -query join runs the FFG sensor join (Q2). -baseline executes the
// same query with the plain-Hadoop driver instead of Redoop.
//
// The "metrics" subcommand runs the query and dumps the full
// Prometheus text exposition of its metrics to stdout (the per-window
// table moves to stderr), so `redoopctl metrics | grep cache` works;
// each histogram's p50, p90 and p99 are its `_quantile` lines.
//
// The "explain" subcommand runs the query and renders a per-recurrence
// decision report from the tracer's decision events: the Equation 4
// placement audit (each candidate node's Load_i + C_task,i and the
// chosen node), cache hit/miss/lost attribution per pane, retried task
// attempts, and the Holt forecast vs. actual response times with
// re-plan markers. The per-window table moves to stderr. The tracer
// keeps each query's newest 16 recurrences, spans and decisions
// together, so explain and profile report the same recurrences, and
// explain's header names those that aged out.
//
// The "health" subcommand runs the query and prints the SLO monitor's
// per-query status table: deadline headroom against the slide, the
// watermark window lag, miss streaks and forecast-residual anomalies.
// -spikewin N multiplies the input volume of window N by -spikefactor
// (default 10) — an oversized-batch fault that exercises the anomaly
// detector. -deadline DUR tightens the SLO deadline from the natural
// slide (simulated responses are virtual milliseconds against
// multi-minute slides) so misses and the AT_RISK/MISSING_DEADLINES
// escalation can be observed on a real run. -cache-budget B flags any
// query whose cumulative cache occupancy exceeds B byte·seconds as
// AT_RISK (cost governance; 0 disables) — it escalates an OK status
// only, never masking a worse deadline-driven one, and applies to
// deadline-less queries too.
//
// The "profile" subcommand runs the query once and prints its
// critical-path profile: per-query critical-path length, phase and wait
// breakdowns and the top-K critical-path segments, all in virtual time
// (host time is the benchmark module's, benchmark/). The run fails
// with a non-zero exit if a critical path does not tile its
// recurrence's wall-clock exactly. The time cache reuse saved is the
// "costs" subcommand's.
// -critpath-out writes the Chrome-trace critical-path overlay, which
// speedscope and Perfetto load (it also works outside the profile
// subcommand, from the same instrumented run).
//
// The "costs" subcommand runs BOTH figure workloads — the WCC
// aggregation as tenant-a and the FFG join as tenant-b — against one
// shared cost ledger and prints the accounting report: the top-K
// queries by attributed compute with per-phase breakdowns, IO bytes,
// cache occupancy in byte·seconds, recompute nanoseconds saved by
// cache hits, and the cache-ROI quotient (saved ns per resident
// byte·second), followed by per-tenant rollups. After each run the
// ledger's conservation invariants are checked against the engine's
// own totals — attributed slot compute must not exceed the cluster's
// accrued busy time, and cache residencies must reconcile — and any
// violation fails the invocation with a non-zero exit (the CI smoke
// step relies on this). The report is byte-identical across -workers
// settings because all metering happens in serial commit paths.
//
// The "lineage" subcommand runs BOTH figure workloads against one
// shared provenance store and cost ledger, with the differential
// oracle attached to every window: besides the byte-for-byte output
// check, the oracle's lineage pass machine-checks the store — closure
// (every resident cache copy has a derivation, every claimed batch and
// input edge resolves, consumer links are symmetric) and a sampled
// derivation audit that recomputes pane bytes strictly from the
// lineage-claimed input records and asserts SHA equality with what the
// store recorded. Any violation fails the invocation with a non-zero
// exit (the CI smoke step relies on this). The report prints the
// per-query plan fingerprint, the final window's derivation DAG with
// per-edge virtual-time build costs joined against the cost ledger's
// attributed compute, and the store totals. -lineage-out writes the
// whole derivation DAG as JSON; it also works outside the subcommand
// (it attaches a provenance store to any Redoop run) and is written
// even when the run fails partway.
//
// The "reuse" subcommand runs the cross-query reuse workload — two
// identical Figure-6 aggregations plus a coarser tumbling roll-up over
// one shared WCC stream — twice, with the fingerprint-keyed reuse
// index (internal/reuse) detached and attached, the differential
// oracle verifying every window of both runs. The report contrasts
// per-query map tasks and pane accounting between the variants and
// prints the cost ledger's cross-query savings attribution plus the
// index counters. The invocation fails with a non-zero exit if any
// query's window outputs differ byte-for-byte between reuse off and
// on, or if the identical-geometry sibling still ran map tasks of its
// own with reuse enabled (the CI smoke step relies on this). -chaos
// composes: both variants then run under the same seeded fault
// schedule.
//
// -chaos SEED[:profile] runs the query under a deterministic seeded
// fault schedule (node crashes and revivals, cache losses, pane-file
// corruption, delayed batches, stragglers — profile selects the fault
// family, default mixed) with the differential window oracle attached:
// every window's output is verified byte-for-byte against an
// independent recomputation plus the engine's structural invariants,
// and the per-window table gains an oracle column. A divergence fails
// the run. Incompatible with -baseline (the oracle checks the Redoop
// engine against the baseline semantics).
//
// -metrics-out and -trace-out write the exposition and a
// Perfetto-loadable Chrome trace JSON to files (the trace marks every
// retained decision as an instant on its query's track); both are
// written even when the run fails partway (e.g. under -failnode or
// -dropcaches fault injection), so the partial run stays inspectable.
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
	"redoop/internal/chaos"
	"redoop/internal/core"
	"redoop/internal/experiments"
	"redoop/internal/explain"
	"redoop/internal/health"
	"redoop/internal/lineage"
	"redoop/internal/mapreduce"
	"redoop/internal/obs"
	"redoop/internal/obs/eventlog"
	"redoop/internal/oracle"
	"redoop/internal/profile"
	"redoop/internal/queries"
	"redoop/internal/simtime"
	"redoop/internal/window"
)

func main() { os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr)) }

// runOpts are the flags that shape one query run; the embedded
// QueryRun's hooks are filled in by run.
type runOpts struct {
	experiments.QueryRun
	failNode  int
	dropCache bool
	topK      int
	spikeWin  int
	spikeFac  float64
}

// realMain is main with its process boundary injected: the arguments
// after the program name, the two output streams, and the exit code as
// the return value.
func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("redoopctl", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o runOpts
	fs.StringVar(&o.Kind, "query", "agg", "query to run: agg (Q1, WCC) or join (Q2, FFG)")
	fs.Float64Var(&o.Overlap, "overlap", 0.9, "window overlap factor (win-slide)/win")
	fs.BoolVar(&o.Adaptive, "adaptive", false, "enable adaptive input partitioning")
	fs.BoolVar(&o.Baseline, "baseline", false, "run the plain-Hadoop baseline instead of Redoop")
	fs.IntVar(&o.failNode, "failnode", -1, "kill this node before window 3")
	fs.BoolVar(&o.dropCache, "dropcaches", false, "drop one node's caches before every window")
	fs.IntVar(&o.topK, "top", 5, "print the top-K results of the final window")
	fs.IntVar(&o.spikeWin, "spikewin", -1, "multiply this window's input volume by -spikefactor (oversized-batch fault)")
	fs.Float64Var(&o.spikeFac, "spikefactor", 10, "input volume multiplier for -spikewin")
	var (
		windows     = fs.Int("windows", 10, "number of recurrences")
		recs        = fs.Int("records", 120000, "records per window")
		chaosArg    = fs.String("chaos", "", "run under a seeded deterministic fault schedule with the oracle verifying every window: SEED[:profile] (profiles: mixed, crash, cacheloss, corrupt, delay, straggle, speculative, none)")
		seed        = fs.Int64("seed", 42, "generator seed")
		workers     = fs.Int("workers", 0, "parallel compute pool: 0 = GOMAXPROCS, 1 = serial (simulated results are identical either way)")
		deadline    = fs.Duration("deadline", 0, "override the SLO deadline (default: the query's slide, in virtual time)")
		cacheBudget = fs.Float64("cache-budget", 0, "flag queries whose cumulative cache occupancy exceeds this many byte·seconds as AT_RISK (0 disables)")
		metricsOut  = fs.String("metrics-out", "", "write a Prometheus text exposition of the run's metrics to this file")
		traceOut    = fs.String("trace-out", "", "write a Perfetto-loadable Chrome trace JSON of the run to this file")
		critpathOut = fs.String("critpath-out", "", "write a Chrome trace JSON with the critical-path overlay to this file")
		lineageOut  = fs.String("lineage-out", "", "write the run's provenance store (stats, plans, derivation DAG) as JSON to this file")
	)
	usage := func(format string, a ...any) int {
		fmt.Fprintf(stderr, "redoopctl: "+format+"\n", a...)
		return 2
	}
	mode := "" // the subcommand; empty for a plain run
	if len(args) > 0 && args[0] != "" && args[0][0] != '-' {
		switch args[0] {
		case "metrics", "explain", "health", "profile", "costs", "lineage", "reuse":
			mode, args = args[0], args[1:]
		default:
			return usage("unknown subcommand %q (want metrics, explain, health, profile, costs, lineage or reuse)", args[0])
		}
	}
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if fs.NArg() > 0 {
		return usage("unexpected argument %q", fs.Arg(0))
	}

	cfg := experiments.Default()
	cfg.Windows = *windows
	cfg.RecordsPerWindow = *recs
	cfg.Seed = *seed
	cfg.ExecWorkers = *workers

	if *chaosArg != "" {
		if o.Baseline {
			return usage("-chaos cannot be combined with -baseline (the oracle verifies the Redoop engine against baseline semantics)")
		}
		_, cseed, cprofile, err := chaos.ParseSpec(*chaosArg)
		if err != nil {
			return usage("%v", err)
		}
		if cfg.Chaos, err = chaos.Generate(cseed, cprofile, cfg.Windows, cfg.Workers); err != nil {
			return usage("%v", err)
		}
	}

	wantLineage := mode == "lineage" || *lineageOut != ""
	if mode == "profile" && o.Baseline {
		return usage("profile needs the instrumented Redoop engine; it cannot be combined with -baseline")
	}
	if wantLineage && o.Baseline {
		return usage("the baseline driver records no provenance; lineage cannot be combined with -baseline")
	}

	// Lineage mode (and the standalone DAG artifact) attach a shared
	// provenance store; the subcommand's report additionally joins the
	// DAG against the cost ledger, so it needs one.
	if wantLineage {
		cfg.Lineage = lineage.New(0)
	}
	// The lineage report joins the DAG against the cost ledger, and the
	// health budget check reads cache occupancy from one, so both modes
	// attach a ledger for the numbers to be non-zero.
	if mode == "lineage" || mode == "health" {
		cfg.Account = account.New()
	}

	var ob *obs.Tracer
	if mode == "metrics" || mode == "explain" || mode == "health" || mode == "profile" ||
		*metricsOut != "" || *traceOut != "" || *critpathOut != "" {
		ob = obs.New()
		cfg.Obs = ob
	}

	// One shared SLO monitor so the health table survives the run.
	hcfg := health.DefaultConfig()
	hcfg.DeadlineOverride = simtime.Duration(*deadline)
	hcfg.CacheByteSecondBudget = *cacheBudget
	mon := health.NewMonitor(hcfg)
	if ob != nil {
		mon.SetObserver(ob)
	}
	cfg.Health = mon

	// Under a subcommand the report owns stdout; the table moves to
	// stderr so both remain usable.
	tableOut := stdout
	if mode != "" {
		tableOut = stderr
	}

	var runErr error
	switch mode {
	case "costs":
		runErr = runCosts(tableOut, stdout, cfg, o)
	case "lineage":
		runErr = runLineage(tableOut, stdout, cfg, o)
	case "reuse":
		runErr = runReuse(stdout, cfg)
	default:
		_, runErr = run(tableOut, cfg, o)
	}

	// Artifacts and the metrics dump are emitted even on failure so
	// fault-injected runs leave their partial series behind. A failed
	// artifact write is itself a failure: scripts must not read a
	// clean exit as "the artifact exists".
	artifactErr := false
	check := func(what string, err error) {
		if err != nil {
			fmt.Fprintf(stderr, "redoopctl: %s%v\n", what, err)
			artifactErr = true
		}
	}
	switch mode {
	case "metrics":
		check("metrics dump: ", ob.Exposition().WritePrometheus(stdout))
	case "explain":
		check("explain: ", explain.Build(ob.Decisions(), queryName(o.Kind)).Write(stdout))
	case "health":
		if o.Baseline {
			fmt.Fprintln(stderr, "redoopctl: the baseline driver has no health monitor; showing an empty table")
		}
		check("health: ", mon.WriteText(stdout))
	}
	if ob != nil && *metricsOut != "" {
		check("metrics-out: ", ob.Exposition().WriteMetricsFile(*metricsOut))
	}
	if ob != nil && *traceOut != "" {
		check("trace-out: ", ob.WriteTraceFile(*traceOut))
	}
	if ob != nil && (mode == "profile" || *critpathOut != "") {
		p := profile.Analyze(ob.Events())
		if mode == "profile" {
			check("profile report: ", p.Text(stdout, o.topK))
		}
		if *critpathOut != "" {
			check("critpath-out: ", p.WriteCritPathTraceFile(*critpathOut))
		}
		// The profiler's structural guarantee is part of the contract: a
		// critical path that does not tile its recurrence fails the
		// invocation.
		check("", p.CheckInvariants())
	}
	if cfg.Lineage != nil && *lineageOut != "" {
		check("lineage-out: ", writeLineageOut(cfg.Lineage, *lineageOut))
	}
	if runErr != nil {
		fmt.Fprintf(stderr, "redoopctl: %v\n", runErr)
		return 1
	}
	if artifactErr {
		return 1
	}
	return 0
}

// queryName maps the -query flag onto the query name the run
// constructs, for event-log filtering.
func queryName(kind string) string {
	if kind == "join" {
		return "q2"
	}
	return "q1"
}

// figureWorkloads are the two runs the costs and lineage subcommands
// share one ledger (and provenance store) across.
var figureWorkloads = []struct{ kind, tenant string }{
	{"agg", "tenant-a"},
	{"join", "tenant-b"},
}

// runCosts is the costs subcommand: both figure workloads, different
// tenants, one shared ledger; prints the accounting report to reportW
// and fails when any conservation invariant is violated.
func runCosts(tableW, reportW io.Writer, cfg experiments.Config, o runOpts) error {
	acct := account.New()
	cfg.Account = acct
	topK := o.topK
	o.Baseline, o.topK = false, 0
	var violations []string
	for _, wl := range figureWorkloads {
		o.Kind, o.Tenant = wl.kind, wl.tenant
		eng, err := run(tableW, cfg, o)
		if err != nil {
			return err
		}
		fmt.Fprintln(tableW)
		// Reconcile the ledger against the engine's own totals: the
		// compute attributed to this query can be at most the busy time
		// its cluster accrued, and every registered residency must have
		// been expired or still be open.
		var busy int64
		for _, n := range eng.MR().Cluster.Nodes() {
			busy += int64(n.Load())
		}
		name := eng.AccountName()
		if err := acct.CheckConservation(busy, name); err != nil {
			violations = append(violations, err.Error())
			fmt.Fprintf(reportW, "conservation %-4s VIOLATED: %v\n", name, err)
		} else {
			fmt.Fprintf(reportW, "conservation %-4s ok: slot compute %s ≤ cluster busy %s\n",
				name, fmtMS(simtime.Duration(acct.SlotComputeNS(name))), fmtMS(simtime.Duration(busy)))
		}
	}
	fmt.Fprintln(reportW)
	if err := account.WriteReport(reportW, acct.Snapshot(), topK); err != nil {
		return err
	}
	if len(violations) > 0 {
		return fmt.Errorf("ledger conservation violated: %s", strings.Join(violations, "; "))
	}
	return nil
}

// run drives one query through the experiments run driver, printing
// the per-window table and the final window's top results to w. It
// returns the engine (nil under -baseline).
func run(w io.Writer, cfg experiments.Config, o runOpts) (*core.Engine, error) {
	ws := window.NewTimeSpec(cfg.WindowDur, cfg.SlideFor(o.Overlap))
	system := "redoop"
	if o.Baseline {
		system = "hadoop-baseline"
	}
	fmt.Fprintf(w, "query=%s overlap=%.2f win=%v slide=%v pane=%v records/window=%d system=%s adaptive=%v\n\n",
		o.Kind, o.Overlap, time.Duration(ws.Win), time.Duration(ws.Slide),
		time.Duration(ws.PaneUnit()), cfg.RecordsPerWindow, system, o.Adaptive)

	// Under -chaos the driver tees batches into the oracle and gates
	// them through the injector; every window is then verified.
	if cfg.Chaos != nil {
		cfg.OracleCheck = true
		fmt.Fprintf(w, "chaos: seed %d profile %s, %d scheduled faults\n\n",
			cfg.Chaos.Seed, cfg.Chaos.Profile, len(cfg.Chaos.Actions))
	}
	verdict := ""
	cfg.OnVerdict = func(_ string, v oracle.Verdict) {
		verdict = " oracle=FAIL"
		if v.OK() {
			verdict = " oracle=ok"
		}
	}

	fmt.Fprintf(w, "%-7s %14s %12s %12s %12s %s\n", "window", "response", "shuffle", "reduce", "read(B)", "notes")
	// The oversized-batch fault: the panes first consumed by window
	// -spikewin carry -spikefactor times the volume.
	wf := window.FrameOf(ws)
	o.Rate = func(start int64) float64 {
		if first, _, _ := wf.WindowsOfPane(wf.PaneOf(start)); first == o.spikeWin {
			return o.spikeFac
		}
		return 1
	}
	o.Before = func(r int, mr *mapreduce.Engine) {
		if o.failNode >= 0 && r == 2 {
			at := wf.At(wf.WindowClose(r - 1))
			mr.DFS.FailNodeAt(o.failNode, at)
			mr.Cluster.FailNode(o.failNode)
			cfg.Obs.Emit(at, eventlog.Fault, queryName(o.Kind),
				eventlog.FaultData{Kind: eventlog.FaultNodeCrash, Node: o.failNode})
		}
		if o.dropCache && r > 0 && !o.Baseline {
			mr.Cluster.DropLocal(r%mr.Cluster.Config().Workers, "cache/")
		}
	}
	var last *core.RecurrenceResult
	o.Window = func(res *core.RecurrenceResult) {
		last = res
		notes := ""
		if !o.Baseline {
			notes = fmt.Sprintf("panes %d/%d", res.NewPanes, res.ReusedPanes)
			if o.Kind == "join" {
				notes += fmt.Sprintf(" pairs %d/%d", res.NewPairs, res.ReusedPairs)
			}
			if res.CacheRecoveries > 0 {
				notes += fmt.Sprintf(" recovered=%d", res.CacheRecoveries)
			}
			if res.Proactive {
				notes += fmt.Sprintf(" proactive(sub=%d)", res.SubPanes)
			}
			notes += verdict
		}
		fmt.Fprintf(w, "%-7d %14s %12s %12s %12d %s\n", res.Recurrence+1,
			fmtMS(res.ResponseTime), fmtMS(res.Stats.ShuffleTime), fmtMS(res.Stats.ReduceTime), res.Stats.BytesRead, notes)
	}
	eng, err := cfg.RunQuery(o.QueryRun)
	if err != nil {
		return nil, err
	}

	if o.topK > 0 && last != nil && len(last.Output) > 0 {
		fmt.Fprintf(w, "\nfinal window: %d output pairs", len(last.Output))
		if o.Kind == "agg" {
			fmt.Fprintf(w, "; top %d by count:\n", o.topK)
			for _, r := range queries.RankTopK(last.Output, o.topK) {
				fmt.Fprintf(w, "  %-12s %d\n", r.Key, r.Count)
			}
		} else {
			fmt.Fprintf(w, "; a sample:\n")
			mapreduce.SortPairs(last.Output)
			for i := 0; i < o.topK && i < len(last.Output); i++ {
				fmt.Fprintf(w, "  %s = %s\n", last.Output[i].Key, last.Output[i].Value)
			}
		}
	}
	return eng, nil
}

func fmtMS(d simtime.Duration) string {
	return fmt.Sprintf("%.2fms", float64(d)/1e6)
}
