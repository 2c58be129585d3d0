// Command benchmark is redoop's host-time benchmark: five recurring-query
// workloads driven against core.Engine from outside, eight end-to-end
// metrics per workload, and — in a separate traced run — per-layer
// metrics obtained by timing each layer's public calls on a shadow
// runtime. See README.md in this directory.
//
//	benchmark -workload <name|all> [-seed N] [-seconds S] [-trace 0|1] [-out DIR]
//	benchmark -aa N [-workload <name|all>] ...
//	benchmark -list
//
// The last line of standard output of a single-workload run is one JSON
// object: {"correct", "attempted", "failed", "metrics"}.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
)

// outcome is one workload run's reportable result.
type outcome struct {
	w         spec
	table     []metric // endToEnd or perLayer
	metrics   map[string]float64
	attempted int
	failed    int
	failure   string
	steady    int
	hostSpeed float64 // how fast the host ran the calibration kernel, 1 = calibRef; 0 if not measured
}

// measure makes one run of a workload: the end-to-end pass, or with
// trace set the per-layer passes. End-to-end numbers never come from a
// traced run.
func measure(w spec, seed int64, seconds float64, trace bool, outDir string) (outcome, error) {
	if trace {
		m, res, err := perLayerRun(w, seed, outDir)
		if err != nil {
			return outcome{}, err
		}
		return outcome{w: w, table: perLayer, metrics: m, attempted: res.attempted, steady: len(res.steady)}, nil
	}
	res, err := run(w, endToEndOpts(seed, seconds))
	if err != nil {
		return outcome{}, err
	}
	o := outcome{w: w, table: endToEnd, attempted: res.attempted, failed: res.failed, failure: res.failure, steady: len(res.steady)}
	if res.failed == 0 {
		o.metrics = res.endToEnd()
		o.hostSpeed = 1 / median(slowdowns(res.steady))
	}
	return o, nil
}

// print writes the human-readable report followed by the JSON line.
func (o outcome) print() error {
	fmt.Printf("\n%s: %d recurrences attempted (%d warm-up verified against baseline.Driver, %d steady verified by pool-period digest), %d failed\n",
		o.w.name, o.attempted, min(warmRecurrences, o.attempted), o.steady, o.failed)
	if o.failed > 0 {
		fmt.Printf("  first failure: %s\n", o.failure)
	}
	if o.hostSpeed > 0 {
		fmt.Printf("  host ran the calibration kernel %.2fx as fast as the quiet sandbox; times below are scaled to the latter\n", o.hostSpeed)
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{o.failed == 0, o.attempted, o.failed, map[string]value{}}
	for _, m := range o.table {
		v, ok := o.metrics[m.name]
		if !ok {
			continue
		}
		out.Metrics[m.name] = value{v, m.unit}
		bound := ""
		if m.bound > 0 {
			bound = fmt.Sprintf(", bound %g%%", m.bound*100)
		}
		fmt.Printf("  %-32s %14.4f %-8s (%s is better%s)\n", m.name, v, m.unit, m.better, bound)
	}
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Printf("%s\n", line)
	return nil
}

func printList() {
	fmt.Println("workloads:")
	for _, w := range workloads {
		fmt.Printf("  %-26s %s\n", w.name, w.why)
	}
	fmt.Println("end-to-end metrics (per workload, -trace 0):")
	for _, m := range endToEnd {
		fmt.Printf("  %-32s %-8s %-6s bound %4g%%  %s\n", m.name, m.unit, m.better, m.bound*100, m.help)
	}
	fmt.Println("per-layer metrics (per workload, -trace 1; * = exact count, repeats bit-for-bit for one seed):")
	for _, m := range perLayer {
		star := " "
		if m.exact {
			star = "*"
		}
		fmt.Printf("  %-32s %-8s %-6s %s %s\n", m.name, m.unit, m.better, star, m.help)
	}
}

func main() {
	var (
		name    = flag.String("workload", "all", "workload name, or all")
		seed    = flag.Int64("seed", 42, "generator seed; reaches only the input generators")
		seconds = flag.Float64("seconds", 10, "steady-state measuring time of an end-to-end run")
		trace   = flag.Int("trace", 0, "1: produce the per-layer metrics instead (fixed-length traced passes)")
		outDir  = flag.String("out", "", "with -trace 1: directory for the Chrome trace and CPU/alloc profiles")
		aa      = flag.Int("aa", 0, "A/A mode: two interleaved sets of N runs per workload, compared against the bounds")
		list    = flag.Bool("list", false, "print every workload and metric name and exit")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "benchmark: unexpected argument %q\n", flag.Arg(0))
		os.Exit(2)
	}
	if *list {
		printList()
		return
	}
	selected := workloads
	if *name != "all" {
		w, ok := findWorkload(*name)
		if !ok {
			fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q (see -list)\n", *name)
			os.Exit(2)
		}
		selected = []spec{w}
	}

	// Two threads everywhere: the one-worker workloads measure work, not
	// the scheduler, and -w2 has exactly the cores it asks for.
	runtime.GOMAXPROCS(2)
	fmt.Printf("redoop benchmark: seed %d, GOMAXPROCS %d, nproc %d, %s, GOGC default\n",
		*seed, runtime.GOMAXPROCS(0), runtime.NumCPU(), runtime.Version())

	if *aa > 0 {
		if !runAA(selected, *aa, *seed, *seconds) {
			os.Exit(1)
		}
		return
	}
	failed := false
	for _, w := range selected {
		o, err := measure(w, *seed, *seconds, *trace != 0, *outDir)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", w.name, err)
			os.Exit(1)
		}
		if err := o.print(); err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
			os.Exit(1)
		}
		failed = failed || o.failed > 0
	}
	if failed {
		os.Exit(1)
	}
}
