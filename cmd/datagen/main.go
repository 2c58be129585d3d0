// Command datagen emits synthetic WCC (WorldCup clicks) or FFG
// (football sensor) records — the generators backing the experiments —
// as CSV on stdout or into a file, for inspection or for feeding other
// tools.
//
// Usage:
//
//	datagen [-dataset wcc|ffg-readings|ffg-events] [-n 10000]
//	        [-start 0] [-span 10m] [-seed 42] [-o file]
//
// Each line is "<timestamp-ns>,<payload>"; payloads follow the schemas
// documented in the workload package. It exits 2 on a usage error and 1
// when the output cannot be written in full.
package main

import (
	"bufio"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"redoop/internal/colfmt"
	"redoop/internal/records"
	"redoop/internal/workload"
)

func main() { os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr)) }

// realMain is main with its arguments, output streams and exit code injected.
func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("datagen", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		dataset = fs.String("dataset", "wcc", "wcc, ffg-readings or ffg-events")
		n       = fs.Int("n", 10000, "records to generate")
		start   = fs.Duration("start", 0, "start of the covered range (virtual time offset)")
		span    = fs.Duration("span", 10*time.Minute, "length of the covered range")
		seed    = fs.Int64("seed", 42, "generator seed")
		out     = fs.String("o", "", "output file (default stdout)")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	fail := func(code int, format string, a ...any) int {
		fmt.Fprintf(stderr, "datagen: "+format+"\n", a...)
		return code
	}
	if *span <= 0 || *n <= 0 {
		return fail(2, "-n and -span must be positive")
	}
	startUnit := int64(*start)
	endUnit := startUnit + int64(*span)

	var recs []records.Record
	switch *dataset {
	case "wcc":
		recs = workload.WCC(workload.DefaultWCC(*seed), startUnit, endUnit, *n)
	case "ffg-readings":
		recs = workload.FFGReadings(workload.DefaultFFG(*seed), startUnit, endUnit, *n)
	case "ffg-events":
		recs = workload.FFGEvents(workload.DefaultFFG(*seed), startUnit, endUnit, *n)
	default:
		return fail(2, "unknown dataset %q", *dataset)
	}

	closeOut := func() error { return nil }
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			return fail(1, "%v", err)
		}
		stdout, closeOut = f, f.Close
	}
	w := bufio.NewWriter(stdout)
	for _, r := range recs {
		fmt.Fprintf(w, "%d,%s\n", r.Ts, r.Data)
	}
	if err := errors.Join(w.Flush(), closeOut()); err != nil { // a full disk surfaces here
		return fail(1, "%v", err)
	}
	fmt.Fprintf(stderr, "datagen: %d %s records over [%v, %v), %d encoded bytes\n",
		len(recs), *dataset, *start, *start+*span, len(colfmt.EncodeRecords(recs)))
	return 0
}
