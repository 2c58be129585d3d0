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
// documented in the workload package.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"time"

	"redoop/internal/colfmt"
	"redoop/internal/records"
	"redoop/internal/workload"
)

func main() {
	var (
		dataset = flag.String("dataset", "wcc", "wcc, ffg-readings or ffg-events")
		n       = flag.Int("n", 10000, "records to generate")
		start   = flag.Duration("start", 0, "start of the covered range (virtual time offset)")
		span    = flag.Duration("span", 10*time.Minute, "length of the covered range")
		seed    = flag.Int64("seed", 42, "generator seed")
		out     = flag.String("o", "", "output file (default stdout)")
	)
	flag.Parse()

	if *span <= 0 || *n <= 0 {
		fmt.Fprintln(os.Stderr, "datagen: -n and -span must be positive")
		os.Exit(2)
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
		fmt.Fprintf(os.Stderr, "datagen: unknown dataset %q\n", *dataset)
		os.Exit(2)
	}

	w := bufio.NewWriter(os.Stdout)
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fmt.Fprintf(os.Stderr, "datagen: %v\n", err)
			os.Exit(1)
		}
		defer f.Close()
		w = bufio.NewWriter(f)
	}
	defer w.Flush()

	for _, r := range recs {
		fmt.Fprintf(w, "%d,%s\n", r.Ts, r.Data)
	}
	fmt.Fprintf(os.Stderr, "datagen: %d %s records over [%v, %v), %d encoded bytes\n",
		len(recs), *dataset, *start, *start+*span, len(colfmt.EncodeRecords(recs)))
}
