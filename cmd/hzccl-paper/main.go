// Command hzccl-paper regenerates the hZCCL paper's evaluation: one
// registered experiment (internal/harness) per table and figure — Tables
// III–VII, Figs. 2 and 6–13 — plus the szx-quality and predictors
// studies, each printing the rows or series the paper reports.
//
// Usage:
//
//	hzccl-paper [-experiment all|ID[,ID...]] [-quick] [-out DIR] [-metrics FILE|-]
//
// -experiment picks experiments by registry ID (an unknown ID exits 2 and
// lists the registry); "all" runs every one, tables first. -quick shrinks
// every scale for a smoke run. -out is where fig13 writes exact.pgm and
// hzccl.pgm. -metrics dumps the accumulated runtime telemetry at exit:
// "-" writes the JSON snapshot to stdout, any other value is a file path,
// and a path ending in ".prom" selects the Prometheus text format.
// `make paper` writes results/*.txt with it.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"hzccl/internal/harness"
	"hzccl/internal/telemetry"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the command on its arguments and output streams; it returns the
// exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("hzccl-paper", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		experiment = fs.String("experiment", "all", "comma-separated experiment IDs, or all")
		quick      = fs.Bool("quick", false, "shrink scales for a fast smoke run")
		outDir     = fs.String("out", "", "directory for fig13's exact.pgm and hzccl.pgm (empty = skip)")
		metricsOut = fs.String("metrics", "", "dump the telemetry snapshot at exit: '-' = JSON to stdout, FILE = JSON, FILE.prom = Prometheus text format")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	exps := harness.Experiments()
	if *experiment != "all" {
		exps = exps[:0]
		for _, id := range strings.Split(*experiment, ",") {
			e, ok := harness.Find(id)
			if !ok {
				fmt.Fprintf(stderr, "hzccl-paper: unknown experiment %q; registered:\n", id)
				for _, e := range harness.Experiments() {
					fmt.Fprintf(stderr, "  %-12s %s\n", e.ID, e.Title)
				}
				return 2
			}
			exps = append(exps, e)
		}
	}
	opt := harness.Options{Quick: *quick, OutDir: *outDir}
	for _, e := range exps {
		fmt.Fprintf(stdout, "\n===== %s: %s =====\n", e.ID, e.Title)
		if err := e.Run(stdout, opt); err != nil {
			fmt.Fprintf(stderr, "hzccl-paper: %s: %v\n", e.ID, err)
			return 1
		}
	}
	if err := telemetry.DumpSnapshot(*metricsOut); err != nil {
		fmt.Fprintf(stderr, "hzccl-paper: metrics: %v\n", err)
		return 1
	}
	return 0
}
