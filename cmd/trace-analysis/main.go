// Command trace-analysis regenerates the paper's §3 workload analysis
// (Figures 2, 3 and 4) from the synthetic data-center volume traces: the
// worst-interval written fraction per volume and the page counts needed
// to cover each percentile of writes, relative to touched and to total
// pages.
//
// Usage:
//
//	trace-analysis [-seed S]
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"viyojit/internal/experiments"
	"viyojit/internal/trace"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is main with its arguments and streams passed in; it returns the
// process exit status.
func run(args []string, out, stderr io.Writer) int {
	fs := flag.NewFlagSet("trace-analysis", flag.ContinueOnError)
	fs.SetOutput(stderr)
	seed := fs.Uint64("seed", 1, "trace generation seed")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	apps, err := trace.Applications(*seed)
	if err != nil {
		fmt.Fprintln(stderr, "trace-analysis:", err)
		return 1
	}
	experiments.FprintFig2(out, apps)
	fmt.Fprintln(out)
	experiments.FprintFig3(out, apps)
	fmt.Fprintln(out)
	experiments.FprintFig4(out, apps)
	return 0
}
