// Command zipf-analysis regenerates Figure 5: under a Zipf write
// distribution, the fraction of pages needed to cover a given percentile
// of writes shrinks as the total page count grows — the scaling argument
// that makes battery/DRAM decoupling more attractive the bigger the
// NV-DRAM.
package main

import (
	"flag"
	"io"
	"os"

	"viyojit/internal/experiments"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is main with its arguments and streams passed in; it returns the
// process exit status.
func run(args []string, out, stderr io.Writer) int {
	fs := flag.NewFlagSet("zipf-analysis", flag.ContinueOnError)
	fs.SetOutput(stderr)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	experiments.FprintFig5(out)
	return 0
}
