// Command replay drives a volume trace against the three NV-DRAM
// systems — Viyojit, the full-battery baseline, and Viyojit at the §7
// byte granularity (the "mondrian" row: 256 B sectors under the sector
// cost table) — and prints what each cost. Use it to
// validate a cmd/provision recommendation on the workload it came from:
//
//	tracegen -out vol.trace -skew hot
//	provision -file vol.trace        # recommends a budget
//	replay -file vol.trace -budget-frac 0.15
//
// Without -file, a representative synthetic volume is generated.
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
	fs := flag.NewFlagSet("replay", flag.ContinueOnError)
	fs.SetOutput(stderr)
	file := fs.String("file", "", "trace file (cmd/tracegen format); empty generates a synthetic volume")
	budgetFrac := fs.Float64("budget-frac", 0.02, "dirty budget as a fraction of the volume")
	seed := fs.Uint64("seed", 1, "generation seed when no -file is given")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if err := replayVolume(out, *file, *budgetFrac, *seed); err != nil {
		fmt.Fprintln(stderr, "replay:", err)
		return 1
	}
	return 0
}

// replayVolume loads (or generates) the volume and prints the comparison.
func replayVolume(out io.Writer, file string, budgetFrac float64, seed uint64) error {
	if !(budgetFrac > 0 && budgetFrac <= 1) { // NaN fails too
		return fmt.Errorf("-budget-frac %v outside (0,1]", budgetFrac)
	}
	var v *trace.Volume
	var err error
	if file != "" {
		f, ferr := os.Open(file)
		if ferr != nil {
			return ferr
		}
		v, err = trace.ReadVolume(f)
		f.Close()
	} else {
		v, err = trace.Generate(trace.VolumeSpec{
			Name:                   "synthetic",
			SizeBytes:              64 << 20,
			WorstHourWriteFraction: 0.12,
			Skew:                   trace.SkewHot,
			HotFraction:            0.1,
			TouchedFraction:        0.6,
		}, 2*trace.Hour, seed)
	}
	if err != nil {
		return err
	}

	budget := int(float64(v.TotalPages()) * budgetFrac)
	fmt.Fprintf(out, "replaying %s: %d events, %d MiB, budget %d pages (%.1f%%)\n\n",
		v.Spec.Name, len(v.Events), v.Spec.SizeBytes>>20, budget, budgetFrac*100)

	reports, err := experiments.RunReplayComparison(v, budget)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "%-10s %8s %10s %12s %14s %12s\n",
		"System", "Faults", "Forced", "Proactive", "Peak dirty", "SSD written")
	for _, r := range reports {
		fmt.Fprintf(out, "%-10s %8d %10d %12d %11d KB %9d KB\n",
			r.System, r.Faults, r.ForcedCleans, r.Proactive,
			r.PeakDirtyByte>>10, r.SSDBytes>>10)
	}
	fmt.Fprintln(out, "\nnv-dram is the full-battery reference: zero overhead, but its battery")
	fmt.Fprintln(out, "must cover the entire peak dirty footprint; viyojit bounds that footprint")
	fmt.Fprintln(out, "to the budget; mondrian bounds it to the bytes actually written.")
	return nil
}
