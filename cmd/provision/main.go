// Command provision is the operator-facing sizing tool the paper implies
// (§5: the battery is "potentially determined using an analysis of the
// expected workloads similar to the one in Section 3"). It runs the §3
// analyses over the synthetic data-center applications and prints, per
// volume and per machine, the recommended dirty budget, the battery to
// provision, the §3 category, and the savings versus a full-DRAM battery.
//
// Usage:
//
//	provision [-seed S] [-percentile P] [-headroom H]
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"viyojit/internal/trace"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is main with its arguments and streams passed in; it returns the
// process exit status.
func run(args []string, out, stderr io.Writer) int {
	fs := flag.NewFlagSet("provision", flag.ContinueOnError)
	fs.SetOutput(stderr)
	seed := fs.Uint64("seed", 1, "trace generation seed")
	pct := fs.Float64("percentile", defaultPercentile, "write percentile the steady-state dirty set must cover")
	headroom := fs.Float64("headroom", defaultHeadroom, "safety margin on the recommended budget")
	file := fs.String("file", "", "analyse a single trace file (cmd/tracegen format) instead of the synthetic suite")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	opts := options{Percentile: *pct, Headroom: *headroom}

	var err error
	if *file != "" {
		err = analyzeFile(out, *file, opts)
	} else {
		err = analyzeSuite(out, *seed, opts)
	}
	if err != nil {
		fmt.Fprintln(stderr, "provision:", err)
		return 1
	}
	return 0
}

// analyzeSuite runs the advisor over the synthetic data-center
// applications.
func analyzeSuite(out io.Writer, seed uint64, opts options) error {
	apps, err := trace.Applications(seed)
	if err != nil {
		return err
	}
	for _, app := range apps {
		recs, agg, err := analyzeApplication(app, opts)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "== %s ==\n", app.Name)
		fmt.Fprintf(out, "%-8s %10s %10s %12s %14s %-14s %s\n",
			"Volume", "Budget", "Fraction", "Battery (J)", "Savings", "Category", "")
		for i, r := range recs {
			note := ""
			if !r.WorthIt {
				note = "(decoupling buys little here)"
			}
			fmt.Fprintf(out, "%-8s %7d pg %9.1f%% %12.2f %13.0f%% %-14s %s\n",
				r.Volume, r.BudgetPages, r.BudgetFraction*100,
				r.Battery.CapacityJoules,
				savings(r, app.Volumes[i])*100,
				r.Category, note)
		}
		fmt.Fprintf(out, "%-8s %7d pg %9.1f%% %12.2f\n\n",
			"MACHINE", agg.BudgetPages, agg.BudgetFraction*100, agg.Battery.CapacityJoules)
	}
	fmt.Fprintln(out, "Battery figures are nameplate joules (after depth-of-discharge).")
	fmt.Fprintln(out, "Categories follow §3: decoupling pays off most for skewed-light volumes.")
	return nil
}

// analyzeFile runs the advisor on one operator-supplied trace file.
func analyzeFile(out io.Writer, path string, opts options) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	v, err := trace.ReadVolume(f)
	if err != nil {
		return err
	}
	r, err := analyze(v, opts)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "volume %s: %d events over %v, %d pages\n",
		v.Spec.Name, len(v.Events), v.Duration, v.TotalPages())
	fmt.Fprintf(out, "category: %s", r.Category)
	if !r.WorthIt {
		fmt.Fprintf(out, " (decoupling buys little here)")
	}
	fmt.Fprintln(out)
	fmt.Fprintf(out, "recommended dirty budget: %d pages (%.1f%% of the volume)\n", r.BudgetPages, r.BudgetFraction*100)
	fmt.Fprintf(out, "  drivers: worst-hour burst %d pages, %0.f%%-ile hot set %d pages, headroom %.2fx\n",
		r.WorstHourPages, opts.Percentile*100, r.HotSetPages, r.Headroom)
	fmt.Fprintf(out, "battery to provision: %.2f J nameplate (DoD %.0f%%)\n",
		r.Battery.CapacityJoules, r.Battery.DepthOfDischarge*100)
	fmt.Fprintf(out, "savings vs full-DRAM battery: %.0f%%\n", savings(r, v)*100)
	return nil
}
