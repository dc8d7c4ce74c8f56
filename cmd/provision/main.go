// Command provision is the operator-facing sizing tool the paper implies
// (§5: the battery is "potentially determined using an analysis of the
// expected workloads similar to the one in Section 3"). It runs the §3
// analyses over the synthetic data-center applications and prints, per
// volume and per machine, the recommended dirty budget, the battery to
// provision, the §3 category, and the savings versus a full-DRAM battery.
//
// With -age and/or -wear it instead prints the online re-provisioning
// trajectory: the dirty budget at each point as the battery ages toward
// -age fraction lost and the SSD wears toward -wear full-capacity write
// passes. The computation is health.BudgetPages over
// ssd.DegradedBandwidth — byte-identical to what the runtime health
// monitor derives each tick, so operators can predict the budget a
// deployment will land on before its battery gets there.
//
// Usage:
//
//	provision [-seed S] [-percentile P] [-headroom H] [-file F]
//	provision -age A -wear W [-dram B] [-bw B] [-derating D]
package main

import (
	"flag"
	"fmt"
	"io"
	"math"
	"os"

	"viyojit/internal/health"
	"viyojit/internal/power"
	"viyojit/internal/ssd"
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
	age := fs.Float64("age", 0, "battery capacity fraction lost by the end of the trajectory (0 = skip)")
	wear := fs.Float64("wear", 0, "SSD full-capacity write passes accrued by the end of the trajectory (0 = skip)")
	dram := fs.Int64("dram", 64<<30, "NV-DRAM bytes for the trajectory")
	bw := fs.Int64("bw", 2<<30, "nominal SSD write bandwidth for the trajectory, bytes/sec")
	derating := fs.Float64("derating", health.Derating, "conservative bandwidth fraction (§5.1; the runtime uses health.Derating)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	for _, bad := range []struct {
		is  bool
		msg string
	}{
		{!(*age >= 0 && *age < 1), "-age outside [0,1)"},
		{!(*wear >= 0) || math.IsInf(*wear, 1), "-wear must be finite and >= 0"},
		{*dram <= 0, "-dram must be > 0"},
		{*bw <= 0, "-bw must be > 0"},
		{!(*derating > 0 && *derating <= 1), "-derating must be finite and in (0,1]"},
	} {
		if bad.is {
			fmt.Fprintln(stderr, "provision:", bad.msg)
			return 1
		}
	}
	opts := options{Percentile: *pct, Headroom: *headroom}

	var err error
	if *age > 0 || *wear > 0 {
		trajectory(out, *age, *wear, *dram, *bw, *derating)
	} else if *file != "" {
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

// trajectory prints the budget the health monitor derives as the battery
// ages to age lost and the SSD wears to wear write passes, in ten steps.
func trajectory(out io.Writer, age, wear float64, dram, bw int64, derating float64) {
	pm := power.Default()
	const pageSize = 4096
	// Provision for the facade's default: an effective budget of 12.5 %
	// of the region at the conservative (derated) bandwidth.
	pages := int(dram / pageSize / 8)
	joules := health.JoulesForBudget(pm, pages, int64(float64(bw)*derating), dram, pageSize, health.FlushReserve)

	fmt.Fprintf(out, "Online re-provisioning trajectory (monitor's own derivation)\n")
	fmt.Fprintf(out, "DRAM %d GiB, SSD %d MB/s nominal, derating %.2f, battery %.1f J effective at install\n\n",
		dram>>30, bw>>20, derating, joules)
	fmt.Fprintf(out, "%6s %8s %8s %14s %12s %10s\n",
		"step", "age", "wear", "eff joules", "bw MB/s", "budget")
	const steps = 10
	for i := 0; i <= steps; i++ {
		f := float64(i) / steps
		aged := joules * (1 - age*f)
		cycles := wear * f
		eff := ssd.DegradedBandwidth(bw, cycles)
		b := health.BudgetPages(pm, aged, int64(float64(eff)*derating), dram, pageSize, health.FlushReserve)
		fmt.Fprintf(out, "%6d %7.0f%% %8.2f %14.1f %12.1f %10d\n",
			i, age*f*100, cycles, aged, float64(eff)/(1<<20), b)
	}
	fmt.Fprintf(out, "\nprovisioned for %d pages (12.5%% of the region) at install; row 0 is the monitor's floor of the same quantity\n", pages)
}
