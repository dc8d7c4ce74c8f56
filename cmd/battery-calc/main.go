// Command battery-calc regenerates the paper's motivation numbers:
// Figure 1's DRAM-vs-lithium growth gap, the §2.2 battery-sizing worked
// example (4 TB ⇒ ~300 KJ ⇒ ~10× a phone battery, ≥25× after
// deratings), and the §8 availability comparison of shutdown flush
// times.
//
// With -age and/or -wear it instead prints the online re-provisioning
// trajectory: the dirty budget at each point as the battery ages toward
// -age fraction lost and the SSD wears toward -wear full-capacity write
// passes. The computation is health.BudgetPages over
// ssd.DegradedBandwidth — byte-identical to what the runtime health
// monitor derives each tick, so operators can predict the budget a
// deployment will land on before its battery gets there.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"viyojit/internal/battery"
	"viyojit/internal/experiments"
	"viyojit/internal/health"
	"viyojit/internal/power"
	"viyojit/internal/sim"
	"viyojit/internal/ssd"
)

func trajectory(out io.Writer, age, wear float64, dram, bw int64, derating float64) {
	pm := power.Default()
	const pageSize = 4096
	const overhead = 500 * sim.Microsecond // viyojit.New's fixedFlushOverhead
	// Provision for the facade's default: an effective budget of 12.5 %
	// of the region at the conservative (derated) bandwidth.
	conservative := int64(float64(bw) * derating)
	pages := int(dram / pageSize / 8)
	joules := battery.JoulesForPages(pm, pages, conservative, dram, pageSize) +
		pm.FlushWatts(dram)*overhead.Seconds()

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
		eff := ssd.DegradedBandwidth(bw, cycles, 0.04, 0.25)
		b := health.BudgetPages(pm, aged, int64(float64(eff)*derating), dram, pageSize, overhead)
		fmt.Fprintf(out, "%6d %7.0f%% %8.2f %14.1f %12.1f %10d\n",
			i, age*f*100, cycles, aged, float64(eff)/(1<<20), b)
	}
	fmt.Fprintf(out, "\nprovisioned for %d pages (12.5%% of the region) at install; row 0 is the monitor's floor of the same quantity\n", pages)
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is main with its arguments and streams passed in; it returns the
// process exit status.
func run(args []string, out, stderr io.Writer) int {
	fs := flag.NewFlagSet("battery-calc", flag.ContinueOnError)
	fs.SetOutput(stderr)
	age := fs.Float64("age", 0, "battery capacity fraction lost by the end of the trajectory (0 = skip)")
	wear := fs.Float64("wear", 0, "SSD full-capacity write passes accrued by the end of the trajectory (0 = skip)")
	dram := fs.Int64("dram", 64<<30, "NV-DRAM bytes for the trajectory")
	bw := fs.Int64("bw", 2<<30, "nominal SSD write bandwidth for the trajectory, bytes/sec")
	derating := fs.Float64("derating", 0.8, "conservative bandwidth fraction (matches viyojit.Config default)")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if *age > 0 || *wear > 0 {
		if *age < 0 || *age >= 1 {
			fmt.Fprintln(stderr, "battery-calc: -age outside [0,1)")
			return 1
		}
		trajectory(out, *age, *wear, *dram, *bw, *derating)
		return 0
	}
	for i, section := range []func() error{
		func() error { return experiments.FprintFig1(out) },
		func() error { experiments.FprintBatterySizing(out); return nil },
		func() error { return experiments.FprintAvailability(out) },
		func() error { return experiments.FprintWarmup(out, 1) },
	} {
		if i > 0 {
			fmt.Fprintln(out)
		}
		if err := section(); err != nil {
			fmt.Fprintln(stderr, "battery-calc:", err)
			return 1
		}
	}
	return 0
}
