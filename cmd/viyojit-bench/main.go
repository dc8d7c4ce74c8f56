// Command viyojit-bench regenerates the paper's figures. The closed-form
// and trace ones take no simulation: Figure 1's DRAM-vs-lithium growth
// gap ("1"), the §2.2 battery-sizing example ("sizing"), the §8
// shutdown-flush comparison ("availability") and on-demand start-up
// ("warmup"), the §3 workload analysis of the synthetic data-center
// traces (Figures 2, 3 and 4) and the Zipf scaling argument (Figure 5).
// The YCSB evaluation runs the stack: the throughput, latency and
// SSD-write-rate sweeps over dirty budgets (Figures 7, 8 and 9), the
// heap-scaling comparison (Figure 10), and the ablations (§6.3 TLB
// flushing, victim policies, epoch length, SSD queue depth, §8 battery
// retuning).
//
// Usage:
//
//	viyojit-bench [-ops N] [-seed S] [-quick] [-figures 1,sizing,availability,warmup,2,3,4,5,7,8,9,10,ablations,overload]
//	viyojit-bench -figures overload [-clients N] [-offered-load M1,M2,...] [-deadline D]
//
// Figures print in that order, whatever the order of the -figures list;
// the default list is 7,8,9,10,ablations.
//
// The "overload" figure drives the concurrent serving front-end
// (internal/serve) open-loop at multiples of its measured saturation
// throughput and prints the goodput-vs-offered-load curve with the shed
// breakdown — the curve must plateau, not collapse.
//
// Runs are deterministic for a given seed, which also generates the
// traces of Figures 2–4 and the warm-up volume. -quick reduces the sweep
// for a fast smoke run; an explicit -ops still sets its length.
package main

import (
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
	"strings"

	"viyojit/internal/experiments"
	"viyojit/internal/obs"
	"viyojit/internal/sim"
	"viyojit/internal/trace"
)

// figureNames are the -figures names, in the order the figures print.
var figureNames = []string{"1", "sizing", "availability", "warmup", "2", "3", "4", "5", "7", "8", "9", "10", "ablations", "overload"}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is main with its arguments and streams passed in; it returns the
// process exit status.
func run(args []string, out, stderr io.Writer) int {
	fs := flag.NewFlagSet("viyojit-bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	ops := fs.Int("ops", 50_000, "operations per run")
	seed := fs.Uint64("seed", 1, "experiment and trace generation seed")
	quick := fs.Bool("quick", false, "reduced sweep (fewer workloads and fractions; fewer ops unless -ops is set)")
	figures := fs.String("figures", "7,8,9,10,ablations", "comma-separated figures to regenerate: "+strings.Join(figureNames, ","))
	clients := fs.Int("clients", 0, "overload: concurrent client goroutines (0 = default 8)")
	offered := fs.String("offered-load", "", "overload: comma-separated offered-load multipliers of saturation (default 0.25,0.5,1,1.5,2)")
	deadline := fs.Duration("deadline", 0, "overload: per-request virtual deadline (0 = default 2ms)")
	metricsOut := fs.String("metrics", "", `dump the accumulated metrics/trace export to this file after the runs ("-" = stdout; a .json suffix selects JSON, otherwise text)`)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "viyojit-bench:", err)
		return 1
	}

	// Every flag is checked before the first figure prints.
	want := map[string]bool{}
	for _, f := range strings.Split(*figures, ",") {
		f = strings.TrimSpace(f)
		if !slices.Contains(figureNames, f) {
			return fail(fmt.Errorf("unknown -figures name %q (want %s)", f, strings.Join(figureNames, ", ")))
		}
		want[f] = true
	}
	if *ops <= 0 {
		return fail(fmt.Errorf("-ops %d is not positive", *ops))
	}
	if *clients < 0 {
		return fail(fmt.Errorf("-clients %d is negative", *clients))
	}
	if *deadline < 0 {
		return fail(fmt.Errorf("-deadline %v is negative", *deadline))
	}
	var multipliers []float64
	if *offered != "" {
		for _, s := range strings.Split(*offered, ",") {
			var m float64
			// Written so that NaN fails it too.
			if _, err := fmt.Sscanf(strings.TrimSpace(s), "%g", &m); err != nil || !(m > 0) || math.IsInf(m, 1) {
				return fail(fmt.Errorf("bad -offered-load entry %q", s))
			}
			multipliers = append(multipliers, m)
		}
	}

	var reg *obs.Registry
	if *metricsOut != "" {
		reg = obs.NewRegistry()
	}
	opsSet := false
	fs.Visit(func(f *flag.Flag) { opsSet = opsSet || f.Name == "ops" })
	opts := experiments.SweepOptions{OperationCount: *ops, Seed: *seed}
	if *quick {
		opts = experiments.QuickSweepOptions()
		opts.Seed = *seed
		if opsSet {
			opts.OperationCount = *ops
		}
	}
	opts.Obs = reg

	var apps []trace.Application
	if want["2"] || want["3"] || want["4"] {
		var err error
		if apps, err = trace.Applications(*seed); err != nil {
			return fail(err)
		}
	}
	for _, fig := range []struct {
		name  string
		print func() error
	}{
		{"1", func() error { return experiments.FprintFig1(out) }},
		{"sizing", func() error { experiments.FprintBatterySizing(out); return nil }},
		{"availability", func() error { return experiments.FprintAvailability(out) }},
		{"warmup", func() error { return experiments.FprintWarmup(out, *seed) }},
		{"2", func() error { experiments.FprintFig2(out, apps); return nil }},
		{"3", func() error { experiments.FprintFig3(out, apps); return nil }},
		{"4", func() error { experiments.FprintFig4(out, apps); return nil }},
		{"5", func() error { experiments.FprintFig5(out); return nil }},
	} {
		if !want[fig.name] {
			continue
		}
		if err := fig.print(); err != nil {
			return fail(err)
		}
		fmt.Fprintln(out)
	}

	if want["7"] || want["8"] || want["9"] {
		fmt.Fprintln(out, "Running the YCSB dirty-budget sweep (one line per workload × budget)...")
		sweep, err := experiments.RunSweep(opts)
		if err != nil {
			return fail(err)
		}
		if want["7"] {
			experiments.FprintFig7(out, sweep)
			fmt.Fprintln(out)
		}
		if want["8"] {
			experiments.FprintFig8(out, sweep)
			fmt.Fprintln(out)
		}
		if want["9"] {
			experiments.FprintFig9(out, sweep)
			fmt.Fprintln(out)
		}
	}

	if want["10"] {
		fmt.Fprintln(out, "Running the heap-scaling comparison...")
		rows, err := experiments.RunFig10(opts)
		if err != nil {
			return fail(err)
		}
		experiments.FprintFig10(out, rows)
		fmt.Fprintln(out)
	}

	if want["ablations"] {
		fmt.Fprintln(out, "Running ablations...")
		tlbOpts := opts
		if tlbOpts.Fractions == nil {
			tlbOpts.Fractions = experiments.SummaryFractions
		}
		tlb, err := experiments.RunTLBAblation(tlbOpts)
		if err != nil {
			return fail(err)
		}
		experiments.FprintTLBAblation(out, tlb)
		fmt.Fprintln(out)

		pol, err := experiments.RunPolicyAblation(opts, 0.11)
		if err != nil {
			return fail(err)
		}
		experiments.FprintPolicyAblation(out, pol)
		fmt.Fprintln(out)

		epochs, err := experiments.RunEpochAblation(opts, 0.11,
			[]sim.Duration{250 * sim.Microsecond, sim.Millisecond, 4 * sim.Millisecond, 16 * sim.Millisecond})
		if err != nil {
			return fail(err)
		}
		experiments.FprintParamRows(out, "Ablation: epoch length (YCSB-A, 11% budget)", epochs)
		fmt.Fprintln(out)

		weights, err := experiments.RunEWMAAblation(opts, 0.11, []float64{0.1, 0.5, 0.75, 1.0})
		if err != nil {
			return fail(err)
		}
		experiments.FprintParamRows(out, "Ablation: dirty-page-pressure EWMA weight (YCSB-A, 11% budget)", weights)
		fmt.Fprintln(out)

		depths, err := experiments.RunQueueDepthAblation(opts, 0.11, []int{1, 4, 16, 64})
		if err != nil {
			return fail(err)
		}
		experiments.FprintParamRows(out, "Ablation: SSD outstanding-IO bound (YCSB-A, 11% budget)", depths)
		fmt.Fprintln(out)

		hw, err := experiments.RunHWAssistAblation(tlbOpts)
		if err != nil {
			return fail(err)
		}
		experiments.FprintHWAssistAblation(out, hw)
		fmt.Fprintln(out)

		var gran []experiments.GranularityResult
		for _, ws := range []int{64, 256, 1024, 4096} {
			g, err := experiments.RunGranularityComparison(*seed, ws, 2000)
			if err != nil {
				return fail(err)
			}
			gran = append(gran, g)
		}
		experiments.FprintGranularity(out, gran)
		fmt.Fprintln(out)

		red, err := experiments.RunSSDReductionAblation(opts, 0.11)
		if err != nil {
			return fail(err)
		}
		experiments.FprintSSDReduction(out, red)
		fmt.Fprintln(out)

		ten, err := experiments.RunTenancyExperiment(*seed, 400)
		if err != nil {
			return fail(err)
		}
		experiments.FprintTenancy(out, ten)
		fmt.Fprintln(out)

		retune, err := experiments.RunBatteryRetune(*seed)
		if err != nil {
			return fail(err)
		}
		experiments.FprintBatteryRetune(out, retune)
	}

	if want["overload"] {
		fmt.Fprintln(out, "Running the overload & shedding curve (closed-loop saturation, then the open-loop sweep)...")
		ocfg := experiments.OverloadConfig{
			Seed:     *seed,
			Clients:  *clients,
			Deadline: sim.Duration(*deadline),
			Obs:      reg,
		}
		if *quick {
			ocfg.OperationCount = 5_000
			ocfg.Multipliers = []float64{0.5, 1, 2}
		}
		if opsSet {
			ocfg.OperationCount = *ops
		}
		if multipliers != nil {
			ocfg.Multipliers = multipliers
		}
		curve, err := experiments.RunOverloadCurve(ocfg)
		if err != nil {
			return fail(err)
		}
		experiments.FprintOverload(out, curve)
	}

	if reg != nil {
		if err := dumpMetrics(out, reg, *metricsOut); err != nil {
			return fail(err)
		}
	}
	return 0
}

// dumpMetrics writes the registry's export to path: out for "-", JSON
// for a .json suffix, the text exposition otherwise.
func dumpMetrics(out io.Writer, reg *obs.Registry, path string) error {
	exp := reg.Export()
	if path == "-" {
		return exp.WriteText(out)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if strings.HasSuffix(path, ".json") {
		err = exp.WriteJSON(f)
	} else {
		err = exp.WriteText(f)
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		fmt.Fprintf(out, "metrics export written to %s\n", path)
	}
	return err
}
