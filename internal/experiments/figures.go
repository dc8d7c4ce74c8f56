package experiments

import (
	"fmt"
	"io"

	"viyojit/internal/dist"
	"viyojit/internal/power"
	"viyojit/internal/recovery"
	"viyojit/internal/sim"
	"viyojit/internal/trace"
)

// FprintFig1 writes Fig 1's series: DRAM vs lithium relative growth,
// 1990–2020.
func FprintFig1(w io.Writer) error {
	pts, err := growthSeries(1990, 2020, 5)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "Figure 1: DRAM growth is out-pacing Lithium's (relative to 1990)")
	fmt.Fprintf(w, "%-6s %14s %10s %s\n", "Year", "DRAM (GB/RU)", "Li (J/vol)", "")
	for _, p := range pts {
		note := ""
		if p.Projected {
			note = "projected"
		}
		fmt.Fprintf(w, "%-6d %14.1f %10.2f %s\n", p.Year, p.DRAM, p.Lithium, note)
	}
	return nil
}

// FprintBatterySizing writes the §2.2 worked example for a range of
// server DRAM sizes.
func FprintBatterySizing(w io.Writer) {
	pm := power.Default()
	fmt.Fprintln(w, "Battery sizing for full-DRAM backup (§2.2; SSD at 4 GB/s, DoD 50%)")
	fmt.Fprintf(w, "%-8s %10s %10s %12s %14s %10s\n",
		"DRAM", "Flush (s)", "Energy", "Phone-batt×", "Derated vol×", "Cost ($)")
	for _, tb := range []int{1, 2, 4, 8} {
		r := sizeFullBackup(pm, int64(tb)<<40, 4<<30, 0.5, 1.0)
		fmt.Fprintf(w, "%-8s %10.0f %9.0fKJ %12.1f %14.1f %10.0f\n",
			fmt.Sprintf("%d TB", tb), r.FlushSeconds, r.EnergyJoules/1000,
			r.PhoneBatteryRatio, r.EffectiveRatio, r.EstimatedCostUSD)
	}
}

// TracePercentiles are the write percentiles Figs 3 and 4 report.
var TracePercentiles = []float64{0.90, 0.95, 0.99}

// FprintFig2 writes the worst-interval written fractions per volume for
// 1-minute, 10-minute and 1-hour intervals.
func FprintFig2(w io.Writer, apps []trace.Application) {
	fmt.Fprintln(w, "Figure 2: worst-interval data written (% of volume size)")
	for _, app := range apps {
		fmt.Fprintf(w, "-- %s --\n", app.Name)
		fmt.Fprintf(w, "%-8s %12s %12s %12s\n", "Volume", "One Minute", "Ten Minutes", "One Hour")
		for _, v := range app.Volumes {
			fmt.Fprintf(w, "%-8s %11.2f%% %11.2f%% %11.2f%%\n",
				v.Spec.Name,
				v.WorstIntervalWrittenFraction(60*sim.Second)*100,
				v.WorstIntervalWrittenFraction(600*sim.Second)*100,
				v.WorstIntervalWrittenFraction(trace.Hour)*100)
		}
	}
}

// FprintFig3 writes the pages-as-%-of-touched skew analysis.
func FprintFig3(w io.Writer, apps []trace.Application) {
	fprintSkew(w, apps, "Figure 3: pages needed (% of pages TOUCHED) per write percentile", func(v *trace.Volume) []float64 {
		return v.SkewTouched(TracePercentiles)
	})
}

// FprintFig4 writes the pages-as-%-of-total skew analysis.
func FprintFig4(w io.Writer, apps []trace.Application) {
	fprintSkew(w, apps, "Figure 4: pages needed (% of TOTAL pages) per write percentile", func(v *trace.Volume) []float64 {
		return v.SkewTotal(TracePercentiles)
	})
}

func fprintSkew(w io.Writer, apps []trace.Application, title string, metric func(*trace.Volume) []float64) {
	fmt.Fprintln(w, title)
	for _, app := range apps {
		fmt.Fprintf(w, "-- %s --\n", app.Name)
		fmt.Fprintf(w, "%-8s %10s %10s %10s\n", "Volume", "90th %-ile", "95th %-ile", "99th %-ile")
		for _, v := range app.Volumes {
			f := metric(v)
			fmt.Fprintf(w, "%-8s %9.1f%% %9.1f%% %9.1f%%\n", v.Spec.Name, f[0]*100, f[1]*100, f[2]*100)
		}
	}
}

// Fig5ItemCounts are the page-count x-axis of Fig 5.
var Fig5ItemCounts = []int64{10_000, 100_000, 1_000_000, 10_000_000}

// FprintFig5 writes the Zipf coverage-shrinkage analysis.
func FprintFig5(w io.Writer) {
	series := dist.ZipfCoverageSeries(Fig5ItemCounts, dist.ZipfianConstant, TracePercentiles)
	fmt.Fprintln(w, "Figure 5: fraction of pages covering write percentiles under Zipf (θ=0.99)")
	fmt.Fprintf(w, "%-12s %12s %12s %12s\n", "Total pages", "90th %-ile", "95th %-ile", "99th %-ile")
	for i, n := range Fig5ItemCounts {
		fmt.Fprintf(w, "%-12d %11.2f%% %11.2f%% %11.2f%%\n",
			n, series[0][i].Fraction*100, series[1][i].Fraction*100, series[2][i].Fraction*100)
	}
}

// FprintFig7 writes throughput-vs-budget per workload plus the summary
// panel (overhead at the paper's three highlighted fractions).
func FprintFig7(w io.Writer, s *Sweep) {
	fmt.Fprintln(w, "Figure 7: YCSB throughput vs dirty budget (K-ops/sec)")
	for _, ws := range s.Workloads {
		fmt.Fprintf(w, "-- %s (NV-DRAM baseline: %.1f K-ops/s) --\n", ws.Workload.Name, ws.Baseline.Result.ThroughputKOps())
		fmt.Fprintf(w, "%-10s %10s %12s %10s\n", "Budget", "Pages", "Throughput", "Overhead")
		for _, p := range ws.Points {
			fmt.Fprintf(w, "%9.0f%% %10d %10.1fK %9.1f%%\n",
				p.BudgetFraction*100, p.DirtyBudgetPages,
				p.Result.ThroughputKOps(), ThroughputOverheadPercent(p, ws.Baseline))
		}
	}
	fmt.Fprintln(w, "-- Summary: throughput overhead (%) --")
	fmt.Fprintf(w, "%-10s", "Workload")
	for _, f := range SummaryFractions {
		fmt.Fprintf(w, " %8.0f%%", f*100)
	}
	fmt.Fprintln(w)
	for _, ws := range s.Workloads {
		fmt.Fprintf(w, "%-10s", ws.Workload.Name)
		for _, f := range SummaryFractions {
			if p, ok := pointAt(ws, f); ok {
				fmt.Fprintf(w, " %8.1f%%", ThroughputOverheadPercent(p, ws.Baseline))
			} else {
				fmt.Fprintf(w, " %9s", "-")
			}
		}
		fmt.Fprintln(w)
	}
}

// FprintFig8 writes average and 99th-percentile latency of each
// workload's primary operation vs budget.
func FprintFig8(w io.Writer, s *Sweep) {
	fmt.Fprintln(w, "Figure 8: primary-operation latency vs dirty budget")
	for _, ws := range s.Workloads {
		op := ws.Workload.PrimaryOp
		b := ws.Baseline.Result.LatencyOf(op)
		fmt.Fprintf(w, "-- %s %s (baseline avg %v, 99%%-ile %v) --\n",
			ws.Workload.Name, op, b.Mean(), b.Quantile(0.99))
		fmt.Fprintf(w, "%-10s %12s %12s\n", "Budget", "Average", "99th %-ile")
		for _, p := range ws.Points {
			l := p.Result.LatencyOf(op)
			fmt.Fprintf(w, "%9.0f%% %12v %12v\n", p.BudgetFraction*100, l.Mean(), l.Quantile(0.99))
		}
	}
	fmt.Fprintln(w, "-- Summary: average latency overhead (%) --")
	fmt.Fprintf(w, "%-10s", "Workload")
	for _, f := range SummaryFractions {
		fmt.Fprintf(w, " %8.0f%%", f*100)
	}
	fmt.Fprintln(w)
	for _, ws := range s.Workloads {
		fmt.Fprintf(w, "%-10s", ws.Workload.Name)
		for _, f := range SummaryFractions {
			if p, ok := pointAt(ws, f); ok {
				fmt.Fprintf(w, " %8.1f%%", LatencyOverheadPercent(p, ws.Baseline, ws.Workload.PrimaryOp))
			} else {
				fmt.Fprintf(w, " %9s", "-")
			}
		}
		fmt.Fprintln(w)
	}
}

// FprintFig9 writes the average SSD write rate during the run per
// budget. The first number per cell matches the paper's metric (run
// copying plus the final heap flush); the parenthesised number is the
// run-phase cleaning traffic alone, which carries the paper's
// decreasing-with-budget shape at this repository's short run lengths.
func FprintFig9(w io.Writer, s *Sweep) {
	fmt.Fprintln(w, "Figure 9: average SSD write rate, total incl. final flush (run-phase only), MB/s")
	fmt.Fprintf(w, "%-10s", "Budget")
	for _, ws := range s.Workloads {
		fmt.Fprintf(w, " %15s", ws.Workload.Name)
	}
	fmt.Fprintln(w)
	if len(s.Workloads) == 0 {
		return
	}
	for i := range s.Workloads[0].Points {
		fmt.Fprintf(w, "%9.0f%%", s.Workloads[0].Points[i].BudgetFraction*100)
		for _, ws := range s.Workloads {
			fmt.Fprintf(w, " %7.1f (%5.1f)", ws.Points[i].WriteRateMBps, ws.Points[i].CopyRateMBps)
		}
		fmt.Fprintln(w)
	}
}

// pointAt finds the sweep point closest to a budget fraction (within one
// percentage point).
func pointAt(ws WorkloadSweep, fraction float64) (Point, bool) {
	for _, p := range ws.Points {
		d := p.BudgetFraction - fraction
		if d < 0.01 && d > -0.01 {
			return p, true
		}
	}
	return Point{}, false
}

// Fig10Row is one (workload, heap scale, fraction) cell of Fig 10.
type Fig10Row struct {
	Workload        string
	HeapBytes       int64
	BudgetFraction  float64
	OverheadPercent float64
}

// RunFig10 runs the heap-scaling experiment: the same budget *fractions*
// against a base heap and an 8× heap (standing in for the paper's 17.5
// vs 52.5 GB), for YCSB A, B, C and F (D overflows the region at scale,
// as in the paper). Overheads should shrink — if only slightly at laptop
// scale — at the larger size; EXPERIMENTS.md discusses the magnitude.
func RunFig10(opts SweepOptions) ([]Fig10Row, error) {
	opts = opts.withDefaults()
	heap := opts.HeapBytes
	if heap == 0 {
		heap = 8 << 20 // smaller base so the 8× point stays affordable
	}
	var rows []Fig10Row
	for _, w := range opts.Workloads {
		if w.Name == "YCSB-D" {
			continue // grows past the region at scale, as in the paper
		}
		for _, scale := range []int64{1, 8} {
			ops := opts.OperationCount
			if ops == 0 {
				ops = 20_000
			}
			// Scale the operation count with the heap so both scales sit
			// at the same operations-per-page operating point. (The paper
			// kept 10 M ops for both sizes, but its datasets are three
			// orders of magnitude larger than ours, so both of its runs
			// sit in the hot-mass-dominated regime; at laptop scale the
			// fixed-ops variant conflates dataset growth with
			// coupon-collector exploration.)
			cfg := YCSBConfig{
				Workload:       w,
				HeapBytes:      heap * scale,
				OperationCount: ops * int(scale),
				Seed:           opts.Seed,
			}
			base, err := RunBaseline(cfg)
			if err != nil {
				return nil, err
			}
			for _, f := range SummaryFractions {
				p, err := RunViyojit(cfg, BudgetPages(cfg, f))
				if err != nil {
					return nil, err
				}
				rows = append(rows, Fig10Row{
					Workload:        w.Name,
					HeapBytes:       heap * scale,
					BudgetFraction:  f,
					OverheadPercent: ThroughputOverheadPercent(p, base),
				})
			}
		}
	}
	return rows, nil
}

// FprintFig10 writes the heap-scaling comparison.
func FprintFig10(w io.Writer, rows []Fig10Row) {
	fmt.Fprintln(w, "Figure 10: throughput overhead (%) across heap scales at equal budget fractions")
	fmt.Fprintf(w, "%-10s %12s %10s %10s\n", "Workload", "Heap", "Budget", "Overhead")
	for _, r := range rows {
		fmt.Fprintf(w, "%-10s %9d MiB %9.0f%% %9.1f%%\n",
			r.Workload, r.HeapBytes>>20, r.BudgetFraction*100, r.OverheadPercent)
	}
}

// FprintWarmup writes the §8 on-demand start-up comparison for one
// representative volume.
func FprintWarmup(w io.Writer, seed uint64) error {
	v, err := trace.Generate(trace.VolumeSpec{
		Name:                   "warmup-demo",
		SizeBytes:              64 << 20,
		WorstHourWriteFraction: 0.10,
		Skew:                   trace.SkewZipf,
		Theta:                  0.9,
		TouchedFraction:        0.5,
	}, trace.Hour, seed)
	if err != nil {
		return err
	}
	rep, err := recovery.WarmupComparison(v, 3<<30, 100*sim.Microsecond)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "§8 start-up: sequential reload vs on-demand faulting (64 MiB volume, 3 GB/s reads)")
	fmt.Fprintf(w, "sequential reload ready after: %v\n", rep.SequentialReady)
	fmt.Fprintf(w, "on-demand first request served after: %v (gain %v)\n", rep.OnDemandFirstAccess, rep.AvailabilityGain)
	fmt.Fprintf(w, "on-demand penalty until warm: %v across %d of %d accesses\n",
		rep.OnDemandPenalty, rep.PenalisedAccesses, rep.TotalAccesses)
	return nil
}

// FprintAvailability writes the §8 reboot-time comparison.
func FprintAvailability(w io.Writer) error {
	fmt.Fprintln(w, "§8 availability: shutdown flush time, full DRAM vs bounded dirty set (SSD 4 GB/s)")
	fmt.Fprintf(w, "%-8s %12s %16s %16s %8s\n", "DRAM", "Budget", "Full shutdown", "Bounded", "Speedup")
	for _, c := range []struct {
		dram, budget int64
	}{
		{4 << 40, 64 << 30},
		{4 << 40, 256 << 30},
		{1 << 40, 64 << 30},
	} {
		r, err := recovery.Availability(c.dram, c.budget, 4<<30, 4<<30)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%-8s %9d GB %16v %16v %7.1fx\n",
			fmt.Sprintf("%d TB", c.dram>>40), c.budget>>30,
			r.FullShutdownFlush, r.BoundedShutdownFlush, r.SpeedUp)
	}
	return nil
}
