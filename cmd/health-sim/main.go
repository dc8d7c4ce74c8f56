// Command health-sim demonstrates online budget re-provisioning: the
// health monitor re-deriving the dirty budget while the battery ages and
// the SSD wears, entirely on the deterministic virtual clock.
//
// Two modes back the EXPERIMENTS.md "Online re-provisioning" section:
//
//	-mode trajectory (default): run a write workload under a scheduled
//	  battery-aging curve and print the monitor's snapshot table — the
//	  budget following the battery down, with the staged drain visible
//	  in the dirty/draining columns.
//
//	-mode drain: from a dirty set refilled to the proactive copier's
//	  wake level, shrink the budget by several sizes and report the
//	  virtual time until each staged drain completes (dirty ≤ new
//	  budget) — the re-provisioning latency.
//
//	-mode sensor: corrupt the voltage gauge with seeded fault episodes
//	  (-gauge-lie / -gauge-stuck / -gauge-drift probabilities) while the
//	  battery ages, and print the fused estimate against the battery
//	  model's ground truth at every monitor sample — the fused column
//	  may dip below truth (conservative) but never above it.
//
// The -blackbox flag (trajectory mode) arms the black-box flight
// recorder alongside the monitor and prints the live forensic report
// after the snapshot table: the same aging trajectory the table shows,
// read back out of the battery-backed ring — what a post-mortem would
// see had the run ended in a power failure.
//
// Usage:
//
//	health-sim [-size BYTES] [-seed S] [-mode trajectory|drain|sensor]
//	           [-age-frac F] [-age-steps N] [-blackbox]
//	           [-gauge-lie P] [-gauge-stuck P] [-gauge-drift P]
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"viyojit"
	"viyojit/internal/battery"
	"viyojit/internal/core"
	"viyojit/internal/faultinject"
	"viyojit/internal/sim"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is main with its arguments and streams passed in; it returns the
// process exit status.
func run(args []string, out, stderr io.Writer) int {
	fs := flag.NewFlagSet("health-sim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	size := fs.Int64("size", 8<<20, "NV-DRAM size in bytes")
	seed := fs.Uint64("seed", 1, "workload seed")
	mode := fs.String("mode", "trajectory", "trajectory | drain | sensor")
	ageFrac := fs.Float64("age-frac", 0.08, "battery capacity fraction lost per aging step")
	ageSteps := fs.Int("age-steps", 8, "number of scheduled aging steps")
	gaugeLie := fs.Float64("gauge-lie", 0, "voltage-gauge lie-high episode probability per sample for -mode sensor (all-zero gauge flags = default menu)")
	gaugeStuck := fs.Float64("gauge-stuck", 0, "voltage-gauge stuck episode probability per sample for -mode sensor")
	gaugeDrift := fs.Float64("gauge-drift", 0, "voltage-gauge upward-drift episode probability per sample for -mode sensor")
	blackBox := fs.Bool("blackbox", false, "arm the black-box flight recorder and print the live forensic report (trajectory mode)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if err := checkFlags(*ageSteps, *gaugeLie, *gaugeStuck, *gaugeDrift); err != nil {
		fmt.Fprintln(stderr, "health-sim:", err)
		return 1
	}

	var err error
	switch *mode {
	case "trajectory":
		err = trajectory(out, *size, *seed, *ageFrac, *ageSteps, *blackBox)
	case "drain":
		err = drainLatency(out, *size)
	case "sensor":
		err = sensorTrajectory(out, *size, *seed, *ageFrac, *ageSteps, *gaugeLie, *gaugeStuck, *gaugeDrift)
	default:
		err = fmt.Errorf("unknown -mode %q", *mode)
	}
	if err != nil {
		fmt.Fprintln(stderr, "health-sim:", err)
		return 1
	}
	return 0
}

// checkFlags rejects an aging schedule with no step (0 would age the
// battery for the life of the run) and gauge-fault probabilities outside
// [0, 1]; each check is written so that NaN fails it.
func checkFlags(ageSteps int, lie, stuck, drift float64) error {
	if ageSteps < 1 {
		return fmt.Errorf("-age-steps %d: want at least 1", ageSteps)
	}
	for _, g := range []struct {
		name string
		p    float64
	}{{"lie", lie}, {"stuck", stuck}, {"drift", drift}} {
		if !(g.p >= 0 && g.p <= 1) {
			return fmt.Errorf("-gauge-%s %v outside [0,1]", g.name, g.p)
		}
	}
	return nil
}

// trajectory runs a steady write workload for 100 ms of virtual time
// while the battery loses ageFrac of its capacity every 10 ms, and
// prints the monitor's view: effective joules, bandwidth estimate, and
// the budget the monitor pushed.
func trajectory(out io.Writer, size int64, seed uint64, ageFrac float64, ageSteps int, blackBox bool) error {
	sys, err := viyojit.New(viyojit.Config{
		NVDRAMSize: size,
		// Wear modelling on: the workload's clean traffic accrues
		// full-capacity write passes against 4× the region.
		SSD:      viyojit.SSDConfig{WearCapacityBytes: 4 * size},
		BlackBox: blackBox,
	})
	if err != nil {
		return err
	}
	m, err := sys.Map("heap", size/2)
	if err != nil {
		return err
	}
	if err := battery.ScheduleAging(sys.Events(), sys.Battery(), battery.AgingSchedule{
		Start:           sim.Time(10 * sim.Millisecond),
		Interval:        10 * sim.Millisecond,
		FractionPerStep: ageFrac,
		Steps:           ageSteps,
	}); err != nil {
		return err
	}
	installJoules := sys.Battery().EffectiveJoules()
	fmt.Fprintf(out, "NV-DRAM %d MiB, initial budget %d pages, battery %.2f J effective\n",
		size>>20, sys.DirtyBudget(), installJoules)
	fmt.Fprintf(out, "aging schedule: -%.0f%% capacity every 10 ms, %d steps\n\n",
		ageFrac*100, ageSteps)

	rng := sim.NewRNG(seed)
	pages := size / 2 / 4096
	for sys.Now() < sim.Time(100*sim.Millisecond) {
		p := rng.Int63n(pages)
		if err := m.WriteAt([]byte{byte(p)}, p*4096); err != nil {
			return err
		}
		sys.AdvanceTime(20 * sim.Microsecond)
	}

	fmt.Fprintf(out, "%10s %10s %10s %12s %8s %8s %9s %6s\n",
		"t", "state", "joules", "bw-est MB/s", "budget", "dirty", "draining", "wear")
	for i, s := range sys.Health().Snapshots() {
		if i%5 != 0 { // one row per 10 ms of the 2 ms sampling
			continue
		}
		fmt.Fprintf(out, "%10v %10v %10.3f %12.1f %8d %8d %9v %6.2f\n",
			sim.Duration(s.At), s.State, s.EffectiveJoules,
			float64(s.BandwidthEstimate)/(1<<20), s.Budget, s.Dirty, s.Draining, s.WearCycles)
	}
	st := sys.Stats()
	hs := sys.Health().Stats()
	fmt.Fprintf(out, "\nmonitor: %d ticks, %d retunes; manager: %d budget shrinks, %d drains completed, state %v\n",
		hs.Ticks, hs.Retunes, st.BudgetShrinks, st.DrainsCompleted, sys.HealthState())
	fmt.Fprintf(out, "final budget %d pages from %.2f J effective (%.0f%% of nameplate at install)\n",
		sys.DirtyBudget(), sys.Battery().EffectiveJoules(), 100*sys.Battery().EffectiveJoules()/installJoules)

	if blackBox {
		rep, err := sys.BlackBoxReport()
		if err != nil {
			return err
		}
		fmt.Fprintln(out, "\nlive forensic report from the battery-backed flight recorder:")
		if err := rep.WriteText(out, 15); err != nil {
			return err
		}
	}
	return nil
}

// sensorTrajectory runs the trajectory workload with the voltage gauge
// under seeded fault episodes and prints the fused estimate next to the
// battery model's ground truth at every monitor sample. The point of
// the table is the one-sided error: fused/true dips below 1 whenever
// the fusion turns conservative, and never rises above it.
func sensorTrajectory(out io.Writer, size int64, seed uint64, ageFrac float64, ageSteps int, lie, stuck, drift float64) error {
	sys, err := viyojit.New(viyojit.Config{
		NVDRAMSize: size,
		// Slow device: the transfer term dominates the fixed flush
		// overhead, so a conservative telemetry dip shrinks the budget
		// proportionally instead of zeroing it through the overhead
		// reserve and tripping ReadOnly (the regime the lying-gauge
		// crash sweep studies, for the same reason).
		SSD: viyojit.SSDConfig{WriteBandwidth: 16 << 20},
	})
	if err != nil {
		return err
	}
	m, err := sys.Map("heap", size/2)
	if err != nil {
		return err
	}
	if lie == 0 && stuck == 0 && drift == 0 {
		lie, stuck, drift = 0.05, 0.02, 0.02
	}
	inj := faultinject.NewSensorInjector(faultinject.SensorConfig{
		Seed:      seed ^ 0x6A06E, // decorrelate from the workload stream
		LieProb:   lie,
		StuckProb: stuck,
		DriftProb: drift,
	})
	// The voltage gauge (estimator 1) takes the faults; the coulomb
	// counter stays honest, so the fusion always has a floor to stand on.
	sys.Sensor().Estimator(1).SetCorruptor(inj)
	if err := battery.ScheduleAging(sys.Events(), sys.Battery(), battery.AgingSchedule{
		Start:           sim.Time(10 * sim.Millisecond),
		Interval:        10 * sim.Millisecond,
		FractionPerStep: ageFrac,
		Steps:           ageSteps,
	}); err != nil {
		return err
	}
	fmt.Fprintf(out, "NV-DRAM %d MiB, initial budget %d pages, battery %.2f J effective\n",
		size>>20, sys.DirtyBudget(), sys.Battery().EffectiveJoules())
	fmt.Fprintf(out, "voltage-gauge faults armed: lie %.3f, stuck %.3f, drift %.3f per sample; aging -%.0f%% every 10 ms\n\n",
		lie, stuck, drift, ageFrac*100)

	rng := sim.NewRNG(seed)
	pages := size / 2 / 4096
	for sys.Now() < sim.Time(100*sim.Millisecond) {
		p := rng.Int63n(pages)
		if err := m.WriteAt([]byte{byte(p)}, p*4096); err != nil {
			return err
		}
		sys.AdvanceTime(20 * sim.Microsecond)
	}

	fmt.Fprintf(out, "%10s %10s %10s %10s %10s %8s %8s\n",
		"t", "state", "true J", "fused J", "fused/true", "budget", "dirty")
	overReports := 0
	for i, s := range sys.Health().Snapshots() {
		if s.EffectiveJoules > s.TrueJoules {
			overReports++
		}
		if i%2 != 0 { // one row per 4 ms of the 2 ms sampling
			continue
		}
		fmt.Fprintf(out, "%10v %10v %10.3f %10.3f %10.3f %8d %8d\n",
			sim.Duration(s.At), s.State, s.TrueJoules, s.EffectiveJoules,
			s.EffectiveJoules/s.TrueJoules, s.Budget, s.Dirty)
	}

	fs := sys.Sensor().Stats()
	episodes := map[string]int{}
	for _, ep := range inj.Episodes() {
		episodes[ep.Class.String()]++
	}
	hs := sys.Health().Stats()
	fmt.Fprintf(out, "\nepisodes injected: %v over %d fused samples\n", episodes, fs.Samples)
	fmt.Fprintf(out, "fused-layer rejections: bounds %d, rate %d, stale %d, disagree %d; %d re-trusts, %d solo, %d blind\n",
		fs.BoundsRejects, fs.RateRejects, fs.StaleDropouts, fs.Disagreements,
		fs.Retrusts, fs.SoloSamples, fs.BlindSamples)
	fmt.Fprintf(out, "monitor: %d ticks, %d retunes, %d emergencies; final budget %d from fused %.3f J (true %.3f J)\n",
		hs.Ticks, hs.Retunes, hs.EmergencyEnters, sys.DirtyBudget(),
		sys.Sensor().EffectiveJoules(), sys.Battery().EffectiveJoules())
	if overReports > 0 {
		return fmt.Errorf("%d samples over-reported ground truth — the conservatism invariant is broken", overReports)
	}
	fmt.Fprintln(out, "every sample held fused ≤ true: the budget never trusted a lie")
	return nil
}

// drainLatency measures the staged-shrink re-provisioning latency: with
// the dirty set refilled to the copier's wake level, shrink the budget to
// a fraction of it and time the drain (no concurrent writes — the floor of
// the latency; bursts only extend it via forced-clean backpressure).
func drainLatency(out io.Writer, size int64) error {
	// Monitor off: this experiment drives SetDirtyBudget by hand to
	// isolate the staged drain's latency; a live monitor would retune
	// the budget out from under the measurement.
	sys, err := viyojit.New(viyojit.Config{NVDRAMSize: size, DisableHealthMonitor: true})
	if err != nil {
		return err
	}
	m, err := sys.Map("heap", size/2)
	if err != nil {
		return err
	}
	mgr := sys.Manager()
	budget0 := sys.DirtyBudget()
	// An admission that reaches the wake level starts the proactive
	// copier, which holds the set below the budget from then on; the
	// refill stops there. Writes cycle over the mapping, so the set
	// reaches it within a few passes: more is a regression, reported
	// rather than waited out.
	full := budget0 - core.WakeAhead(core.WakePages(mgr.SSD(), mgr.Region().PageTable().Costs().Trap), budget0)
	pages := size / 2 / 4096
	maxWrites := 8 * pages
	fmt.Fprintf(out, "NV-DRAM %d MiB, budget %d pages, refilled to %d before each shrink\n\n", size>>20, budget0, full)
	fmt.Fprintf(out, "%10s %12s %14s %16s\n", "new budget", "pages cut", "drain time", "µs per page")

	for _, frac := range []float64{0.75, 0.5, 0.25, 0.125} {
		if err := mgr.SetDirtyBudget(budget0); err != nil {
			return err
		}
		for p := int64(0); sys.DirtyCount() < full; p++ {
			if p == maxWrites {
				return fmt.Errorf("refill stuck at %d dirty pages of %d after %d writes", sys.DirtyCount(), full, p)
			}
			if err := m.WriteAt([]byte{byte(p)}, p%pages*4096); err != nil {
				return err
			}
			sys.Pump()
		}
		target := max(int(float64(budget0)*frac), 1)
		cut := sys.DirtyCount() - target
		start := sys.Now()
		if err := mgr.SetDirtyBudget(target); err != nil {
			return err
		}
		for mgr.Draining() {
			sys.AdvanceTime(20 * sim.Microsecond)
		}
		dt := sys.Now().Sub(start)
		fmt.Fprintf(out, "%10d %12d %14v %16.2f\n",
			target, cut, dt, float64(dt)/1000/float64(cut))
	}
	st := sys.Stats()
	fmt.Fprintf(out, "\n%d staged shrinks, %d drains completed, %d retune cleans\n",
		st.BudgetShrinks, st.DrainsCompleted, st.RetuneCleans)
	return nil
}
