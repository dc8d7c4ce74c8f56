// Command powerfail is a narrated durability demonstration: it builds a
// Viyojit system with a battery covering ~12.5 % of the NV-DRAM, dirties
// far more data than the battery could flush naively, pulls the plug,
// verifies byte-for-byte durability, and reboots warm.
//
// The fault flags turn the demo adversarial: SSD write faults (transient
// errors, torn page programs, latency spikes) during the workload,
// battery capacity sag mid-run, and a power failure injected at an exact
// event-queue step instead of at the end.
//
// The silent-corruption flags (-lost-prob, -misdirect-prob, -rot-prob)
// inject faults the device acks as successes; the background scrubber
// (pace it with -scrub-share, disable it with -no-scrub) and a final
// on-demand scrub are then what stand between those faults and the
// durability check.
//
// The -serve-sweep mode runs the live-traffic exactly-once crash sweep
// instead: concurrent retrying clients drive idempotent mutations
// through a real serving front-end with a battery-backed intent journal,
// power fails at swept event steps, and every recovery is checked for
// zero lost acks and zero double-applies. Every stack of the four sweeps
// is the one viyojit.New builds and System.RecoverWith reboots — health
// monitor, scrubber and fused sensor ticking — and every flush runs on
// that stack's true battery.
//
// The -nested-sweep mode goes one failure deeper: every outer crash
// point's recovery is itself re-crashed up to -recrash-depth times at
// seeded steps — during region restore (the half-recovered system is
// abandoned and the survivor recovered again), mid-WAL-replay,
// mid-intent-redo, mid-drain — with the recovery running on a battery
// holding -recovery-budget-scale of its energy (the sagged-battery
// regime), carried from reboot to reboot. The persistent recovery cursor
// must resume, never regress, and the same exactly-once oracle must hold
// once recovery finally completes.
//
// The -forensics flag arms the black-box flight recorder: a small
// checksummed ring of event records in battery-backed pages, charged
// against the same dirty budget as the heap. After the reboot the
// recovered system prints the forensic report walked out of the ring —
// the crash-instant dirty/budget/ladder snapshot and the event
// timeline — i.e. the machine explains its own failure.
//
// The -blackbox-sweep mode runs the flight-recorder crash sweep: the
// live-traffic exactly-once sweep with a recorder riding in every run,
// each recovered forensic report audited against the crash-instant
// oracle, plus the recorder-on vs recorder-off healthy overhead
// measurement.
//
// The -sensor-sweep mode attacks the energy telemetry instead of the
// storage: the dirty budget is derived from the fused two-gauge sensor
// while seeded injectors corrupt the gauges (the voltage gauge lying up
// to 50% high), and every swept power failure checks that the flush
// completed within TRUE battery energy, that dirty stayed within the
// fused-derived budget at every sample, and that each fault class was
// detected within its MTTD bound. -gauge-lie / -gauge-stuck /
// -gauge-drift override the voltage gauge's episode probabilities
// (setting any one replaces the whole default menu).
//
// Usage:
//
//	powerfail [-size BYTES] [-seed S] [-forensics]
//	          [-write-error-prob P] [-torn-prob P] [-spike-prob P] [-max-faults N]
//	          [-lost-prob P] [-misdirect-prob P] [-rot-prob P]
//	          [-scrub-share F] [-no-scrub]
//	          [-sag FRACTION] [-crash-step N]
//	powerfail -blackbox-sweep [-serve-points N] [-serve-clients N] [-seed S]
//	powerfail -serve-sweep [-serve-points N] [-serve-clients N] [-seed S]
//	powerfail -nested-sweep [-serve-points N] [-serve-clients N] [-seed S]
//	          [-recrash-depth N] [-recovery-budget-scale F]
//	powerfail -sensor-sweep [-serve-points N] [-serve-clients N] [-seed S]
//	          [-gauge-lie P] [-gauge-stuck P] [-gauge-drift P] [-gauge-lie-max F]
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"viyojit"
	"viyojit/internal/faultinject"
	"viyojit/internal/faultinject/crashsweep"
	"viyojit/internal/obs"
	"viyojit/internal/sim"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is main with its arguments and streams passed in; it returns the
// process exit status.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("powerfail", flag.ContinueOnError)
	fs.SetOutput(stderr)
	size := fs.Int64("size", 64<<20, "NV-DRAM size in bytes")
	seed := fs.Uint64("seed", 1, "workload seed")
	writeErrProb := fs.Float64("write-error-prob", 0, "probability an SSD page write fails transiently")
	tornProb := fs.Float64("torn-prob", 0, "probability an SSD page write tears (half the page lands)")
	spikeProb := fs.Float64("spike-prob", 0, "probability an SSD write completion is delayed ~1 ms")
	maxFaults := fs.Uint64("max-faults", 0, "bound on injected transient+torn faults (0 = unbounded)")
	lostProb := fs.Float64("lost-prob", 0, "probability an SSD page write is silently lost (acked, never stored)")
	misdirectProb := fs.Float64("misdirect-prob", 0, "probability an SSD page write silently lands on the wrong page")
	rotProb := fs.Float64("rot-prob", 0, "probability a write completion flips a bit in an at-rest durable page")
	scrubShare := fs.Float64("scrub-share", 0, "background scrubber's read-bandwidth share (0 = default 5%)")
	noScrub := fs.Bool("no-scrub", false, "disable the background integrity scrubber")
	sag := fs.Float64("sag", 0, "battery derating applied mid-run, e.g. 0.7 (0 = no sag)")
	crashStep := fs.Uint64("crash-step", 0, "pull the plug at this event-queue step (0 = after the workload)")
	metricsOut := fs.String("metrics", "", `dump the system's metrics/trace export to this file after the durability check ("-" = stdout; a .json suffix selects JSON, otherwise text)`)
	serveSweep := fs.Bool("serve-sweep", false, "run the live-traffic exactly-once crash sweep instead of the durability demo")
	servePoints := fs.Int("serve-points", 200, "crash points for -serve-sweep / -nested-sweep")
	serveClients := fs.Int("serve-clients", 10, "concurrent retrying clients for -serve-sweep / -nested-sweep")
	nestedSweep := fs.Bool("nested-sweep", false, "run the cascading-failure sweep: re-crash each outer crash point's recovery")
	recrashDepth := fs.Int("recrash-depth", 3, "max cascaded re-crashes inside one recovery for -nested-sweep")
	recoveryScale := fs.Float64("recovery-budget-scale", 1.0, "fraction of the battery's energy left for recovery, in (0,1], for -nested-sweep (sagged-battery regime)")
	sensorSweep := fs.Bool("sensor-sweep", false, "run the lying-fuel-gauge crash sweep: budget from fused telemetry under gauge faults")
	gaugeLie := fs.Float64("gauge-lie", 0, "voltage-gauge lie-high episode probability per sample for -sensor-sweep (0 with all gauge flags zero = default menu)")
	gaugeStuck := fs.Float64("gauge-stuck", 0, "voltage-gauge stuck episode probability per sample for -sensor-sweep")
	gaugeDrift := fs.Float64("gauge-drift", 0, "voltage-gauge upward-drift episode probability per sample for -sensor-sweep")
	gaugeLieMax := fs.Float64("gauge-lie-max", 0, "max fractional over-report of a lie-high episode for -sensor-sweep (0 = 0.5)")
	forensics := fs.Bool("forensics", false, "arm the black-box flight recorder and print the recovered forensic report after the reboot")
	bbSweep := fs.Bool("blackbox-sweep", false, "run the flight-recorder crash sweep: forensic reports audited against the crash-instant oracle")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fatal := func(err error) int {
		fmt.Fprintln(stderr, "powerfail:", err)
		return 1
	}
	// Checked before any run starts; each test is written so that NaN
	// fails it.
	for _, p := range []struct {
		flag string
		v    float64
	}{{"write-error-prob", *writeErrProb}, {"torn-prob", *tornProb}, {"spike-prob", *spikeProb},
		{"lost-prob", *lostProb}, {"misdirect-prob", *misdirectProb}, {"rot-prob", *rotProb}} {
		if !(p.v >= 0 && p.v <= 1) {
			return fatal(fmt.Errorf("-%s %v outside [0,1]", p.flag, p.v))
		}
	}
	for _, c := range []struct {
		flag string
		n    int
	}{{"serve-points", *servePoints}, {"serve-clients", *serveClients}, {"recrash-depth", *recrashDepth}} {
		if c.n < 0 {
			return fatal(fmt.Errorf("-%s %d is negative", c.flag, c.n))
		}
	}

	sweep := sweepNarrator{stdout: stdout, stderr: stderr, cfg: crashsweep.ServeConfig{
		Seed: *seed, Clients: *serveClients, MaxCrashPoints: *servePoints,
	}}
	done := func(err error) int {
		if err != nil {
			return fatal(err)
		}
		return 0
	}
	switch {
	case *bbSweep:
		return done(sweep.blackBox())
	case *sensorSweep:
		return done(sweep.sensor(*gaugeLie, *gaugeStuck, *gaugeDrift, *gaugeLieMax))
	case *nestedSweep:
		return done(sweep.nested(*recrashDepth, *recoveryScale))
	case *serveSweep:
		return done(sweep.serve())
	}

	if !(*sag >= 0 && *sag <= 1) {
		return fatal(fmt.Errorf("-sag %v outside (0,1]; it is a derating fraction", *sag))
	}
	sys, err := viyojit.New(viyojit.Config{
		NVDRAMSize:      *size,
		Scrub:           viyojit.ScrubConfig{BandwidthShare: *scrubShare},
		DisableScrubber: *noScrub,
		BlackBox:        *forensics,
	})
	if err != nil {
		return fatal(err)
	}
	if *forensics {
		fmt.Fprintf(stdout, "black-box flight recorder armed: %d-record ring in battery-backed pages, inside the dirty budget\n",
			sys.BlackBox().Slots())
	}
	fmt.Fprintf(stdout, "NV-DRAM: %d MiB, dirty budget: %d pages (%.1f%% of the region)\n",
		*size>>20, sys.DirtyBudget(), float64(sys.DirtyBudget())*4096*100/float64(*size))

	silent := *lostProb > 0 || *misdirectProb > 0 || *rotProb > 0
	var inj *faultinject.Injector
	if *writeErrProb > 0 || *tornProb > 0 || *spikeProb > 0 || silent {
		inj = faultinject.New(faultinject.Config{
			Seed:            *seed ^ 0xFA17,
			TransientProb:   *writeErrProb,
			TornProb:        *tornProb,
			SpikeProb:       *spikeProb,
			MaxFaults:       *maxFaults,
			LostProb:        *lostProb,
			MisdirectedProb: *misdirectProb,
			RotProb:         *rotProb,
		})
		sys.SSD().SetFaultInjector(inj)
		fmt.Fprintf(stdout, "SSD fault injection armed: transient %.2f, torn %.2f, spike %.2f\n",
			*writeErrProb, *tornProb, *spikeProb)
		if silent {
			fmt.Fprintf(stdout, "silent corruption armed: lost %.3f, misdirected %.3f, rot %.3f\n",
				*lostProb, *misdirectProb, *rotProb)
		}
	}
	if *sag > 0 {
		// Sag a third of the way into the expected run: the budget
		// retunes automatically through the battery observer.
		faultinject.ScheduleBatterySag(sys.Events(), sys.Battery(), []faultinject.SagStep{
			{At: sim.Time(300 * sim.Microsecond), Derating: *sag},
		})
		fmt.Fprintf(stdout, "battery sag to %.0f%% scheduled at t=300µs\n", *sag*100)
	}
	var crasher *faultinject.Crasher
	if *crashStep > 0 {
		crasher = faultinject.NewCrasher(sys.Events())
		crasher.ArmAt(*crashStep)
		fmt.Fprintf(stdout, "power failure armed at event step %d\n", *crashStep)
	}

	heapSize := *size / 2
	m, err := sys.Map("demo-heap", heapSize)
	if err != nil {
		return fatal(err)
	}

	var werr error // the workload's first error; an armed crash unwinds past it
	workload := func() {
		// Dirty every page of the heap — 4x the battery's budget — with
		// a skewed rewrite pattern on top.
		rng := sim.NewRNG(*seed)
		pages := int(heapSize / 4096)
		fmt.Fprintf(stdout, "writing to all %d heap pages (%.0fx the dirty budget)...\n",
			pages, float64(pages)/float64(sys.DirtyBudget()))
		buf := make([]byte, 128)
		for p := 0; p < pages; p++ {
			for i := range buf {
				buf[i] = byte(rng.Uint64())
			}
			if werr = m.WriteAt(buf, int64(p)*4096); werr != nil {
				return
			}
			sys.Pump()
		}
		for i := 0; i < 4*pages; i++ {
			p := rng.Intn(pages / 8) // hot eighth
			if werr = m.WriteAt([]byte{byte(i)}, int64(p)*4096); werr != nil {
				return
			}
			sys.Pump()
		}
	}
	var crashed bool
	if crasher != nil {
		var cp faultinject.CrashPoint
		cp, crashed = crasher.Run(workload)
		if crashed {
			fmt.Fprintf(stdout, "\n*** power failed at event step %d (t=%v) ***\n", cp.Step, sim.Duration(cp.At))
		} else {
			fmt.Fprintf(stdout, "workload finished before step %d; pulling the plug at the end instead\n", *crashStep)
		}
		crasher.Disarm()
	} else {
		workload()
	}
	if werr != nil {
		return fatal(fmt.Errorf("%w (ladder state %v)", werr, sys.HealthState()))
	}

	s := sys.Stats()
	fmt.Fprintf(stdout, "dirty now: %d pages (budget %d); faults %d, proactive cleans %d, forced cleans %d\n",
		sys.DirtyCount(), sys.DirtyBudget(), s.Faults, s.ProactiveCleans, s.ForcedCleans)
	if h := sys.Health(); h != nil {
		hs := h.Stats()
		fmt.Fprintf(stdout, "health monitor: %d ticks, %d retunes; %d budget shrinks, %d drains completed\n",
			hs.Ticks, hs.Retunes, s.BudgetShrinks, s.DrainsCompleted)
	}
	if inj != nil {
		ist := inj.Stats()
		fmt.Fprintf(stdout, "injected faults: %d transient, %d torn, %d latency spikes over %d writes\n",
			ist.Transients, ist.Torn, ist.LatencySpikes, ist.WritesSeen)
		if silent {
			fmt.Fprintf(stdout, "silent faults injected: %d lost, %d misdirected, %d rot\n",
				ist.Lost, ist.Misdirected, ist.Rot)
		}
		fmt.Fprintf(stdout, "manager under fire: %d clean errors, %d backoff retries, ladder state %v (degraded %dx)\n",
			s.CleanErrors, s.CleanRetries, sys.HealthState(), s.DegradedEnters)
		// The battery backup path is engineered to complete: faults stop
		// at the wall.
		inj.Disable()
	}
	if silent {
		// Final on-demand scrub while the system is still alive: repairs
		// re-dirty through the budget-enforced path, and the power-fail
		// flush below writes them back durably. Whatever the background
		// scrubber already caught shows in the same counters.
		detected := sys.Scrub()
		rep := sys.IntegrityReport()
		fmt.Fprintf(stdout, "integrity scrub: %d detections this pass (%d total, %d background bursts, MTTD %v); %d repaired, %d repair kicks, %d quarantined\n",
			detected, rep.Scrub.Detections, rep.Scrub.Bursts, rep.Scrub.MTTD(),
			rep.Scrub.Repairs, rep.Scrub.RepairKicks, len(rep.Quarantined))
		for _, q := range rep.Quarantined {
			fmt.Fprintf(stdout, "  quarantined page %d at t=%v: %s\n", q.Page, sim.Duration(q.At), q.Reason)
		}
	}

	if !crashed {
		fmt.Fprintln(stdout, "\n*** pulling the plug ***")
	}
	report := sys.SimulatePowerFailure()
	fmt.Fprintf(stdout, "flushed %d dirty pages in %v using %.2f J of %.2f J available — survived: %v\n",
		report.PagesFlushed, report.FlushTime, report.EnergyUsedJoules,
		report.EnergyAvailableJoules, report.Survived)
	if report.EnergyAtCompletionJoules != report.EnergyAvailableJoules {
		fmt.Fprintf(stdout, "battery capacity changed during the flush: %.2f J effective at completion; the verdict charges the smaller figure\n",
			report.EnergyAtCompletionJoules)
	}
	if !report.Survived && inj != nil {
		fmt.Fprintln(stdout, "note: the default battery is provisioned for a healthy SSD; injected latency"+
			" spikes on in-flight IOs ate the fixed flush margin. Provision spike headroom"+
			" (see EXPERIMENTS.md, fault-injection model) to survive this schedule.")
	}
	if err := sys.VerifyDurability(); err != nil {
		return fatal(fmt.Errorf("durability check failed: %w", err))
	}
	fmt.Fprintln(stdout, "durability verified: every NV-DRAM byte is recoverable from the SSD")

	if *metricsOut != "" {
		if err := dumpMetrics(stdout, sys, *metricsOut); err != nil {
			return fatal(err)
		}
	}

	recovered, rr, err := sys.Recover()
	if err != nil {
		return fatal(err)
	}
	fmt.Fprintf(stdout, "\nrebooted warm: %d pages restored in %v by one sequential read (%d verified)\n",
		rr.PagesRestored, rr.RestoreTime, rr.Integrity.PagesVerified)
	if !rr.Integrity.Clean() {
		fmt.Fprintf(stdout, "restore-time integrity: %d quarantined %v\n",
			len(rr.Integrity.Quarantined), rr.Integrity.Quarantined)
	}
	m2, err := recovered.Map("demo-heap", heapSize)
	if err != nil {
		return fatal(err)
	}
	probe := make([]byte, 1)
	if err := m2.ReadAt(probe, 0); err != nil {
		return fatal(err)
	}
	fmt.Fprintln(stdout, "recovered heap readable at DRAM latency — cache starts warm")

	if *forensics {
		rep := recovered.Forensics()
		if rep == nil {
			return fatal(fmt.Errorf("forensics armed but no report recovered"))
		}
		fmt.Fprintln(stdout, "\n*** forensic report from the battery-backed flight recorder ***")
		if err := rep.WriteText(stdout, 20); err != nil {
			return fatal(err)
		}
	}
	return 0
}

// sweepNarrator narrates the live-traffic crash sweeps: power failures
// injected at swept event steps while concurrent clients drive
// idempotent mutations, each followed by recovery, retry-stream replay,
// and a per-key exactly-once oracle. The modes share the header, the
// evidence every sweep reports, and the verdict.
type sweepNarrator struct {
	stdout, stderr io.Writer
	cfg            crashsweep.ServeConfig
}

func (n sweepNarrator) header(name string) {
	fmt.Fprintf(n.stdout, "%s: %d crash points, %d retrying clients, seed %#x\n",
		name, n.cfg.MaxCrashPoints, n.cfg.Clients, n.cfg.Seed)
}

// evidence prints what every mode reports.
func (n sweepNarrator) evidence(res crashsweep.ServeResult) {
	w := n.stdout
	fmt.Fprintf(w, "baseline %d events, stride %d; %d runs crashed mid-traffic, %d ran past their step\n",
		res.BaselineEvents, res.Stride, res.CrashPoints, res.Completed)
	fmt.Fprintf(w, "acked %d mutations (%d client retries); in-doubt at crash and replayed: %d (deduped %d, recovery-redone %d, fresh %d)\n",
		res.AckedMutations, res.ClientRetries, res.InDoubtReplayed, res.ReplayDeduped, res.ReplayRedone, res.ReplayFresh)
	fmt.Fprintf(w, "retries of acked ops absorbed by recovered journals: %d; torn journal tails dropped: %d; dedup tables checked against the record walk: %d\n",
		res.AckedRetryDedups, res.TornOpens, res.TableCompares)
	fmt.Fprintf(w, "max dirty at crash: %d pages (journal pages dirty at %d of %d crash instants)\n",
		res.MaxDirtyAtCrash, res.JournalDirtyCrashes, res.CrashPoints)
	if res.MutationBytes > 0 {
		fmt.Fprintf(w, "journal write amplification: %d journal bytes / %d mutation bytes = %.2fx\n",
			res.JournalBytes, res.MutationBytes, float64(res.JournalBytes)/float64(res.MutationBytes))
	}
}

// verdict prints the violations and fails with what they broke, or
// prints the closing line saying what held.
func (n sweepNarrator) verdict(res crashsweep.ServeResult, broke, held string) error {
	if len(res.Violations) > 0 {
		for _, v := range res.Violations {
			fmt.Fprintf(n.stderr, "VIOLATION step %d: %s\n", v.Step, v.Msg)
		}
		return fmt.Errorf("%d %s", len(res.Violations), broke)
	}
	fmt.Fprintln(n.stdout, held)
	return nil
}

// serve narrates the plain sweep: one crash, one recovery per point.
func (n sweepNarrator) serve() error {
	n.header("live-traffic crash sweep")
	res, err := crashsweep.RunServe(n.cfg)
	if err != nil {
		return err
	}
	n.evidence(res)
	return n.verdict(res, "exactly-once violations",
		"exactly-once held at every crash point: zero lost acks, zero double-applies")
}

// blackBox narrates the flight-recorder sweep.
func (n sweepNarrator) blackBox() error {
	n.header("flight-recorder crash sweep")
	res, err := crashsweep.RunBlackBox(n.cfg)
	if err != nil {
		return err
	}
	sw, w := res.Serve, n.stdout
	n.evidence(sw)
	fmt.Fprintf(w, "forensic audits: %d exact oracle matches, %d relaxed to the sequence bound by shed appends\n",
		sw.ForensicExact, sw.ForensicDropped)
	fmt.Fprintf(w, "recorder pages dirty at %d of %d crash instants; %d ring appends across crashed runs, %d shed\n",
		sw.RecorderDirtyCrashes, sw.CrashPoints, sw.RecorderAppends, sw.RecorderDrops)
	fmt.Fprintf(w, "healthy overhead: %d acked in %v (recorder off) vs %d acked in %v (on) — goodput delta %.2f%%\n",
		res.HealthyOffAcked, sim.Duration(res.HealthyOffNs),
		res.HealthyOnAcked, sim.Duration(res.HealthyOnNs), res.GoodputDeltaFrac*100)
	return n.verdict(sw, "forensic violations",
		"every recovered report matched its crash-instant oracle within the audit bounds")
}

// nested narrates the cascading-failure sweep: each outer crash point's
// recovery is re-crashed at seeded in-recovery steps, on a possibly
// sagged battery, and must resume from the persistent cursor until it
// completes and passes the exactly-once oracle.
func (n sweepNarrator) nested(depth int, scale float64) error {
	if !(scale > 0 && scale <= 1) {
		return fmt.Errorf("-recovery-budget-scale %v outside (0,1]", scale)
	}
	n.header("cascading-failure sweep")
	w := n.stdout
	fmt.Fprintf(w, "each recovery re-crashed up to %d times, on a battery holding %.2f of its energy\n", depth, scale)
	reg := obs.NewRegistry()
	res, err := crashsweep.RunNested(crashsweep.NestedConfig{ServeConfig: n.cfg, RecrashDepth: depth, BudgetScale: scale, Obs: reg})
	if err != nil {
		return err
	}
	n.evidence(res.ServeResult)
	fmt.Fprintf(w, "recovery budget: %d pages; max dirty at in-recovery crash %d\n", res.RecoveryBudget, res.MaxDirtyAtInnerCrash)
	for d, c := range res.InnerByDepth {
		fmt.Fprintf(w, "  depth %d: %d recoveries re-crashed\n", d+1, c)
	}
	fmt.Fprintf(w, "re-crashes by recovery phase:")
	for _, ph := range []string{"restore", "wal-replay", "intent-redo", "drain"} {
		fmt.Fprintf(w, " %s %d", ph, res.InnerByPhase[ph])
	}
	fmt.Fprintln(w)
	fmt.Fprintf(w, "cursor: %d resumed attempts (recovery_resumes_total %d), %d fallbacks; redo workload %d intents, %d pages dirtied (recovery_redo_pages %d), %d budget stalls (recovery_budget_stalls %d)\n",
		res.Resumes, reg.Counter("recovery_resumes_total").Value(), res.Fallbacks,
		res.RedoneIntents, res.RedoPages, reg.Counter("recovery_redo_pages").Value(),
		res.BudgetStalls, reg.Counter("recovery_budget_stalls").Value())
	return n.verdict(res.ServeResult, "violations across cascaded recoveries",
		"exactly-once, cursor monotonicity, and dirty<=budget held at every crash depth")
}

// sensor narrates the lying-fuel-gauge sweep: the dirty budget rides the
// fused two-gauge estimate while seeded injectors corrupt the gauges,
// and every run is audited against the battery model as ground truth —
// the flush must fit TRUE energy no matter what the gauges claimed.
func (n sweepNarrator) sensor(lie, stuck, drift, lieMax float64) error {
	for _, p := range []float64{lie, stuck, drift} {
		if !(p >= 0 && p <= 1) {
			return fmt.Errorf("gauge episode probability %v outside [0,1]", p)
		}
	}
	if !(lieMax >= 0 && lieMax <= 1) {
		return fmt.Errorf("-gauge-lie-max %v outside [0,1]", lieMax)
	}
	n.header("lying-gauge crash sweep")
	w := n.stdout
	if lie > 0 || stuck > 0 || drift > 0 {
		fmt.Fprintf(w, "voltage-gauge menu override: lie %.3f, stuck %.3f, drift %.3f\n", lie, stuck, drift)
	}
	res, err := crashsweep.RunSensor(crashsweep.SensorSweepConfig{Serve: n.cfg, Lie: lie, Stuck: stuck, Drift: drift, LieMagnitude: lieMax})
	if err != nil {
		return err
	}
	n.evidence(res.ServeResult)
	fmt.Fprintf(w, "fault episodes injected:")
	for _, class := range []string{"lie-high", "spike", "stuck", "drift", "dropout"} {
		fmt.Fprintf(w, " %s %d", class, res.Episodes[class])
	}
	fmt.Fprintln(w)
	fmt.Fprintf(w, "fused-layer rejections:")
	for _, reason := range []string{"bounds", "rate", "stale", "disagree"} {
		fmt.Fprintf(w, " %s %d", reason, res.Detections[reason])
	}
	fmt.Fprintln(w)
	fmt.Fprintf(w, "worst detection latency (MTTD):")
	for _, class := range []string{"lie-high", "spike", "drift", "dropout"} {
		if mttd, ok := res.MaxMTTD[class]; ok {
			fmt.Fprintf(w, " %s %v", class, mttd)
		}
	}
	fmt.Fprintln(w, " (stuck exempt: truth is constant under serving)")
	fmt.Fprintf(w, "deepest conservative cut: fused/true %.3f; %d budget retunes, %d solo samples, %d blind samples\n",
		res.MinFusedFraction, res.Retunes, res.SoloSamples, res.BlindSamples)
	if res.EmergencyEnters > 0 {
		fmt.Fprintf(w, "NOTE: %d emergency escalations — the fused estimate dipped below the flush-overhead reserve\n",
			res.EmergencyEnters)
	}
	return n.verdict(res.ServeResult, "telemetry-safety violations",
		"safety held at every crash point: no over-report followed, every flush fit true energy, exactly-once intact")
}

// dumpMetrics writes the system's metrics/trace export to path: stdout
// for "-", JSON for a .json suffix, the text exposition otherwise.
func dumpMetrics(stdout io.Writer, sys *viyojit.System, path string) error {
	if path == "-" {
		return sys.WriteMetricsText(stdout)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if strings.HasSuffix(path, ".json") {
		err = sys.WriteMetricsJSON(f)
	} else {
		err = sys.WriteMetricsText(f)
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		fmt.Fprintf(stdout, "metrics export written to %s\n", path)
	}
	return err
}
