// Package crashsweep is the crash-point sweep harness. Every sweep in it
// is one loop: an un-crashed baseline run sizes the step space; at each
// point of a step lattice over it a fresh stack is built, a Crasher is
// armed, and the run either crashes there or completes as a clean
// shutdown; at the crash instant auditCrash checks dirty ≤ the bound in
// force, runs the battery flush on the stated joules and requires SSD =
// NV-DRAM after it; then a rebooted stack is restored from the surviving
// SSD and what it reopens is audited.
//
// Run is the single-goroutine form: a seeded YCSB-A-style workload over
// a heap, a write-ahead log and a ptx transactional heap. After each
// crash it asserts the paper's durability invariants:
//
//  1. dirty count ≤ budget at the instant of failure (the Fig-6 bound
//     the battery is provisioned against);
//  2. the battery-powered flush completes within the provisioned energy;
//  3. post-flush SSD contents are byte-equal to NV-DRAM
//     (core.Manager.VerifyDurability);
//  4. the machine reboots as System.RecoverWith does — a fresh region,
//     device and manager restored by recovery.RestoreVerified — and every
//     page it did not quarantine equals NV-DRAM at the crash; outside
//     corruption mode a quarantined page is itself a violation;
//  5. the write-ahead log replays to a consistent prefix of what was
//     appended — torn tails detected and rejected, never mis-replayed;
//  6. a ptx transactional heap reopens to an all-or-nothing state: a
//     transaction in flight at the crash is fully rolled back.
//
// Corruption mode (Config.Corruption) additionally injects silent
// faults — lost writes, misdirected writes, at-rest bit rot — and runs
// the background scrubber during the workload. Byte-equality between
// NV-DRAM and the SSD no longer holds by construction, so invariant 3
// is replaced, and invariant 4 relaxed, by the detection guarantee:
// every diverging page must be caught by checksum verification
// (repaired by the scrubber or quarantined at restore), and no corrupt
// byte is ever restored or reported durable without detection — zero
// silent escapes.
//
// Every run is rebuilt from the same seed, so a failing crash point is
// identified by (Seed, Step) alone and replays exactly: the correctness
// regression tool later scaling and performance PRs run against.
//
// RunServe, RunNested, RunSensor and RunBlackBox are the live-traffic
// form (servecrash.go): a real serve.Server power-fails mid-flight while
// concurrent RetryingClients drive a YCSB-A-style mix through the
// exactly-once intent-journal protocol, and the recovered stack must
// answer every client's retry stream exactly once. They are one path —
// viyojit.New → serve → crash → auditCrash → System.RecoverWith (reopen,
// table compare, redo, drain) → replay → per-key oracle — in four
// configurations, and what they audit is the product's own assembly:
// every pre-crash stack is viyojit.New of mode.config() and every
// recovered one System.RecoverWith of it, so the facade's health
// monitor, scrubber and fused sensor tick on the queue the crash is
// armed on and crash points land inside them; the four files construct
// no stack component themselves (CI greps for it). The battery is sized
// through Config.Battery for the serving budget, and every flush —
// System.SimulatePowerFailure — is judged on that TRUE battery, not on a
// figure the harness computed. RecoverWith returns only once the restore
// is over, so a re-crash inside the restore is modelled as what it is on
// the product: the half-recovered System is abandoned and RecoverWith
// runs again on the same survivor. Every mode runs every audit of the
// path; what a mode adds (its file's header has the audits in full):
//
//	mode      at build                  at crash                    after recover
//	serve     —                         —                           —
//	nested    recovery cursor, strike   —                           recovery re-crashed up to
//	          instants in Begin→Complete,                           RecrashDepth times on a
//	          a slow device                                         sagged battery carried
//	                                                                reboot to reboot, audited
//	                                                                at every depth
//	sensor    injectors on the gauges   fused ≤ true, MTTD bounds,  —
//	          the budget is derived     dirty ≤ what TRUE joules
//	          from, on a slow device    flush
//	blackbox  Config.BlackBox: ring     ring pages inside the bound; the report RecoverWith
//	          mapped first, registry    post-flush ring walks to    hands out is the ring the
//	          teed in                   the crash-instant oracle    flush left; sequence
//	                                                                continues
//
// Run's pre-crash stack (build, below) is still wired by hand: it needs
// raw mappings and SSD fault injection from the first write, and it
// sweeps the §5.4 hardware-assisted manager, which viyojit.Config does
// not offer. Its reboot shares that wiring (boot, mapAll) and comes up
// the product's way: RestoreVerified onto a fresh device, the mappings
// again in the same first-fit order, then wal.Open and ptx.Open.
//
// Unlike Run, a live-traffic run with more than one client is NOT
// bit-replayable from its seed: the event step a crash lands on is
// deterministic, but which client's request occupies that step depends
// on goroutine scheduling. Every invariant is therefore checked against
// the run's own acknowledgement log — an oracle the sweep builds as the
// run happens — rather than against a re-executed shadow run. With one
// client nothing is concurrent and the whole sweep repeats exactly.
package crashsweep

import (
	"bytes"
	"encoding/binary"
	"fmt"

	"viyojit/internal/battery"
	"viyojit/internal/core"
	"viyojit/internal/dist"
	"viyojit/internal/faultinject"
	"viyojit/internal/health"
	"viyojit/internal/mmu"
	"viyojit/internal/nvdram"
	"viyojit/internal/power"
	"viyojit/internal/ptx"
	"viyojit/internal/recovery"
	"viyojit/internal/scrub"
	"viyojit/internal/sim"
	"viyojit/internal/ssd"
	"viyojit/internal/wal"
)

// Config parameterises a sweep. Zero values select a small, fast
// configuration that still exercises forced cleans, epoch ticks, WAL
// appends, and transactions.
type Config struct {
	// Seed drives the whole run: workload, value bytes, and any fault
	// injector. Same seed, same event sequence, same crash points.
	Seed uint64
	// Ops is the number of workload operations per run; 0 selects 600.
	Ops int
	// Stride crashes at every Stride-th event step; 0 derives a stride
	// that yields about MaxCrashPoints points across the run.
	Stride uint64
	// MaxCrashPoints bounds the sweep; 0 selects 200.
	MaxCrashPoints int
	// Faults optionally injects SSD write faults during the run (the
	// injector is disabled for each post-crash battery flush). The
	// Seed field of this nested config is ignored; the sweep derives
	// it from Seed so one number reproduces everything.
	Faults faultinject.Config
	// InjectFaults enables the Faults schedule.
	InjectFaults bool
	// HardwareAssist runs the §5.4 MMU-offload manager instead of the
	// software write-protection one.
	HardwareAssist bool
	// Epoch overrides the manager's scan period (0 = 1 ms).
	Epoch sim.Duration
	// SSD overrides the backing-device configuration (zero = defaults).
	// The sag sweep below uses it to pick a slow write bandwidth so the
	// battery's energy is dominated by page transfer time rather than
	// fixed flush overhead — otherwise a 50 % sag saws through the
	// overhead reserve and leaves nothing measurable to shrink.
	SSD ssd.Config
	// SagFraction, which must lie in [0,1), when non-zero provisions a
	// battery exactly covering budgetPages (plus the fixed flush
	// overhead) and schedules a single capacity step-down to this
	// fraction of nameplate at sagAt. The battery's safe-shrink hook
	// drains the dirty set to the projected coverage *before* the
	// capacity drops, and every crash point — including ones landing
	// mid-drain — additionally asserts dirty ≤ pages coverable by the
	// battery's effective joules at the crash instant, and runs the flush
	// against that live energy.
	SagFraction float64
	// Corruption enables the silent-corruption sweep mode: lost,
	// misdirected, and at-rest-rot faults are injected during the
	// workload (defaults below unless the Faults config sets its own
	// silent probabilities), a background scrubber repairs what it
	// catches, and the post-crash protocol changes from strict
	// byte-equality to zero *undetected* escapes — every page whose
	// durable or restored bytes diverge from NV-DRAM truth must have
	// been detected (repaired or quarantined), never silently restored.
	Corruption bool
}

func (c Config) withDefaults() Config {
	if c.Ops == 0 {
		c.Ops = 600
	}
	if c.MaxCrashPoints == 0 {
		c.MaxCrashPoints = 200
	}
	if c.Corruption {
		c.InjectFaults = true
		if c.Faults.LostProb == 0 && c.Faults.MisdirectedProb == 0 && c.Faults.RotProb == 0 {
			c.Faults.LostProb = 0.02
			c.Faults.MisdirectedProb = 0.01
			c.Faults.RotProb = 0.05
		}
	}
	return c
}

// The workload's shape. No caller ever varied these, so they are
// constants; the crash lattices of every pinned sweep depend on them.
const (
	heapPages    = 96            // the main write-target mapping
	budgetPages  = heapPages / 4 // the dirty budget
	readFraction = 0.5           // YCSB-A's 50/50 read/update
	zipfTheta    = dist.ZipfianConstant
	// sagAt is the virtual time of the sag step: roughly mid-run for the
	// default workload.
	sagAt = 1500 * sim.Microsecond
	// scrubShare is the background scrubber's read-bandwidth share in
	// corruption mode: aggressive, so the short sweep runs exercise the
	// repair path, not just restore-time detection.
	scrubShare = 0.2
)

// Fixed layout constants for the companion mappings.
const (
	pageSize     = nvdram.DefaultPageSize
	walBytes     = 16 * pageSize // record log
	ptxLogBytes  = 2 * pageSize  // undo-log partition of the ptx mapping
	ptxDataBytes = 2 * pageSize
	ptxBytes     = ptxLogBytes + ptxDataBytes
	ptxSlots     = 8 // slots one transaction updates together
)

// Violation is one failed invariant at one crash point.
type Violation struct {
	Step uint64
	Msg  string
}

func (v Violation) String() string { return fmt.Sprintf("step %d: %s", v.Step, v.Msg) }

// Swept is what every sweep reports about its lattice and its verdict.
type Swept struct {
	// BaselineEvents is the number of events the un-crashed run fires —
	// the sweep's step space.
	BaselineEvents uint64
	// Stride is the effective crash-point spacing.
	Stride uint64
	// CrashPoints is the number of power failures injected.
	CrashPoints int
	// Completed counts runs where the armed step was never reached
	// (crash point past the run's end); they still verified a clean
	// shutdown.
	Completed int
	// Violations lists every invariant failure; empty means the
	// guarantee held at every crash point.
	Violations []Violation
	// MaxDirtyAtCrash is the largest dirty set observed at any crash
	// instant (always ≤ budget unless a violation was recorded).
	MaxDirtyAtCrash int
}

// Result summarises a single-goroutine sweep.
type Result struct {
	Swept
	// TornTails counts crashes whose WAL replay detected (and rejected)
	// a torn tail record — evidence the detection path runs.
	TornTails int
	// Rollbacks counts crashes that reopened the ptx heap with an
	// in-flight transaction to roll back.
	Rollbacks int
	// MidDrainCrashes counts crashes that landed while a staged budget
	// shrink was still draining (sag sweeps only) — evidence the sweep
	// exercised the transition window, not just the steady states.
	MidDrainCrashes int
	// SaggedCrashes counts crashes after the battery step-down applied.
	SaggedCrashes int

	// Corruption-mode evidence counters (zero outside corruption mode).

	// CorruptionsInjected totals lost + misdirected + rot faults injected
	// across all crash runs — the sweep is vacuous if this stays zero.
	CorruptionsInjected uint64
	// ScrubDetections counts corruptions the background scrubber caught
	// before the crash; ScrubRepairs counts its successful repairs
	// (re-dirties plus kicked pending cleans).
	ScrubDetections uint64
	ScrubRepairs    uint64
	// RestoreQuarantines counts corrupt pages detected at restore time
	// and quarantined rather than handed back as good data.
	RestoreQuarantines int
	// ReportedLosses counts crashes where a WAL or ptx consistency check
	// was relaxed because a quarantined page overlapped its mapping —
	// honestly reported data loss, as opposed to a silent escape.
	ReportedLosses int
	// SilentEscapes counts divergences that slipped past every detector:
	// corrupt bytes restored or reported durable without any checksum
	// failure or quarantine. Each one is also a Violation; the acceptance
	// bar is zero.
	SilentEscapes int
}

// machine is one boot of the sweep's hardware: a region, a device and a
// manager, with the heap, WAL and ptx mappings on top.
type machine struct {
	clock  *sim.Clock
	events *sim.Queue
	region *nvdram.Region
	dev    *ssd.SSD
	mgr    *core.Manager

	heapM *core.Mapping
	walM  *core.Mapping
	ptxM  *core.Mapping
}

// boot wires a fresh region, device and manager for cfg, mapping nothing
// yet. The run and the reboot after its crash both come up through it.
func boot(cfg Config) (machine, error) {
	m := machine{clock: sim.NewClock(), events: sim.NewQueue()}
	regionPages := heapPages + walBytes/pageSize + ptxBytes/pageSize
	var err error
	if m.region, err = nvdram.New(m.clock, nvdram.Config{Size: int64(regionPages) * pageSize}); err != nil {
		return machine{}, err
	}
	m.dev = ssd.New(m.clock, m.events, cfg.SSD)
	m.mgr, err = core.NewManager(m.clock, m.events, m.region, m.dev, core.Config{
		DirtyBudgetPages: budgetPages,
		Epoch:            cfg.Epoch,
		HardwareAssist:   cfg.HardwareAssist,
	})
	return m, err
}

// mapAll maps the heap, the WAL and the ptx heap, in that order. Mapping
// is first-fit, so a reboot that maps them the same way finds each one
// where the crashed run wrote it.
func (m *machine) mapAll() error {
	var err error
	if m.heapM, err = m.mgr.Map("heap", heapPages*pageSize); err != nil {
		return err
	}
	if m.walM, err = m.mgr.Map("wal", walBytes); err != nil {
		return err
	}
	m.ptxM, err = m.mgr.Map("ptx", ptxBytes)
	return err
}

// runState is one freshly built system plus the workload's shadow model.
type runState struct {
	cfg Config
	machine
	inj   *faultinject.Injector
	scrub *scrub.Scrubber // corruption mode only

	// Sag mode (Config.SagFraction > 0): the provisioned battery and the
	// scheduled step-down event.
	batt     *battery.Battery
	sagEvent *sim.Event

	log     *wal.Log
	ptxHeap *ptx.Heap

	// Shadow model for post-crash verification.
	walAttempted [][]byte // payloads passed to Append, in order
	walCommitted int      // appends that returned nil
	ptxCommitted uint64   // transactions whose Update returned nil
}

// build constructs a fresh system for cfg. Every run of the same cfg is
// bit-identical until the crash fires.
func build(cfg Config) (*runState, error) {
	st := &runState{cfg: cfg}
	var err error
	if st.machine, err = boot(cfg); err != nil {
		return nil, err
	}
	if cfg.InjectFaults {
		fcfg := cfg.Faults
		fcfg.Seed = cfg.Seed ^ 0xFA17 // derived, so Config.Seed reproduces everything
		st.inj = faultinject.New(fcfg)
		st.dev.SetFaultInjector(st.inj)
	}
	if err := st.mapAll(); err != nil {
		return nil, err
	}
	if st.log, err = wal.Create(st.walM); err != nil {
		return nil, err
	}
	if st.ptxHeap, err = ptx.Create(st.ptxM, ptxLogBytes); err != nil {
		return nil, err
	}
	if cfg.Corruption {
		st.scrub = scrub.New(st.clock, st.events, st.dev, st.mgr, scrub.Config{
			BandwidthShare: scrubShare,
		})
		st.scrub.Start()
	}
	if cfg.SagFraction > 0 {
		// Provision exactly enough effective energy for a budget-sized
		// flush (DoD and derating 1, so nameplate == effective).
		st.batt = battery.MustNew(battery.Config{
			CapacityJoules:   st.joulesFor(budgetPages),
			DepthOfDischarge: 1,
			Derating:         1,
		})
		// Safe shrink: drain to the projected coverage while the battery
		// still holds its current charge, so a crash landing anywhere in
		// the drain finds the dirty set covered by the energy actually
		// present. The crasher's fire hook counts the drain's nested
		// event steps, so crash points genuinely land mid-drain.
		health.FollowBattery(st.batt, st.mgr, nil, st.cover)
		st.sagEvent = st.events.Schedule(sim.Time(0).Add(sagAt), func(sim.Time) {
			_ = st.batt.SetCapacityJoules(st.batt.NameplateJoules() * cfg.SagFraction)
		})
	}
	return st, nil
}

// workload drives the YCSB-A-style mix: zipf-skewed 64–192 B updates and
// reads over the heap, a WAL append every 4th op, and a multi-slot ptx
// transaction every 16th op. It ends with a full flush (clean shutdown)
// so the baseline run leaves nothing dirty.
func (st *runState) workload() error {
	cfg := st.cfg
	rng := sim.NewRNG(cfg.Seed)
	zipf := dist.NewZipfian(rng.Fork(), heapPages, zipfTheta)
	opRNG := rng.Fork()
	valRNG := rng.Fork()
	buf := make([]byte, 192)

	for op := 0; op < cfg.Ops; op++ {
		page := zipf.Next()
		off := int64(page)*pageSize + opRNG.Int63n(pageSize-192)
		if opRNG.Float64() < readFraction {
			if err := st.heapM.ReadAt(buf[:64], off); err != nil {
				return err
			}
		} else {
			n := 64 + opRNG.Intn(129)
			for i := 0; i < n; i++ {
				buf[i] = byte(valRNG.Uint64())
			}
			if err := st.heapM.WriteAt(buf[:n], off); err != nil {
				return err
			}
		}
		if op%4 == 3 {
			rec := make([]byte, 24)
			binary.LittleEndian.PutUint64(rec[0:], uint64(op))
			binary.LittleEndian.PutUint64(rec[8:], valRNG.Uint64())
			binary.LittleEndian.PutUint64(rec[16:], uint64(len(st.walAttempted)))
			st.walAttempted = append(st.walAttempted, rec)
			if _, err := st.log.Append(rec); err != nil {
				return fmt.Errorf("wal append %d: %w", len(st.walAttempted)-1, err)
			}
			st.walCommitted++
		}
		if op%16 == 15 {
			val := st.ptxCommitted + 1
			err := st.ptxHeap.Update(func(tx *ptx.Tx) error {
				var cell [8]byte
				binary.LittleEndian.PutUint64(cell[:], val)
				for s := 0; s < ptxSlots; s++ {
					if err := tx.Write(cell[:], int64(s)*8); err != nil {
						return err
					}
				}
				return nil
			})
			if err != nil {
				return fmt.Errorf("ptx update %d: %w", val, err)
			}
			st.ptxCommitted = val
		}
		// Let background work (epoch ticks, IO completions) interleave,
		// and advance time so epochs actually elapse.
		st.clock.Advance(5 * sim.Microsecond)
		st.mgr.Pump()
	}
	st.mgr.FlushAll()
	return nil
}

// spikeAllowance is the injected latency one in-flight IO may carry
// into the flush: zero without fault injection.
func (c Config) spikeAllowance() sim.Duration {
	if !c.InjectFaults {
		return 0
	}
	return faultinject.SpikeDelay
}

// flushOverhead is the fixed flush-time allowance beyond the streaming
// transfer: completing in-flight IOs (each of which may carry an
// injected latency spike), per-IO latency, and scheduling slack.
func flushOverhead(dev *ssd.SSD, spike sim.Duration) sim.Duration {
	overhead := sim.Duration(dev.Config().MaxOutstanding+1) * dev.Config().PerIOLatency
	overhead += sim.Duration(dev.Config().MaxOutstanding) * spike
	overhead += sim.Millisecond // scheduling slack
	return overhead
}

// cover and joulesFor are the §5.1 pair, health.BudgetPages and its
// inverse, at this stack's device bandwidth and flush overhead: the dirty
// pages a battery holding joules can flush, and the energy a correct
// flush of pages dirty pages needs. A dirty set over joulesFor(n)'s n
// overruns that energy and fails the Survived check.
func (st *runState) cover(joules float64) int {
	return health.BudgetPages(power.Default(), joules, st.dev.EffectiveWriteBandwidth(),
		st.region.Size(), st.dev.Config().PageSize, flushOverhead(st.dev, st.cfg.spikeAllowance()))
}

func (st *runState) joulesFor(pages int) float64 {
	return health.JoulesForBudget(power.Default(), pages, st.dev.EffectiveWriteBandwidth(),
		st.region.Size(), st.dev.Config().PageSize, flushOverhead(st.dev, st.cfg.spikeAllowance()))
}

// failFunc records one violated invariant of the run being audited.
type failFunc func(format string, args ...any)

// auditCrash is the protocol at a power-failure instant, shared by every
// sweep and every crash depth: (1) the dirty set is within bound, the
// bound the battery is provisioned against; (2) flush — the
// battery-powered flush, on the energy the caller holds it to —
// completes within it; (3) after it the SSD is byte-equal to NV-DRAM.
// byteEqual is false only in corruption mode, where (3) cannot hold by
// construction and the caller audits for silent escapes instead.
func auditCrash(mgr *core.Manager, bound int, flush func() core.PowerFailReport, byteEqual bool, maxDirty *int, fail failFunc) {
	dirty := mgr.DirtyCount()
	if dirty > *maxDirty {
		*maxDirty = dirty
	}
	if dirty > bound {
		fail("dirty count %d exceeds effective budget %d at crash", dirty, bound)
	}
	report := flush()
	if !report.Survived {
		fail("flush of %d pages used %.3f J of %.3f J provisioned",
			report.DirtyAtFailure, report.EnergyUsedJoules, report.EnergyAvailableJoules)
	}
	if byteEqual {
		if err := mgr.VerifyDurability(); err != nil {
			fail("durability: %v", err)
		}
	}
}

// verifyCrash runs the full post-failure protocol on a crashed run and
// returns every violated invariant.
func verifyCrash(st *runState, step uint64, res *Result) []Violation {
	var out []Violation
	fail := func(format string, args ...any) {
		out = append(out, Violation{Step: step, Msg: fmt.Sprintf(format, args...)})
	}
	cfg := st.cfg

	// (1) The bound the battery is provisioned against is auditCrash's
	// first check. In sag mode the operative bound is the staged-drain
	// ratchet, and additionally the dirty set must be coverable by the
	// energy the battery actually holds at this instant — the
	// re-provisioning invariant, checked even (especially) when the crash
	// landed mid-drain.
	if st.mgr.Draining() {
		res.MidDrainCrashes++
	}
	if st.batt != nil {
		if dirty, coverable := st.mgr.DirtyCount(), st.cover(st.batt.EffectiveJoules()); dirty > coverable {
			fail("dirty count %d exceeds %d pages coverable by %.3f J effective",
				dirty, coverable, st.batt.EffectiveJoules())
		}
		if st.sagEvent != nil && st.sagEvent.Cancelled() {
			res.SaggedCrashes++
		}
	}

	// (2) Battery-powered flush within provisioned energy. Injected SSD
	// faults stop at the wall: the backup path is engineered to
	// complete (see ssd.SetFaultInjector), and in-flight IOs already
	// carry their fates. A scheduled sag stops at the wall too — the
	// battery does not age over the milliseconds the flush takes — so
	// the flush is charged against the energy present at the crash.
	if st.inj != nil {
		st.inj.Disable()
		if cfg.Corruption {
			ist := st.inj.Stats()
			res.CorruptionsInjected += ist.Lost + ist.Misdirected + ist.Rot
		}
	}
	if st.scrub != nil {
		st.scrub.Stop()
		sst := st.scrub.Stats()
		res.ScrubDetections += sst.Detections
		res.ScrubRepairs += sst.Repairs + sst.RepairKicks
	}
	joules := st.joulesFor(budgetPages)
	if st.batt != nil {
		st.events.Cancel(st.sagEvent)
		joules = st.batt.EffectiveJoules()
	}
	flush := func() core.PowerFailReport { return st.mgr.PowerFail(power.Default(), joules) }
	auditCrash(st.mgr, st.mgr.EffectiveDirtyBudget(), flush, !cfg.Corruption, &res.MaxDirtyAtCrash, fail)

	// (3) Post-flush SSD byte-equals NV-DRAM (auditCrash's last check).
	// In corruption mode the equality cannot hold — silent faults
	// corrupted durable copies on purpose — so the invariant becomes zero
	// *undetected* escapes: every durable page diverging from NV-DRAM
	// truth must fail checksum verification, and a page NV-DRAM has data
	// for but the SSD has no claim about must at least carry a
	// mismatching acked checksum (a fully lost first write).
	if cfg.Corruption {
		for p := 0; p < st.region.NumPages(); p++ {
			page := mmu.PageID(p)
			detected := st.dev.VerifyPage(page) != nil
			if err := st.region.CheckRestorable(st.dev, page); err != nil && !detected {
				res.SilentEscapes++
				fail("%v and passes verification (silent escape)", err)
			}
		}
	}

	// (4) The machine reboots the way System.RecoverWith does: a fresh
	// region, device and manager, every durable page verified on the
	// crashed device and reloaded by recovery.RestoreVerified. Every page
	// it did not quarantine must byte-match NV-DRAM truth at the crash. A
	// quarantine is honestly reported loss in corruption mode; anywhere
	// else nothing can corrupt a durable copy, so it is a violation. In
	// corruption mode a diverging page that was restored is the silent
	// escape this sweep exists to rule out.
	rb, err := boot(cfg)
	if err != nil {
		fail("reboot: %v", err)
		return out
	}
	defer rb.mgr.Close()
	rrep, err := recovery.RestoreVerified(rb.clock, rb.region, rb.dev, st.dev)
	if err != nil {
		fail("restore: %v", err)
		return out
	}
	quarantined := make(map[mmu.PageID]bool, len(rrep.Integrity.Quarantined))
	for _, p := range rrep.Integrity.Quarantined {
		quarantined[p] = true
	}
	if cfg.Corruption {
		res.RestoreQuarantines += len(rrep.Integrity.Quarantined)
	} else if len(quarantined) > 0 {
		fail("restore quarantined pages %v with no corruption injected", rrep.Integrity.Quarantined)
	}
	for p := 0; p < st.region.NumPages(); p++ {
		page := mmu.PageID(p)
		if quarantined[page] || bytes.Equal(st.region.RawPage(page), rb.region.RawPage(page)) {
			continue
		}
		if cfg.Corruption {
			res.SilentEscapes++
			fail("page %d: restored bytes diverge from NV-DRAM truth without detection (silent escape)", page)
		} else {
			fail("page %d: restored bytes diverge from NV-DRAM at the crash", page)
		}
	}

	// The application comes back up as it does after System.Recover: the
	// same mappings in the same order, then the log and the heap opened
	// on them.
	if err := rb.mapAll(); err != nil {
		fail("remap: %v", err)
		return out
	}

	// Quarantined pages overlapping the WAL or ptx mappings are honestly
	// reported loss: the affected completeness checks below are relaxed,
	// but mis-replay (divergent or fabricated records, torn transactions)
	// is never allowed.
	overlapsQuarantine := func(m *core.Mapping) bool {
		lo := mmu.PageID(m.Base() / pageSize)
		hi := mmu.PageID((m.Base() + m.Size() - 1) / pageSize)
		for p := lo; p <= hi; p++ {
			if quarantined[p] {
				return true
			}
		}
		return false
	}
	walLost := overlapsQuarantine(rb.walM)
	ptxLost := overlapsQuarantine(rb.ptxM)
	if walLost || ptxLost {
		res.ReportedLosses++
	}

	// (5) WAL replays to a consistent prefix: torn tails detected and
	// rejected, never mis-replayed (wal package checksums).
	var payloads [][]byte
	l, err := wal.Open(rb.walM)
	if err == nil {
		err = l.Replay(func(_ uint64, payload []byte) error {
			payloads = append(payloads, bytes.Clone(payload))
			return nil
		})
	}
	if err != nil {
		if !walLost {
			fail("wal open/replay: %v", err)
		}
	} else {
		if l.LastStop() == wal.StopTorn {
			res.TornTails++
		}
		if len(payloads) < st.walCommitted && !walLost {
			fail("wal lost committed records: replayed %d < committed %d", len(payloads), st.walCommitted)
		}
		if len(payloads) > len(st.walAttempted) {
			fail("wal replayed %d records, only %d ever appended", len(payloads), len(st.walAttempted))
		}
		for i, p := range payloads {
			if i >= len(st.walAttempted) {
				break
			}
			if string(p) != string(st.walAttempted[i]) {
				fail("wal record %d diverges from appended payload", i)
				break
			}
		}
	}

	// (6) The ptx heap reopens all-or-nothing. With a quarantined page
	// inside the ptx mapping the heap is reported lost — its zeroed pages
	// carry no trustworthy state to check against the shadow model.
	if ptxLost {
		return out
	}
	h, err := ptx.Open(rb.ptxM, ptxLogBytes)
	if err != nil {
		fail("ptx open: %v", err)
		return out
	}
	if h.RolledBack() {
		res.Rollbacks++
	}
	var cells [ptxSlots * 8]byte
	if err := h.View(func(tx *ptx.Tx) error { return tx.Read(cells[:], 0) }); err != nil {
		fail("ptx read: %v", err)
		return out
	}
	val := binary.LittleEndian.Uint64(cells[:])
	for s := 1; s < ptxSlots; s++ {
		if got := binary.LittleEndian.Uint64(cells[s*8:]); got != val {
			fail("ptx torn transaction: slot 0 = %d, slot %d = %d", val, s, got)
			return out
		}
	}
	if val != st.ptxCommitted && val != st.ptxCommitted+1 {
		fail("ptx recovered value %d, want %d (committed) or %d (commit raced crash)",
			val, st.ptxCommitted, st.ptxCommitted+1)
	}
	return out
}

// lattice is a sweep's crash-step schedule over a baseline of events
// (> 0) event steps. It returns the stride — the configured one, or one
// derived to spread about points crash points across the baseline — and
// the schedule: point i (≥ 1) arms at i×stride, and past the end of the
// baseline it wraps, offset by the pass number so later passes
// interleave the earlier lattice instead of repeating it.
func lattice(events, stride uint64, points int) (uint64, func(i int) (step uint64, wrapped bool)) {
	if stride == 0 {
		stride = max(events/uint64(points), 1)
	}
	return stride, func(i int) (uint64, bool) {
		step := uint64(i) * stride
		if step <= events {
			return step, false
		}
		return max(step%events+step/events, 1), true
	}
}

// count is one of a sweep's counts, named as its config field.
type count struct {
	name string
	n    int
}

// negativeCount returns an error naming the first negative count. A
// negative count wraps the crash lattice or sizes nothing, so the sweep
// would run no crash point and report nothing violated.
func negativeCount(counts ...count) error {
	for _, c := range counts {
		if c.n < 0 {
			return fmt.Errorf("crashsweep: %s %d is negative", c.name, c.n)
		}
	}
	return nil
}

// Run executes the sweep: one baseline run to size the step space, then
// one fresh run per crash point. A single-goroutine run replays exactly,
// so revisiting a step would learn nothing: the sweep ends where the
// lattice would wrap.
func Run(cfg Config) (Result, error) {
	var res Result
	if err := negativeCount(count{"Ops", cfg.Ops}, count{"MaxCrashPoints", cfg.MaxCrashPoints}); err != nil {
		return res, err
	}
	if !(cfg.SagFraction >= 0 && cfg.SagFraction < 1) {
		return res, fmt.Errorf("crashsweep: SagFraction %v outside [0,1)", cfg.SagFraction)
	}
	cfg = cfg.withDefaults()

	base, err := build(cfg)
	if err != nil {
		return res, err
	}
	if err := base.workload(); err != nil {
		return res, fmt.Errorf("crashsweep: baseline run: %w", err)
	}
	if n := base.mgr.DirtyCount(); n != 0 {
		return res, fmt.Errorf("crashsweep: baseline left %d dirty pages after flush", n)
	}
	res.BaselineEvents = base.events.Fired()
	base.mgr.Close()
	if res.BaselineEvents == 0 {
		return res, fmt.Errorf("crashsweep: baseline fired no events")
	}

	stride, at := lattice(res.BaselineEvents, cfg.Stride, cfg.MaxCrashPoints)
	res.Stride = stride

	for i := 1; res.CrashPoints+res.Completed < cfg.MaxCrashPoints; i++ {
		step, wrapped := at(i)
		if wrapped {
			break
		}
		st, err := build(cfg)
		if err != nil {
			return res, err
		}
		crasher := faultinject.NewCrasher(st.events)
		crasher.ArmAt(step)
		var runErr error
		cp, crashed := crasher.Run(func() { runErr = st.workload() })
		if !crashed {
			if runErr != nil {
				return res, fmt.Errorf("crashsweep: run armed at step %d: %w", step, runErr)
			}
			// The crash point landed past this run's end (event counts
			// can drift slightly once faults are injected): the run
			// completed as a clean shutdown instead.
			res.Completed++
			st.mgr.Close()
			continue
		}
		res.CrashPoints++
		crasher.Disarm()
		res.Violations = append(res.Violations, verifyCrash(st, cp.Step, &res)...)
	}
	return res, nil
}
