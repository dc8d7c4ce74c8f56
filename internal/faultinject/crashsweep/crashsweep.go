// Package crashsweep is the crash-point sweep harness: it runs a seeded
// YCSB-A-style workload over a Viyojit-managed region, power-fails it at
// every Nth event-queue step, and after each crash asserts the paper's
// durability invariants:
//
//  1. dirty count ≤ budget at the instant of failure (the Fig-6 bound
//     the battery is provisioned against);
//  2. the battery-powered flush completes within the provisioned energy;
//  3. post-flush SSD contents are byte-equal to NV-DRAM
//     (core.Manager.VerifyDurability);
//  4. a fresh region restored from the SSD matches it byte-for-byte
//     (recovery.VerifyRestored);
//  5. the write-ahead log replays to a consistent prefix of what was
//     appended — torn tails detected and rejected, never mis-replayed;
//  6. a ptx transactional heap reopens to an all-or-nothing state: a
//     transaction in flight at the crash is fully rolled back.
//
// Corruption mode (Config.Corruption) additionally injects silent
// faults — lost writes, misdirected writes, at-rest bit rot — and runs
// the background scrubber during the workload. Byte-equality between
// NV-DRAM and the SSD no longer holds by construction, so invariants 3
// and 4 are replaced by the detection guarantee: every diverging page
// must be caught by checksum verification (repaired by the scrubber or
// quarantined at restore), and no corrupt byte is ever restored or
// reported durable without detection — zero silent escapes.
//
// Every run is rebuilt from the same seed, so a failing crash point is
// identified by (Seed, Step) alone and replays exactly: the correctness
// regression tool later scaling and performance PRs run against.
package crashsweep

import (
	"bytes"
	"encoding/binary"
	"fmt"

	"viyojit/internal/battery"
	"viyojit/internal/core"
	"viyojit/internal/dist"
	"viyojit/internal/faultinject"
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
	// HeapPages is the size of the main write-target mapping; 0 selects
	// 96.
	HeapPages int
	// BudgetPages is the dirty budget; 0 selects HeapPages/4.
	BudgetPages int
	// Ops is the number of workload operations per run; 0 selects 600.
	Ops int
	// ReadFraction is the read share of the op mix; 0 selects 0.5
	// (YCSB-A's 50/50 read/update).
	ReadFraction float64
	// ZipfTheta is the key-popularity skew; 0 selects 0.99 (YCSB's
	// default).
	ZipfTheta float64
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
	// SagFraction, when non-zero, provisions a battery exactly covering
	// BudgetPages (plus the fixed flush overhead) and schedules a single
	// capacity step-down to this fraction of nameplate at SagAt. The
	// battery's safe-shrink hook drains the dirty set to the projected
	// coverage *before* the capacity drops, and every crash point —
	// including ones landing mid-drain — additionally asserts
	// dirty ≤ pages coverable by the battery's effective joules at the
	// crash instant, and runs the flush against that live energy.
	SagFraction float64
	// SagAt is the virtual time of the sag step; 0 (with SagFraction
	// set) selects 1.5 ms, roughly mid-run for the default workload.
	SagAt sim.Duration
	// Corruption enables the silent-corruption sweep mode: lost,
	// misdirected, and at-rest-rot faults are injected during the
	// workload (defaults below unless the Faults config sets its own
	// silent probabilities), a background scrubber repairs what it
	// catches, and the post-crash protocol changes from strict
	// byte-equality to zero *undetected* escapes — every page whose
	// durable or restored bytes diverge from NV-DRAM truth must have
	// been detected (repaired or quarantined), never silently restored.
	Corruption bool
	// ScrubShare is the background scrubber's read-bandwidth share in
	// corruption mode; 0 selects 0.2 (aggressive, so the short sweep
	// runs exercise the repair path, not just restore-time detection).
	ScrubShare float64
}

func (c Config) withDefaults() Config {
	if c.HeapPages == 0 {
		c.HeapPages = 96
	}
	if c.BudgetPages == 0 {
		c.BudgetPages = c.HeapPages / 4
	}
	if c.Ops == 0 {
		c.Ops = 600
	}
	if c.ReadFraction == 0 {
		c.ReadFraction = 0.5
	}
	if c.ZipfTheta == 0 {
		c.ZipfTheta = dist.ZipfianConstant
	}
	if c.MaxCrashPoints == 0 {
		c.MaxCrashPoints = 200
	}
	if c.SagFraction > 0 && c.SagAt == 0 {
		c.SagAt = 1500 * sim.Microsecond
	}
	if c.Corruption {
		if c.ScrubShare == 0 {
			c.ScrubShare = 0.2
		}
		c.InjectFaults = true
		if c.Faults.LostProb == 0 && c.Faults.MisdirectedProb == 0 && c.Faults.RotProb == 0 {
			c.Faults.LostProb = 0.02
			c.Faults.MisdirectedProb = 0.01
			c.Faults.RotProb = 0.05
		}
	}
	return c
}

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

// Result summarises a sweep.
type Result struct {
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
	// durability guarantee held at every crash point.
	Violations []Violation
	// TornTails counts crashes whose WAL replay detected (and rejected)
	// a torn tail record — evidence the detection path runs.
	TornTails int
	// Rollbacks counts crashes that reopened the ptx heap with an
	// in-flight transaction to roll back.
	Rollbacks int
	// MaxDirtyAtCrash is the largest dirty set observed at any crash
	// instant (always ≤ budget unless a violation was recorded).
	MaxDirtyAtCrash int
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

// runState is one freshly built system plus the workload's shadow model.
type runState struct {
	cfg    Config
	clock  *sim.Clock
	events *sim.Queue
	region *nvdram.Region
	dev    *ssd.SSD
	mgr    *core.Manager
	inj    *faultinject.Injector
	scrub  *scrub.Scrubber // corruption mode only

	// Sag mode (Config.SagFraction > 0): the provisioned battery, the
	// scheduled step-down event, and the joules→pages inverse of
	// flushEnergy used both to retune the budget and to verify coverage.
	batt     *battery.Battery
	sagEvent *sim.Event
	cover    func(joules float64) int

	heapM *core.Mapping
	walM  *core.Mapping
	ptxM  *core.Mapping

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
	st.clock = sim.NewClock()
	st.events = sim.NewQueue()
	regionPages := cfg.HeapPages + walBytes/pageSize + ptxBytes/pageSize
	var err error
	st.region, err = nvdram.New(st.clock, nvdram.Config{Size: int64(regionPages) * pageSize})
	if err != nil {
		return nil, err
	}
	st.dev = ssd.New(st.clock, st.events, cfg.SSD)
	if cfg.InjectFaults {
		fcfg := cfg.Faults
		fcfg.Seed = cfg.Seed ^ 0xFA17 // derived, so Config.Seed reproduces everything
		st.inj = faultinject.New(fcfg)
		st.dev.SetFaultInjector(st.inj)
	}
	st.mgr, err = core.NewManager(st.clock, st.events, st.region, st.dev, core.Config{
		DirtyBudgetPages: cfg.BudgetPages,
		Epoch:            cfg.Epoch,
		HardwareAssist:   cfg.HardwareAssist,
	})
	if err != nil {
		return nil, err
	}
	if st.heapM, err = st.mgr.Map("heap", int64(cfg.HeapPages)*pageSize); err != nil {
		return nil, err
	}
	if st.walM, err = st.mgr.Map("wal", walBytes); err != nil {
		return nil, err
	}
	if st.ptxM, err = st.mgr.Map("ptx", ptxBytes); err != nil {
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
			BandwidthShare: cfg.ScrubShare,
		})
		st.scrub.Start()
	}
	if cfg.SagFraction > 0 {
		pm := power.Default()
		dramBytes := st.region.Size()
		// Provision exactly enough effective energy for a budget-sized
		// flush (DoD and derating 1, so nameplate == effective).
		st.batt = battery.MustNew(battery.Config{
			CapacityJoules:   flushEnergy(cfg, st.dev, pm, dramBytes),
			DepthOfDischarge: 1,
			Derating:         1,
		})
		st.cover = func(j float64) int { return coverPages(cfg, st.dev, pm, dramBytes, j) }
		// Safe shrink: drain to the projected coverage while the battery
		// still holds its current charge, so a crash landing anywhere in
		// the drain finds the dirty set covered by the energy actually
		// present. The crasher's fire hook counts the drain's nested
		// event steps, so crash points genuinely land mid-drain.
		st.batt.OnShrink(func(_ *battery.Battery, projected float64) {
			pages := st.cover(projected)
			if pages < 1 {
				pages = 1
			}
			_ = st.mgr.SetDirtyBudgetSync(pages)
		})
		st.batt.OnChange(func(b *battery.Battery) {
			pages := st.cover(b.EffectiveJoules())
			if pages < 1 {
				pages = 1
			}
			_ = st.mgr.SetDirtyBudget(pages)
		})
		st.sagEvent = st.events.Schedule(sim.Time(0).Add(cfg.SagAt), func(sim.Time) {
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
	zipf := dist.NewZipfian(rng.Fork(), int64(cfg.HeapPages), cfg.ZipfTheta)
	opRNG := rng.Fork()
	valRNG := rng.Fork()
	buf := make([]byte, 192)

	for op := 0; op < cfg.Ops; op++ {
		page := zipf.Next()
		off := int64(page)*pageSize + opRNG.Int63n(pageSize-192)
		if opRNG.Float64() < cfg.ReadFraction {
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

// flushOverhead is the fixed flush-time allowance beyond the streaming
// transfer: completing in-flight IOs (which may carry injected latency
// spikes), per-IO latency, and scheduling slack.
func flushOverhead(cfg Config, dev *ssd.SSD) sim.Duration {
	overhead := sim.Duration(dev.Config().MaxOutstanding+1) * dev.Config().PerIOLatency
	if cfg.InjectFaults {
		spike := cfg.Faults.SpikeLatency
		if spike == 0 {
			spike = sim.Millisecond
		}
		overhead += sim.Duration(dev.Config().MaxOutstanding) * spike
	}
	overhead += sim.Millisecond // scheduling slack
	return overhead
}

// flushEnergy returns battery energy sufficient for a correct flush of
// at most budget dirty pages: the streaming transfer plus flushOverhead.
// A dirty set over budget overruns this energy and fails the Survived
// check.
func flushEnergy(cfg Config, dev *ssd.SSD, pm power.Model, dramBytes int64) float64 {
	secs := dev.FlushTimeFor(cfg.BudgetPages).Seconds() + flushOverhead(cfg, dev).Seconds()
	return pm.FlushWatts(dramBytes) * secs
}

// coverPages inverts flushEnergy: the number of dirty pages a battery
// holding joules can flush, after reserving the same fixed overhead. The
// tiny epsilon undoes float round-off so coverPages(flushEnergy(n)) == n.
func coverPages(cfg Config, dev *ssd.SSD, pm power.Model, dramBytes int64, joules float64) int {
	secs := joules/pm.FlushWatts(dramBytes) - flushOverhead(cfg, dev).Seconds()
	if secs <= 0 {
		return 0
	}
	return int(secs*float64(dev.EffectiveWriteBandwidth())/float64(dev.Config().PageSize) + 1e-9)
}

// verifyCrash runs the full post-failure protocol on a crashed run and
// returns every violated invariant.
func verifyCrash(st *runState, step uint64, res *Result) []Violation {
	var out []Violation
	fail := func(format string, args ...any) {
		out = append(out, Violation{Step: step, Msg: fmt.Sprintf(format, args...)})
	}
	cfg := st.cfg

	// (1) The bound the battery is provisioned against. In sag mode the
	// operative bound is the staged-drain ratchet, and additionally the
	// dirty set must be coverable by the energy the battery actually
	// holds at this instant — the re-provisioning invariant, checked
	// even (especially) when the crash landed mid-drain.
	dirty, budget := st.mgr.DirtyCount(), st.mgr.EffectiveDirtyBudget()
	if dirty > res.MaxDirtyAtCrash {
		res.MaxDirtyAtCrash = dirty
	}
	if dirty > budget {
		fail("dirty count %d exceeds effective budget %d at crash", dirty, budget)
	}
	if st.mgr.Draining() {
		res.MidDrainCrashes++
	}
	if st.batt != nil {
		if coverable := st.cover(st.batt.EffectiveJoules()); dirty > coverable {
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
	pm := power.Default()
	joules := flushEnergy(cfg, st.dev, pm, st.region.Size())
	if st.batt != nil {
		st.events.Cancel(st.sagEvent)
		joules = st.batt.EffectiveJoules()
	}
	report := st.mgr.PowerFail(pm, joules)
	if !report.Survived {
		fail("flush of %d pages used %.3f J of %.3f J provisioned",
			report.DirtyAtFailure, report.EnergyUsedJoules, report.EnergyAvailableJoules)
	}

	// (3) Post-flush SSD byte-equals NV-DRAM. In corruption mode the
	// equality cannot hold — silent faults corrupted durable copies on
	// purpose — so the invariant becomes zero *undetected* escapes: every
	// durable page diverging from NV-DRAM truth must fail checksum
	// verification, and a page NV-DRAM has data for but the SSD has no
	// claim about must at least carry a mismatching acked checksum (a
	// fully lost first write).
	if cfg.Corruption {
		for p := 0; p < st.region.NumPages(); p++ {
			page := mmu.PageID(p)
			detected := st.dev.VerifyPage(page) != nil
			if err := st.dev.CheckRestorable(page, st.region.RawPage(page)); err != nil && !detected {
				res.SilentEscapes++
				fail("%v and passes verification (silent escape)", err)
			}
		}
	} else if err := st.mgr.VerifyDurability(); err != nil {
		fail("durability: %v", err)
	}

	// (4) A rebooted region restored from the SSD matches it. The restore
	// path is always checksum-verified; in corruption mode corrupt pages
	// must land in quarantine (reported loss) and every page that was
	// restored must byte-match NV-DRAM truth at the crash — corrupt bytes
	// handed back as good data are the silent escape this sweep exists to
	// rule out.
	rclock := sim.NewClock()
	restored, rrep, err := recovery.RestoreRegion(rclock, st.dev, nvdram.Config{Size: st.region.Size()})
	if err != nil {
		fail("restore: %v", err)
		return out
	}
	quarantined := make(map[mmu.PageID]bool, len(rrep.Integrity.Quarantined))
	if cfg.Corruption {
		res.RestoreQuarantines += len(rrep.Integrity.Quarantined)
		for _, p := range rrep.Integrity.Quarantined {
			quarantined[p] = true
		}
		if err := recovery.VerifyRestoredWith(restored, st.dev, rrep.Integrity); err != nil {
			fail("restored region: %v", err)
		}
		for p := 0; p < st.region.NumPages(); p++ {
			page := mmu.PageID(p)
			if quarantined[page] {
				continue
			}
			if !bytes.Equal(st.region.RawPage(page), restored.RawPage(page)) {
				res.SilentEscapes++
				fail("page %d: restored bytes diverge from NV-DRAM truth without detection (silent escape)", page)
			}
		}
	} else if err := recovery.VerifyRestored(restored, st.dev); err != nil {
		fail("restored region: %v", err)
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
	walLost := overlapsQuarantine(st.walM)
	ptxLost := overlapsQuarantine(st.ptxM)
	if walLost || ptxLost {
		res.ReportedLosses++
	}

	// (5) WAL replays to a consistent prefix.
	payloads, torn, err := recovery.RestoredWAL(restored, st.walM.Base(), st.walM.Size())
	if err != nil {
		if !walLost {
			fail("wal open/replay: %v", err)
		}
	} else {
		if torn {
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
	win := regionWindow{region: restored, base: st.ptxM.Base(), size: st.ptxM.Size()}
	before, _ := undoRecords(win)
	h, err := ptx.Open(win, ptxLogBytes)
	if err != nil {
		fail("ptx open: %v", err)
		return out
	}
	if before > 0 {
		res.Rollbacks++
	}
	var cell [8]byte
	if err := h.View(func(tx *ptx.Tx) error { return tx.Read(cell[:], 0) }); err != nil {
		fail("ptx read: %v", err)
		return out
	}
	val := binary.LittleEndian.Uint64(cell[:])
	for s := 1; s < ptxSlots; s++ {
		var other [8]byte
		if err := h.View(func(tx *ptx.Tx) error { return tx.Read(other[:], int64(s)*8) }); err != nil {
			fail("ptx read slot %d: %v", s, err)
			return out
		}
		if got := binary.LittleEndian.Uint64(other[:]); got != val {
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

// undoRecords counts committed records in a ptx undo log without
// mutating it (a fresh Log over a read path would roll back; this just
// peeks at the record count via a throwaway Open on a copy-free window —
// wal.Open does not write).
func undoRecords(win regionWindow) (int, error) {
	l, err := wal.Open(regionWindow{region: win.region, base: win.base, size: ptxLogBytes})
	if err != nil {
		return 0, err
	}
	return l.Records()
}

// regionWindow adapts a byte range of a region to the Store surfaces the
// wal and ptx packages consume.
type regionWindow struct {
	region *nvdram.Region
	base   int64
	size   int64
}

func (w regionWindow) ReadAt(p []byte, off int64) error  { return w.region.ReadAt(p, w.base+off) }
func (w regionWindow) WriteAt(p []byte, off int64) error { return w.region.WriteAt(p, w.base+off) }
func (w regionWindow) Size() int64                       { return w.size }

// Run executes the sweep: one baseline run to size the step space, then
// one fresh run per crash point.
func Run(cfg Config) (Result, error) {
	cfg = cfg.withDefaults()
	var res Result

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

	stride := cfg.Stride
	if stride == 0 {
		stride = res.BaselineEvents / uint64(cfg.MaxCrashPoints)
		if stride == 0 {
			stride = 1
		}
	}
	res.Stride = stride

	for step := stride; step <= res.BaselineEvents && res.CrashPoints+res.Completed < cfg.MaxCrashPoints; step += stride {
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
