// Package core implements the paper's primary contribution: the Viyojit
// manager, which presents battery-backed DRAM whose full capacity is
// durable while only a bounded number of pages — the dirty budget derived
// from the provisioned battery — is ever dirty.
//
// The mechanism follows §5 of the paper:
//
//  1. At startup every NV-DRAM page is write-protected.
//  2. A write to a protected page traps; the fault handler counts the page
//     into the dirty set and unprotects it so subsequent writes proceed at
//     DRAM speed.
//  3. If the dirty set is at the budget, the handler first cleans a victim
//     (re-protect → copy to SSD → remove from the dirty set) before
//     admitting the new page, so the bound holds at every instant. The
//     write waits for that one page; the handler also runs step 4's
//     proactive copier, since a budget hit means its estimate was low.
//     That is the fallback: an admission that brings the set within
//     wakeAhead pages of the budget — the pages a writer can admit while
//     one clean is on the wire — runs the copier too, without waiting, so
//     a steady writer finds the headroom restored before it needs it.
//  4. An epoch timer (1 ms default) walks the page table, reading and
//     clearing hardware dirty bits (flushing the TLB first so the bits are
//     fresh), maintains a 64-epoch per-page update history, estimates the
//     dirty-page pressure with an exponentially decaying average, and
//     proactively cleans least-recently-updated pages down to
//     budget − pressure (the low-water mark; step 3's wake level is the
//     high-water mark) so bursts don't block on the SSD.
package core

import (
	"fmt"
	"math"

	"viyojit/internal/mmu"
	"viyojit/internal/nvdram"
	"viyojit/internal/obs"
	"viyojit/internal/sim"
	"viyojit/internal/ssd"
)

// Config tunes the manager. The zero value of optional fields selects the
// paper's settings.
type Config struct {
	// DirtyBudgetPages is the hard bound on simultaneously dirty pages.
	// It must be at least 1. Derive it from a battery with
	// health.BudgetPages.
	DirtyBudgetPages int
	// Epoch is the dirty-bit scan period; 0 selects 1 ms (paper §6.1).
	Epoch sim.Duration
	// EWMAWeight is the weight on the current epoch's new-dirty count in
	// the pressure estimate; 0 selects 0.75 (paper §5.3).
	EWMAWeight float64
	// TLBFlushOnScan controls whether epoch scans flush the TLB for
	// precise dirty bits. The paper's system does (§5.2); disabling it is
	// the §6.3 ablation. Use the DisableTLBFlush field to turn it off.
	DisableTLBFlush bool
	// Policy selects victims for cleaning; nil selects LRUUpdate.
	Policy VictimPolicy
	// HardwareAssist selects the §5.4 MMU-offload design: no page is
	// ever write-protected; instead the MMU signals the manager when a
	// write sets a clear dirty bit, so the common-case first write to a
	// page carries no trap cost. Only the at-budget case pays an
	// interrupt (the store stalls until a victim is cleaned). The paper
	// proposes this to eradicate the software implementation's tail
	// latency; the ablation benchmarks compare both modes.
	HardwareAssist bool
	// CleanRetryBackoff is the delay before resubmitting a clean whose
	// SSD write failed; it doubles per consecutive failure of the same
	// page, capped at cleanRetryMax. 0 selects 100 µs.
	CleanRetryBackoff sim.Duration
	// DegradeAfterErrors is the number of consecutive failed cleans
	// after which the manager enters the Degraded rung of the health
	// ladder: the epoch task's effective cleaning threshold is halved
	// (extra dirty-set headroom while the SSD is unreliable). 0
	// selects 3.
	DegradeAfterErrors int
	// HealAfterCleans is the number of consecutive successful cleans
	// that exits degraded mode — the fast heal path for a busy system.
	// 0 selects 8.
	HealAfterCleans int
	// HealAfterQuiet is the hysteresis window for the time-based heal
	// path: a degraded manager returns to Healthy once this much
	// virtual time has passed since the last clean error, checked on
	// epoch ticks. It exists so a mostly-idle system — too few cleans
	// to ever accumulate HealAfterCleans successes — still heals. 0
	// selects 20 ms.
	HealAfterQuiet sim.Duration
	// EmergencyMaxAttempts is the number of write attempts each dirty
	// page gets per emergency-flush drain round before the drain gives
	// up on it (the health monitor escalates to ReadOnly when drains
	// keep failing). 0 selects 3.
	EmergencyMaxAttempts int
	// Obs is the observability registry the manager publishes its
	// counters, gauges, histograms, and clean spans onto. nil creates a
	// private registry so Stats() always works; pass the system-wide
	// registry (viyojit.System does) to aggregate across subsystems.
	Obs *obs.Registry
}

func (c Config) withDefaults() Config {
	if c.Epoch == 0 {
		c.Epoch = sim.Millisecond
	}
	if c.EWMAWeight == 0 {
		c.EWMAWeight = 0.75
	}
	if c.Policy == nil {
		c.Policy = LRUUpdate{}
	}
	if c.CleanRetryBackoff == 0 {
		c.CleanRetryBackoff = 100 * sim.Microsecond
	}
	if c.DegradeAfterErrors == 0 {
		c.DegradeAfterErrors = 3
	}
	if c.HealAfterCleans == 0 {
		c.HealAfterCleans = 8
	}
	if c.HealAfterQuiet == 0 {
		c.HealAfterQuiet = 20 * sim.Millisecond
	}
	if c.EmergencyMaxAttempts == 0 {
		c.EmergencyMaxAttempts = 3
	}
	return c
}

// Stats counts manager activity since construction.
type Stats struct {
	Faults           uint64 // write-protection traps taken
	PagesDirtied     uint64 // admissions to the dirty set
	ForcedCleans     uint64 // budget hits: a write blocked until one clean completed
	ProactiveCleans  uint64 // background cleans started by the proactive copier, whoever woke it
	CopierWakesTick  uint64 // copier runs that started a clean, woken by the epoch tick
	CopierWakesAhead uint64 // ... by an admission within wakeAhead pages of the budget
	CopierWakesHit   uint64 // ... by a budget hit, before the write blocked
	UnmapCleans      uint64 // cleans forced by Unmap
	RetuneCleans     uint64 // cleans forced by a budget decrease
	CleansCompleted  uint64 // SSD write-backs that finished
	CleanErrors      uint64 // SSD write-backs that failed (transient or torn)
	CleanRetries     uint64 // failed cleans resubmitted after backoff
	DegradedEnters   uint64 // transitions into SSD-degraded mode
	DegradedEpochs   uint64 // epoch ticks run while degraded
	RepairRedirties  uint64 // clean pages re-dirtied to repair SSD corruption
	RepairCleans     uint64 // cleans kicked early on already-dirty corrupt pages
	EmergencyEnters  uint64 // transitions into EmergencyFlush
	EmergencyCleans  uint64 // cleans submitted by emergency drains
	ReadOnlyEnters   uint64 // transitions into ReadOnly
	Resumes          uint64 // de-escalations back down the ladder
	WritesBlocked    uint64 // faults rejected while writes were blocked
	BudgetGrows      uint64 // retunes that raised (or kept) the budget
	BudgetShrinks    uint64 // retunes that started a staged drain
	DrainsCompleted  uint64 // staged drains that reached their target
	Epochs           uint64
	SkippedEpochs    uint64 // reentrant ticks skipped under overload
	MaxDirtyObserved int
	FaultWaitTotal   sim.Duration // time fault handlers spent waiting on cleans
}

// Manager is the Viyojit dirty-budget manager for one NV-DRAM region. It
// is not safe for concurrent use; the simulation is single-goroutine.
type Manager struct {
	clock  *sim.Clock
	events *sim.Queue
	region *nvdram.Region
	dev    *ssd.SSD
	cfg    Config

	// budget is the target dirty-page bound. During a staged shrink
	// (draining true) the operative bound is drainBound, a monotone
	// ratchet that starts at the dirty level the previous budget
	// covered and follows the set down to budget; see SetDirtyBudget.
	budget     int
	draining   bool
	drainBound int
	// wakePages is how many pages a writer can admit, one trap each,
	// while one clean is on the wire; see wakeAhead.
	wakePages int

	// dirty holds every page whose latest contents are not yet durable,
	// including pages re-protected and in flight to the SSD. Its size is
	// the quantity the battery must cover and never exceeds the
	// effective budget.
	dirty    dirtySet
	dirtySeq uint64
	// inflight counts the dirty entries with cleaning set — SSD
	// write-backs on the wire. It moves in setCleaning and when a clean's
	// success removes its page, so nothing walks the dirty set to know it.
	inflight int
	// cleans holds the clean records not in flight (newClean).
	cleans []*clean

	// victims orders this epoch's clean candidates — the not-in-flight
	// dirty pages as of the last tick — on demand, in place; candidates no
	// longer eligible are skipped as they come out.
	victims *victimSelector

	newDirtyThisEpoch int
	pressure          float64
	inEpoch           bool
	closed            bool

	// SSD health tracking: the degradation ladder (ladder.go) plus the
	// streak counters that drive its bottom two rungs.
	state         HealthState
	errorStreak   int      // consecutive failed cleans
	healthyStreak int      // consecutive successful cleans since last error
	lastErrorAt   sim.Time // when the last clean error completed (time-based heal)

	epochEvent *sim.Event
	epochFn    func(sim.Time) // m.epochTick, bound once
	scanBuf    []int          // indices of the members the last scan saw written

	// mmap-like allocator state (mapping.go).
	mappings  []*Mapping
	free      []freeRange
	allocInit bool

	// st holds the registry-backed atomic counters/gauges/histograms
	// (instruments.go); tr records clean operations as trace spans.
	st *instruments
	tr *obs.Tracer
}

// cleanRetryMax caps the per-page clean retry backoff.
const cleanRetryMax = 10 * sim.Millisecond

// NewManager wires a manager onto a region and backing device sharing one
// clock and event queue, write-protects every page (paper step 1), and
// starts the epoch task.
func NewManager(clock *sim.Clock, events *sim.Queue, region *nvdram.Region, dev *ssd.SSD, cfg Config) (*Manager, error) {
	cfg = cfg.withDefaults()
	if cfg.DirtyBudgetPages < 1 {
		return nil, fmt.Errorf("core: dirty budget %d pages; need at least 1", cfg.DirtyBudgetPages)
	}
	if dev.Config().PageSize != region.PageSize() {
		return nil, fmt.Errorf("core: SSD page size %d != region page size %d", dev.Config().PageSize, region.PageSize())
	}
	if cfg.EWMAWeight < 0 || cfg.EWMAWeight > 1 {
		return nil, fmt.Errorf("core: EWMA weight %v outside [0,1]", cfg.EWMAWeight)
	}
	reg := cfg.Obs
	if reg == nil {
		reg = obs.NewRegistry()
	}
	m := &Manager{
		clock:     clock,
		events:    events,
		region:    region,
		dev:       dev,
		cfg:       cfg,
		budget:    cfg.DirtyBudgetPages,
		wakePages: WakePages(dev, region.PageTable().Costs().Trap),
		dirty:     newDirtySet(region.NumPages()),
		victims:   newVictimSelector(cfg.Policy),
		st:        newInstruments(reg),
		tr:        reg.Tracer(),
	}
	m.noteBudgetLevel()
	pt := region.PageTable()
	if cfg.HardwareAssist {
		// §5.4: the MMU counts dirty transitions itself; no protection,
		// no startup cost, no first-write traps.
		pt.SetDirtyNotifier(m.handleDirtyNotify)
	} else {
		pt.SetFaultHandler(m.handleFault)
		for p := 0; p < region.NumPages(); p++ {
			pt.Protect(mmu.PageID(p))
		}
	}
	m.scheduleEpoch()
	return m, nil
}

// Region returns the managed NV-DRAM region.
func (m *Manager) Region() *nvdram.Region { return m.region }

// SSD returns the backing device.
func (m *Manager) SSD() *ssd.SSD { return m.dev }

// Config returns the effective configuration.
func (m *Manager) Config() Config { return m.cfg }

// DirtyCount returns the current size of the dirty set (including pages
// in flight to the SSD, whose latest contents are not yet durable).
func (m *Manager) DirtyCount() int { return m.dirty.len() }

// DirtyBudget returns the current budget in pages.
func (m *Manager) DirtyBudget() int { return m.budget }

// Pressure returns the current dirty-page-pressure estimate (expected new
// dirty pages next epoch).
func (m *Manager) Pressure() float64 { return m.pressure }

// Pump delivers any events due at or before the current virtual time
// (epoch ticks, IO completions). Workload drivers call it after each
// operation so background activity interleaves with foreground work.
func (m *Manager) Pump() { m.events.RunUntil(m.clock, m.clock.Now()) }

// Close stops the epoch task and waits for in-flight cleans to complete.
// The dirty set is left as is: Close models detaching the manager, not a
// clean shutdown (use FlushAll for that).
func (m *Manager) Close() {
	if m.closed {
		return
	}
	m.closed = true
	m.events.Cancel(m.epochEvent)
	m.dev.WaitIdle()
}

// scheduleEpoch arms the first epoch tick.
func (m *Manager) scheduleEpoch() {
	m.epochFn = m.epochTick
	m.epochEvent = m.events.Schedule(m.clock.Now().Add(m.cfg.Epoch), m.epochFn)
}

// scheduleNextEpoch arms the tick after the one scheduled for at, from
// inside it: its event (and the bound method value) is used again, so a
// tick allocates nothing. Ticks chain off their *scheduled* time, so a
// tick that fires late — the operation that was running ran past it —
// does not stretch the period. But when the successor's own time has
// already passed — the clock moved more than a period with no event
// pumped, as across a restore — the chain restarts one period from now:
// a periodic timer does not replay the periods it missed, and each replay
// would charge a TLB flush to scan a dirty set nothing has touched.
func (m *Manager) scheduleNextEpoch(at sim.Time) {
	next := at.Add(m.cfg.Epoch)
	if now := m.clock.Now(); next < now {
		next = now.Add(m.cfg.Epoch)
	}
	m.events.Rearm(m.epochEvent, next, m.epochFn)
}

// handleFault is the write-protection fault handler (flowchart steps 3–8).
func (m *Manager) handleFault(page mmu.PageID) {
	m.st.faults.Inc()
	if m.writesBlocked() {
		// EmergencyFlush/ReadOnly: leave the page protected so the MMU
		// reports the write as failed to the caller (mmu.ErrProtected).
		m.st.writesBlocked.Inc()
		return
	}
	waitStart := m.clock.Now()

	// A fault on a page that is mid-clean means the application wrote to
	// a page whose SSD copy-out is in flight. The page was re-protected
	// before the copy started precisely so this write traps (paper §5.1);
	// wait for the IO to complete, after which the page is clean and the
	// fault proceeds as a fresh dirtying.
	if dp := m.dirty.get(page); dp != nil {
		if !dp.cleaning {
			// The page is dirty and unprotected; a fault here means the
			// protection state and dirty set disagree.
			panic(fmt.Sprintf("core: fault on dirty, unprotected page %d", page))
		}
		seq := dp.seq
		for {
			cur := m.dirty.live(page, seq)
			if cur == nil {
				break
			}
			if !cur.cleaning {
				// The in-flight clean failed: the completion handler
				// un-protected the page and left it in the dirty set, so
				// the blocked write proceeds on the existing entry at no
				// further cost (the retry will re-snapshot it later).
				m.noteFaultWait(m.clock.Now().Sub(waitStart))
				return
			}
			if !m.events.Step(m.clock) {
				panic("core: waiting for in-flight clean with no pending events")
			}
		}
	}

	// Enforce the budget: admitting this page must not exceed the
	// effective bound. During a staged shrink every clean also lowers
	// the drain ratchet, so a fault taken mid-drain pays for the whole
	// remaining drain — the backpressure that lets the transition make
	// progress against a sustained write burst.
	//
	// A budget hit also means this epoch's pressure estimate was too low
	// and the wake level below did not catch it (a burst faster than one
	// admission per trap, a full device queue, a tiny budget), so the
	// handler wakes the proactive copier before it blocks: the write
	// resumes after one completion, the rest of the burst lands in the
	// background and the next ≈ pressure admissions find headroom.
	for m.dirty.len() >= m.effectiveBudget() {
		m.st.forcedCleans.Inc()
		m.cleanToThreshold(m.st.wakesHit)
		if !m.cleanOneSync() {
			panic(fmt.Sprintf("core: dirty set %d at budget %d with no cleanable victim", m.dirty.len(), m.effectiveBudget()))
		}
	}
	m.noteFaultWait(m.clock.Now().Sub(waitStart))
	m.wakeCopierAhead()

	// Admit the page (step 8): unprotect, count, record. Update recency
	// is NOT marked here: the paper's system learns recency only from
	// the epoch walks (§5.2), and the post-fault write sets the PTE
	// dirty bit that the next walk observes. (This is also what makes
	// the §6.3 TLB ablation bite: without flushes the walk misses
	// re-updates and hot pages look cold.)
	m.region.PageTable().Unprotect(page)
	m.admit(page)
	m.newDirtyThisEpoch++
	m.st.pagesDirtied.Inc()
	m.noteDirtyLevel()
	m.checkInvariant()
}

// admit enters page into the dirty set under the next sequence number.
func (m *Manager) admit(page mmu.PageID) {
	m.dirtySeq++
	m.dirty.add(page, m.dirtySeq)
}

// handleDirtyNotify is the §5.4 hardware path: the MMU signals that a
// write set a clear dirty bit. The store is modelled as stalling until
// this handler returns, so budget enforcement here is as strict as the
// software fault path — but the common case (budget slack available) is
// nearly free.
func (m *Manager) handleDirtyNotify(page mmu.PageID) {
	if dp := m.dirty.get(page); dp != nil {
		// Already tracked. A notification for a tracked page means its
		// dirty bit had been cleared — by an epoch scan (nothing to do)
		// or by an in-progress clean's snapshot (the copy is stale).
		if dp.cleaning {
			dp.rewritten = true
		}
		return
	}
	waitStart := m.clock.Now()
	for m.dirty.len() >= m.effectiveBudget() {
		// The at-budget case pays the interrupt the §5.4 MMU raises.
		m.st.faults.Inc()
		m.clock.Advance(hwInterruptCost)
		m.st.forcedCleans.Inc()
		m.cleanToThreshold(m.st.wakesHit)
		if !m.cleanOneSync() {
			panic(fmt.Sprintf("core: dirty set %d at budget %d with no cleanable victim", m.dirty.len(), m.effectiveBudget()))
		}
	}
	m.noteFaultWait(m.clock.Now().Sub(waitStart))
	m.wakeCopierAhead()

	m.admit(page)
	m.newDirtyThisEpoch++
	m.st.pagesDirtied.Inc()
	m.noteDirtyLevel()
	m.checkInvariant()
}

// hwInterruptCost is the price of the §5.4 at-budget interrupt: cheaper
// than a full write-protection trap (no protection change, no TLB
// invalidation, no retry) but not free.
const hwInterruptCost = 2 * sim.Microsecond

// nextVictim returns the next eligible victim page in policy order, or
// false if none is eligible (all dirty pages already cleaning).
func (m *Manager) nextVictim() (mmu.PageID, bool) {
	for collected := false; ; collected = true {
		for {
			cand, ok := m.victims.pop(&m.dirty.members)
			if !ok {
				break
			}
			if dp := m.dirty.live(cand.Page, cand.DirtiedSeq); dp != nil && !dp.cleaning {
				return cand.Page, true
			}
		}
		if collected {
			return 0, false
		}
		// Candidates exhausted (or stale mid-epoch): collect again from
		// the live dirty set so the fault path can always find a victim.
		m.victims.collect(m.dirtySeq)
	}
}

// startClean re-protects page and submits its contents to the SSD. The
// page stays in the dirty set (its latest contents are not durable) until
// the IO completes. A full device queue stalls the submission, which
// pumps events: callers re-read manager state afterwards.
func (m *Manager) startClean(page mmu.PageID) {
	dp := m.dirty.get(page)
	seq := dp.seq
	m.setCleaning(dp, true)
	pt := m.region.PageTable()
	if m.cfg.HardwareAssist {
		// §5.4: no protection exists. Clear the dirty bit (re-arming the
		// MMU's transition signal) so a write after this snapshot marks
		// the entry rewritten and the completion below keeps it dirty.
		pt.ClearDirty(page)
	} else {
		// Re-protect BEFORE copying so a concurrent write cannot slip
		// into the copied image and then be lost when the page is marked
		// clean (paper §5.1 step 6).
		pt.Protect(page)
	}
	// The copy into a device buffer is the submission snapshot; the
	// device takes it over.
	snap := m.dev.PageBuffer()
	m.region.CopyPage(page, snap)
	c := m.newClean()
	c.page, c.seq, c.sp = page, seq, m.tr.Begin("core.clean", m.clock.Now())
	m.dev.WriteSnapshotAsync(page, snap, c.done)
}

// clean is one clean in flight: what its completion needs. Records are
// reused (Manager.cleans), each with its completion bound once, so
// starting a clean allocates nothing once the pool holds a record per
// clean in flight.
type clean struct {
	m    *Manager
	page mmu.PageID
	seq  uint64
	sp   obs.Span
	done func(sim.Time, error) // c.complete, bound once
}

// newClean takes a clean record from the pool, or makes one.
func (m *Manager) newClean() *clean {
	if n := len(m.cleans); n > 0 {
		c := m.cleans[n-1]
		m.cleans = m.cleans[:n-1]
		return c
	}
	c := &clean{m: m}
	c.done = c.complete
	return c
}

// complete is a clean's SSD completion. The record goes back to the pool
// first, so a clean started from here can reuse it.
func (c *clean) complete(at sim.Time, err error) {
	m, page, seq, sp := c.m, c.page, c.seq, c.sp
	m.cleans = append(m.cleans, c)
	pt := m.region.PageTable()
	// If the entry was replaced (page re-dirtied after a waiter saw
	// this clean complete), leave the new entry alone.
	dp := m.dirty.live(page, seq)
	if err != nil {
		// The write failed (transient error or torn program): the
		// page's latest contents are NOT durable, so it must stay in
		// the dirty set. Return it to the plain dirty state — in
		// software mode that means unprotecting again, restoring the
		// "dirty ∧ ¬cleaning ⇒ unprotected" invariant — and resubmit
		// after an exponential backoff.
		m.st.cleanErrors.Inc()
		m.tr.Finish(sp, at, "error")
		m.noteCleanError(at)
		if dp == nil {
			return
		}
		m.setCleaning(dp, false)
		dp.rewritten = false
		dp.attempts++
		if m.writesBlocked() {
			// Emergency drain: keep the page protected (writes stay
			// blocked) and let the drain loop manage attempts; the
			// auto-retry would defeat its attempt bound.
			return
		}
		if !m.cfg.HardwareAssist {
			pt.Unprotect(page)
		}
		if !m.closed {
			m.scheduleCleanRetry(page, seq, at.Add(m.retryBackoff(dp.attempts)))
		}
		return
	}
	m.st.cleansCompleted.Inc()
	m.st.cleanLatency.Record(at.Sub(sp.Start))
	m.tr.Finish(sp, at, "ok")
	m.noteCleanSuccess()
	if dp == nil {
		return
	}
	dp.attempts = 0
	if dp.rewritten {
		// Hardware assist: the page was written after the snapshot;
		// the durable copy is stale, so the page stays dirty and
		// becomes cleanable again.
		m.setCleaning(dp, false)
		dp.rewritten = false
		return
	}
	// The snapshot's contents are now durable; removal ends the clean.
	m.inflight--
	m.dirty.remove(page)
	pt.ClearDirty(page)
	m.noteDirtyLevel()
	m.noteDrainProgress()
}

// retryBackoff returns the delay before the attempts-th resubmission of
// a failed clean: exponential from CleanRetryBackoff, capped at
// cleanRetryMax.
func (m *Manager) retryBackoff(attempts int) sim.Duration {
	d := m.cfg.CleanRetryBackoff
	for i := 1; i < attempts && d < cleanRetryMax; i++ {
		d *= 2
	}
	return min(d, cleanRetryMax)
}

// scheduleCleanRetry arms a resubmission of page's clean at the given
// time. The retry is skipped if by then the manager closed, the page
// left the dirty set, its entry was replaced, or another path (forced
// clean, Unmap, epoch task) already restarted the clean.
func (m *Manager) scheduleCleanRetry(page mmu.PageID, seq uint64, at sim.Time) {
	m.events.Schedule(at, func(sim.Time) {
		if m.closed {
			return
		}
		if dp := m.dirty.live(page, seq); dp == nil || dp.cleaning {
			return
		}
		m.st.cleanRetries.Inc()
		m.startClean(page)
	})
}

// noteCleanError advances the SSD health tracker after a failed clean,
// entering the Degraded rung once the consecutive-error threshold is hit.
// Escalation beyond Degraded is the health monitor's decision, never
// automatic.
func (m *Manager) noteCleanError(at sim.Time) {
	m.healthyStreak = 0
	m.errorStreak++
	m.lastErrorAt = at
	if m.state == StateHealthy && m.errorStreak >= m.cfg.DegradeAfterErrors {
		m.setState(StateDegraded)
		m.st.degradedEnters.Inc()
	}
}

// noteCleanSuccess advances the health tracker after a successful clean,
// leaving degraded mode after a long enough healthy streak (the
// time-based heal path runs on epoch ticks; see epochTick).
func (m *Manager) noteCleanSuccess() {
	m.errorStreak = 0
	if m.state != StateDegraded {
		return
	}
	m.healthyStreak++
	if m.healthyStreak >= m.cfg.HealAfterCleans {
		m.setState(StateHealthy)
		m.healthyStreak = 0
	}
}

// ErrorStreak returns the current run of consecutive failed cleans — the
// signal the health monitor escalates on.
func (m *Manager) ErrorStreak() int { return m.errorStreak }

// cleanOneSync cleans one victim synchronously: it virtually blocks until
// the dirty set shrinks, (re)starting cleans as needed. Re-selection
// matters in hardware-assist mode: an in-flight clean of a page that was
// rewritten after its snapshot completes WITHOUT shrinking the dirty set,
// so the victim must be picked again (now with fresh contents). Returns
// false if no victim is eligible and nothing is in flight.
func (m *Manager) cleanOneSync() bool {
	before := m.dirty.len()
	started := false
	for m.dirty.len() >= before {
		if !started || m.inflight == 0 {
			// Start a victim immediately (paper §5.1 steps 6–7); pick
			// again only if everything in flight completed without
			// shrinking the set (the hardware-assist rewritten case).
			if page, ok := m.nextVictim(); ok {
				m.startClean(page)
				started = true
			} else if m.inflight == 0 {
				return false
			}
		}
		if !m.events.Step(m.clock) {
			panic("core: blocked on clean with no pending events")
		}
	}
	return true
}

// setCleaning moves dp into or out of the in-flight state, the page
// staying dirty; with a cleaned page's removal, the only writer of
// dirtyPage.cleaning and the member's gate. Every caller is a transition:
// a clean starts on an entry that is not cleaning, and its completion
// finds the entry still cleaning.
func (m *Manager) setCleaning(dp *dirtyPage, on bool) {
	dp.cleaning = on
	m.victims.setInFlight(&m.dirty.State[dp.pos].Gate, dp.seq, on)
	if on {
		m.inflight++
	} else {
		m.inflight--
	}
}

// epochTick is the periodic maintenance task (paper §5.2–§5.3).
func (m *Manager) epochTick(at sim.Time) {
	if m.closed {
		return
	}
	if m.inEpoch {
		// A previous tick is still on the stack. Nothing in a tick waits
		// on the event loop (cleanToThreshold stops at a full device
		// queue instead of stalling), so this takes a tick that yields
		// again; if one ever does, skip and count the round rather than
		// run two ticks over shared state.
		m.st.skippedEpochs.Inc()
		m.scheduleNextEpoch(at)
		return
	}
	m.inEpoch = true
	m.st.epochs.Inc()

	// Time-based heal (hysteresis): a degraded manager on a mostly-idle
	// system may never see HealAfterCleans consecutive successes simply
	// because nothing needs cleaning. If no clean has *failed* for
	// HealAfterQuiet of virtual time, return to Healthy here instead —
	// and reset the error streak, which on an idle system has no
	// success to reset it, so a single later error doesn't instantly
	// re-enter Degraded off the stale count.
	if m.state == StateDegraded && at.Sub(m.lastErrorAt) >= m.cfg.HealAfterQuiet {
		m.setState(StateHealthy)
		m.errorStreak = 0
		m.healthyStreak = 0
	}

	// Read and clear hardware dirty bits for the known-to-be-dirty pages
	// only — clean pages are write-protected and cannot have been updated
	// without a fault — flushing the TLB first so the bits are fresh
	// (unless the §6.3 ablation disables it).
	//
	// The scan reads the dirty set's own page list and returns the indices
	// of the pages it saw written, so marking their histories needs no
	// lookup.
	m.scanBuf = m.region.PageTable().CheckAndClearDirtyPages(m.dirty.list(), m.scanBuf[:0], !m.cfg.DisableTLBFlush)
	m.dirty.tick(m.scanBuf)

	// Dirty-page pressure: EWMA of new dirty pages per epoch.
	w := m.cfg.EWMAWeight
	m.pressure = w*float64(m.newDirtyThisEpoch) + (1-w)*m.pressure
	m.newDirtyThisEpoch = 0
	m.st.pressure.Set(int64(m.pressure * 1000))

	// This epoch's victim candidates are the pages not in flight now.
	// Nothing is copied or ordered until a victim is asked for — below, if
	// the set is over the threshold, or on the fault path later in the
	// epoch — and histories do not change before the next tick, so
	// whenever that happens the order is the one as of this scan.
	m.victims.collect(m.dirtySeq)
	if m.state == StateDegraded {
		m.st.degradedEpochs.Inc()
	}
	m.cleanToThreshold(m.st.wakesTick)

	m.inEpoch = false
	m.scheduleNextEpoch(at)
	m.checkInvariant()
}

// cleanThreshold is the dirty level the proactive copier cleans down to:
// budget − pressure, so the dirty set can absorb the predicted burst
// without blocking (paper §5.3).
func (m *Manager) cleanThreshold() int {
	threshold := m.effectiveBudget() - int(m.pressure+0.5)
	if threshold < 0 {
		threshold = 0
	}
	if m.state == StateDegraded {
		// Graceful degradation: while the SSD is erroring, halve the
		// threshold (clean down further) so the dirty set keeps extra
		// headroom for retries before the budget blocks writers. Restored
		// automatically once cleans succeed again (noteCleanSuccess).
		threshold /= 2
	}
	return threshold
}

// cleanToThreshold is the proactive copier's one step: start cleans of
// least-recently-updated pages until the pages not already on their way
// out fit under cleanThreshold, the low-water mark. Three callers wake it:
// the epoch tick, with a fresh pressure estimate; an admission that
// reaches the wake level (wakeCopierAhead), because the estimate is about
// to prove too low; a budget hit, because it did. wakes is the caller's
// counter, moved when the run started at least one clean. The step only
// submits — in-flight pages stay in the dirty set until their IO
// completes, so it cannot affect dirty ≤ budget — and it never waits: it
// stops when the device queue is full (whoever runs next picks up the
// rest) rather than holding the clock, and with it the writer, behind a
// queue slot.
func (m *Manager) cleanToThreshold(wakes *obs.Counter) {
	threshold := m.cleanThreshold()
	maxOutstanding := m.dev.Config().MaxOutstanding
	started := false
	for m.dirty.len()-m.inflight > threshold && m.dev.Outstanding() < maxOutstanding {
		page, ok := m.nextVictim()
		if !ok {
			break
		}
		m.st.proactiveCleans.Inc()
		m.startClean(page)
		started = true
	}
	if started {
		wakes.Inc()
	}
}

// wakeAheadBudgetShare caps wakeAhead at 1/16 of the budget: a budget of
// a few pages has no room for a second mark, and runs as it did with one.
const wakeAheadBudgetShare = 16

// WakePages returns how many pages a writer can admit, one trap each,
// while one page clean is on dev's wire: ⌈(command latency + one page
// transfer) ÷ trap cost⌉. A free trap bounds nothing; the budget share
// in WakeAhead does.
func WakePages(dev *ssd.SSD, trap sim.Duration) int {
	if trap <= 0 {
		return math.MaxInt
	}
	clean := dev.Config().PerIOLatency + dev.FlushTimeFor(1)
	return int((clean + trap - 1) / trap)
}

// WakeAhead returns the distance below budget at which an admission wakes
// the proactive copier: wakePages, capped at 1/16 of the budget.
func WakeAhead(wakePages, budget int) int {
	return min(wakePages, budget/wakeAheadBudgetShare)
}

// wakeAhead is WakeAhead at the operative bound.
func (m *Manager) wakeAhead() int { return WakeAhead(m.wakePages, m.effectiveBudget()) }

// wakeCopierAhead is the high-water mark. The fault and dirty-notify
// handlers call it once the budget check has passed and BEFORE the page
// they are admitting enters the dirty set: if this admission leaves at
// most wakeAhead further ones before the budget, the copier starts now, so
// that by the time a writer paying one trap per page has used them up the
// first clean has landed — the device was idle, and the alternative is a
// budget hit that waits for the same write. Before admission because the
// copier may pick any dirty page as a victim, and re-protecting the page
// under the store that is about to retry would fail that store.
func (m *Manager) wakeCopierAhead() {
	if m.dirty.len()+1+m.wakeAhead() >= m.effectiveBudget() {
		m.cleanToThreshold(m.st.wakesAhead)
	}
}

// FlushAll synchronously cleans every dirty page — the clean-shutdown
// path. After it returns, the dirty set is empty and every page's
// contents are durable. Pages are submitted in sorted order so flush
// timing and the trace log are identical across same-seed runs.
func (m *Manager) FlushAll() {
	for m.dirty.len() > 0 {
		started := false
		for _, page := range m.drainOrder() {
			if dp := m.dirty.get(page); dp != nil && !dp.cleaning {
				m.startClean(page)
				started = true
			}
		}
		if !m.events.Step(m.clock) && !started {
			panic("core: FlushAll blocked with no pending events")
		}
	}
}

// SetDirtyBudget retunes the budget at runtime (paper §8: battery cell
// failures, ageing, or capacity reallocation between tenants). Growth —
// and any target the dirty set already fits under — applies immediately.
// A shrink below the current dirty count starts a *staged drain*: the
// operative bound becomes drainBound, a ratchet initialised to the
// current dirty count (which the old budget covered) that only moves
// down, one notch per page cleaned, until it reaches the target. New
// admissions are throttled against the ratchet, so writers arriving
// mid-drain pay forced cleans (backpressure) instead of violating the
// bound, and "dirty ≤ effective budget" holds at every instant of the
// transition. The call returns without waiting for the drain; use
// SetDirtyBudgetSync or CompleteDrain when the caller needs the old
// semantics.
func (m *Manager) SetDirtyBudget(pages int) error {
	if pages < 1 {
		return fmt.Errorf("core: dirty budget %d pages; need at least 1", pages)
	}
	if pages >= m.dirty.len() {
		// The dirty set already fits: no transition needed. This also
		// ends any in-progress drain whose target just rose above the
		// current level.
		m.budget = pages
		if m.draining {
			m.draining = false
			m.st.drainsCompleted.Inc()
		}
		m.st.budgetGrows.Inc()
		m.noteBudgetLevel()
		m.checkInvariant()
		return nil
	}
	if m.draining && pages >= m.budget {
		// Already draining to a tighter target; keep the ratchet.
		m.budget = pages
		m.noteBudgetLevel()
		m.checkInvariant()
		return nil
	}
	if !m.draining {
		m.draining = true
		m.drainBound = m.dirty.len()
	}
	m.budget = pages
	m.st.budgetShrinks.Inc()
	m.noteBudgetLevel()
	m.kickDrain()
	m.checkInvariant()
	return nil
}

// SetDirtyBudgetSync is SetDirtyBudget followed by CompleteDrain: it
// returns only once the dirty set fits the new budget, restoring the
// synchronous retune semantics the tenancy reallocator and the
// power-fail path rely on.
func (m *Manager) SetDirtyBudgetSync(pages int) error {
	if err := m.SetDirtyBudget(pages); err != nil {
		return err
	}
	return m.CompleteDrain()
}

// CompleteDrain synchronously runs an in-progress staged drain to its
// target. It is a no-op when no drain is in progress. The safe-shrink
// battery hook calls it so the dirty set is covered by the *projected*
// capacity before the battery actually loses the energy.
func (m *Manager) CompleteDrain() error {
	for m.draining {
		m.st.retuneCleans.Inc()
		if !m.cleanOneSync() {
			return fmt.Errorf("core: cannot drain dirty set %d to budget %d", m.dirty.len(), m.budget)
		}
	}
	return nil
}

// kickDrain starts proactive cleans toward the drain target so a staged
// shrink makes progress even on an idle system (no faults to piggyback
// forced cleans on, and the next epoch tick may be most of a
// millisecond away). It starts at most the excess it found, and stops
// early once the excess is gone: a start that waits for a device slot
// fires events, and a retune among them kicks its own drain, which this
// one must not then repeat.
func (m *Manager) kickDrain() {
	for n := m.dirty.len() - m.inflight - m.budget; n > 0 && m.dirty.len()-m.inflight > m.budget; n-- {
		page, ok := m.nextVictim()
		if !ok {
			break
		}
		m.st.retuneCleans.Inc()
		m.startClean(page)
	}
}

// noteDrainProgress ratchets the drain bound down after a dirty-set
// removal and finishes the drain when the set reaches the target. Every
// deletion path (clean completion, power-fail flush) reports here so the
// ratchet can never lag the set.
func (m *Manager) noteDrainProgress() {
	if !m.draining {
		return
	}
	if m.dirty.len() < m.drainBound {
		m.drainBound = m.dirty.len()
	}
	if m.drainBound <= m.budget {
		m.draining = false
		m.st.drainsCompleted.Inc()
	}
	m.noteBudgetLevel()
}

// effectiveBudget is the operative dirty-page bound: the target budget,
// or the drain ratchet while a staged shrink is in progress.
func (m *Manager) effectiveBudget() int {
	if m.draining {
		return m.drainBound
	}
	return m.budget
}

// EffectiveDirtyBudget exposes the operative bound (see effectiveBudget)
// for monitors and tests.
func (m *Manager) EffectiveDirtyBudget() int { return m.effectiveBudget() }

// Draining reports whether a staged budget shrink is in progress.
func (m *Manager) Draining() bool { return m.draining }

// checkInvariant asserts the durability bound. It is cheap (a length
// comparison) and runs on every state transition; a violation is a bug in
// the manager, never a recoverable condition.
func (m *Manager) checkInvariant() {
	if m.dirty.len() > m.effectiveBudget() {
		panic(fmt.Sprintf("core: INVARIANT VIOLATED: %d dirty pages > effective budget %d (budget %d, draining %v)",
			m.dirty.len(), m.effectiveBudget(), m.budget, m.draining))
	}
}
