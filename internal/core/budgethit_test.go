package core

import (
	"testing"

	"viyojit/internal/faultinject"
	"viyojit/internal/obs"
	"viyojit/internal/sim"
	"viyojit/internal/ssd"
)

// budgetProbe watches a manager from the event queue's fire hook, which
// runs before every event — so between any two events, inside a blocked
// fault handler or a stalled submission as much as between operations.
type budgetProbe struct {
	t       *testing.T
	h       *harness
	inWrite bool // a region write (and so possibly a budget-hit handler) is on the stack

	forcedSeen uint64 // budget hits already checked
	hits       int    // budget hits observed
	bounded    int    // ... that left the not-in-flight pages at or under the threshold
	queueFull  int    // ... excused because the device queue was full

	fullAtLast   bool   // previous hook ran inside a write with the queue full
	epochsAtLast uint64 // epochs counted at the previous hook
	nestedTicks  int    // ticks that fired inside a handler while the queue was full
}

func (p *budgetProbe) beforeEvent(uint64, sim.Time) {
	m, dev := p.h.mgr, p.h.dev
	if m.dirty.len() > m.effectiveBudget() {
		p.t.Fatalf("%d dirty pages over the effective budget %d", m.dirty.len(), m.effectiveBudget())
	}
	if got, want := m.inflight, m.recountInflight(); got != want {
		p.t.Fatalf("inflight counter %d, recount %d", got, want)
	}
	full := dev.Outstanding() >= dev.Config().MaxOutstanding
	epochs := m.st.epochs.Value()
	if p.fullAtLast && epochs > p.epochsAtLast {
		p.nestedTicks++
	}
	p.fullAtLast, p.epochsAtLast = p.inWrite && full, epochs

	// The first event after a budget hit fires from the handler's own
	// wait: the burst and the victim the write needs have been submitted
	// and nothing has completed since.
	forced := m.st.forcedCleans.Value()
	if !p.inWrite || forced == p.forcedSeen {
		return
	}
	p.forcedSeen = forced
	p.hits++
	switch rest := m.dirty.len() - m.inflight; {
	case rest <= m.cleanThreshold():
		// Also the victims-ran-out case: every dirty page in flight is 0.
		p.bounded++
	case full:
		p.queueFull++
	default:
		p.t.Fatalf("budget hit left %d pages not in flight, threshold %d, device queue %d of %d",
			rest, m.cleanThreshold(), dev.Outstanding(), dev.Config().MaxOutstanding)
	}
}

func (p *budgetProbe) write(page int, marker byte) {
	p.t.Helper()
	p.inWrite = true
	err := p.h.region.WriteAt([]byte{marker}, int64(page)*4096)
	p.inWrite = false
	if err != nil {
		p.t.Fatalf("write page %d: %v", page, err)
	}
	if m := p.h.mgr; m.dirty.len() > m.effectiveBudget() {
		p.t.Fatalf("%d dirty pages over the effective budget %d after admission", m.dirty.len(), m.effectiveBudget())
	}
}

// TestBudgetHitRestoresThreshold drives seeded write bursts through a
// small, slow, faulty device with mid-run budget shrinks and a degraded
// ladder, in trap and hardware-assist mode. At every event: dirty ≤
// effective budget and inflight == recount (also when a tick fires nested
// in a handler's submit stall). At every budget hit: the handler's burst
// left dirty − inflight at or under the cleaning threshold, unless the
// device queue was full.
func TestBudgetHitRestoresThreshold(t *testing.T) {
	for _, hw := range []bool{false, true} {
		var total budgetProbe
		for seed := uint64(1); seed <= 4; seed++ {
			const pages = 160
			// 4 KiB takes ≈ 250 µs on the wire and the queue is 4 deep, so
			// submissions stall for a good part of an epoch.
			h := newDevHarness(t, pages, Config{DirtyBudgetPages: 40, HardwareAssist: hw},
				ssd.Config{MaxOutstanding: 4, WriteBandwidth: 16 << 20})
			h.dev.SetFaultInjector(faultinject.New(faultinject.Config{Seed: seed, TransientProb: 0.12, TornProb: 0.04}))
			p := &budgetProbe{t: t, h: h}
			h.events.SetFireHook(p.beforeEvent)
			rng := sim.NewRNG(seed)
			for step := 0; step < 1500; step++ {
				switch r := rng.Intn(40); {
				case r == 0:
					if err := h.mgr.SetDirtyBudget(16 + rng.Intn(32)); err != nil {
						t.Fatal(err)
					}
				case r == 1:
					h.mgr.EnterDegraded()
				case r < 8:
					// A quiet spell: the pressure estimate decays, so the
					// next burst finds it too low.
					h.clock.Advance(sim.Duration(rng.Intn(3000)) * sim.Microsecond)
				default:
					p.write(rng.Intn(pages), byte(step)|1)
				}
				h.mgr.Pump()
			}
			st := h.mgr.Stats()
			if st.CleanErrors == 0 || st.BudgetShrinks == 0 || st.DegradedEpochs == 0 || st.ForcedCleans == 0 {
				t.Fatalf("hw=%v seed %d: schedule missed a path: %+v", hw, seed, st)
			}
			total.hits += p.hits
			total.bounded += p.bounded
			total.queueFull += p.queueFull
			total.nestedTicks += p.nestedTicks
		}
		t.Logf("hw=%v: %d budget hits, %d bounded, %d excused by a full queue, %d ticks nested in a full-queue wait",
			hw, total.hits, total.bounded, total.queueFull, total.nestedTicks)
		if total.bounded == 0 || total.queueFull == 0 || total.nestedTicks == 0 {
			t.Fatalf("hw=%v: a case went unwitnessed", hw)
		}
	}
}

// fillToBudget dirties pages [first, first+n) without letting an epoch
// tick fire, and fails the test if one did.
func fillToBudget(t *testing.T, h *harness, first, n int) {
	t.Helper()
	epochs := h.mgr.Stats().Epochs
	for p := first; p < first+n; p++ {
		if err := h.region.WriteAt([]byte{1}, int64(p)*4096); err != nil {
			t.Fatal(err)
		}
	}
	h.mgr.Pump()
	if got := h.mgr.Stats().Epochs; got != epochs {
		t.Fatalf("an epoch tick fired while filling the dirty set (%d → %d)", epochs, got)
	}
}

// The two marks on a free device. Below the wake level nothing starts; the
// admission that reaches it starts the burst down to the threshold without
// blocking; a writer that still outruns the device (budget 32 caps
// wakeAhead at 2, a clean takes five traps) hits the budget and waits for
// one completion — the rest of a write already on the wire, not a whole
// one — and once the burst lands the next `pressure` admissions do not
// block.
func TestBudgetHitWaitsForOneCompletion(t *testing.T) {
	for _, hw := range []bool{false, true} {
		h := newHarness(t, 256, Config{DirtyBudgetPages: 32, HardwareAssist: hw})
		// One epoch with 8 admissions: pressure 0.75 × 8 = 6, threshold 26.
		fillToBudget(t, h, 0, 8)
		h.clock.Advance(sim.Millisecond)
		h.mgr.Pump()
		if got := h.mgr.cleanThreshold(); got != 26 {
			t.Fatalf("hw=%v: threshold %d after the first epoch, want 26", hw, got)
		}
		if got := h.mgr.wakeAhead(); got != 2 {
			t.Fatalf("hw=%v: wakeAhead %d at budget 32, want 2", hw, got)
		}

		// Up to 29 dirty the next admission leaves more than wakeAhead
		// before the budget: the copier sleeps.
		fillToBudget(t, h, 8, 21)
		if st := h.mgr.Stats(); h.mgr.DirtyCount() != 29 || h.mgr.inflight != 0 || st.ProactiveCleans != 0 {
			t.Fatalf("hw=%v: %d dirty, %d in flight, %d proactive cleans below the wake level, want 29, 0, 0",
				hw, h.mgr.DirtyCount(), h.mgr.inflight, st.ProactiveCleans)
		}

		// The 30th admission reaches the wake level: 29 − 26 = 3 victims go
		// out, and each of the next two tops the burst up by the page it
		// added. Nobody waits.
		fillToBudget(t, h, 29, 3)
		woken := h.mgr.Stats()
		if woken.CopierWakesAhead != 3 || woken.ProactiveCleans != 5 || woken.ForcedCleans != 0 || woken.FaultWaitTotal != 0 {
			t.Fatalf("hw=%v: %d wakes ahead, %d proactive, %d forced, waited %v; want 3, 5, 0, 0",
				hw, woken.CopierWakesAhead, woken.ProactiveCleans, woken.ForcedCleans, woken.FaultWaitTotal)
		}
		if h.mgr.DirtyCount() != 32 || h.mgr.inflight != 5 || woken.CleansCompleted != 0 {
			t.Fatalf("hw=%v: %d dirty, %d in flight, %d completed before the hit, want 32, 5, 0",
				hw, h.mgr.DirtyCount(), h.mgr.inflight, woken.CleansCompleted)
		}

		if err := h.region.WriteAt([]byte{1}, 100*4096); err != nil {
			t.Fatal(err)
		}
		after := h.mgr.Stats()
		if got := after.ForcedCleans - woken.ForcedCleans; got != 1 {
			t.Fatalf("hw=%v: %d forced cleans, want 1", hw, got)
		}
		// The hit tops the burst up to 32 − 26 = 6, then starts the victim
		// it would wait for had the wake level not gone first.
		if proactive, wakes := after.ProactiveCleans-woken.ProactiveCleans, after.CopierWakesHit; proactive != 1 || wakes != 1 {
			t.Fatalf("hw=%v: the hit started %d proactive cleans in %d wakes, want 1 in 1", hw, proactive, wakes)
		}
		if got := after.CleansCompleted - woken.CleansCompleted; got != 1 {
			t.Fatalf("hw=%v: the write resumed after %d completions, want exactly 1", hw, got)
		}
		if h.mgr.DirtyCount() != 32 || h.mgr.inflight != 6 {
			t.Fatalf("hw=%v: %d dirty, %d in flight after the hit, want 32 and 6", hw, h.mgr.DirtyCount(), h.mgr.inflight)
		}
		cfg := h.dev.Config()
		writeLatency := cfg.PerIOLatency + sim.Duration(int64(cfg.PageSize)*int64(sim.Second)/cfg.WriteBandwidth)
		// The completion it waited for is the first woken clean's. In trap
		// mode that one had been on the wire for three traps — the two
		// admissions after the wake and the hit's own — when the wait
		// started; hardware-assist admissions cost next to nothing, so there
		// the wait is nearly the whole write.
		maxWait := writeLatency + hwInterruptCost
		if !hw {
			maxWait = writeLatency - 3*h.region.PageTable().Costs().Trap
		}
		if wait := after.FaultWaitTotal - woken.FaultWaitTotal; wait <= 0 || wait > maxWait {
			t.Fatalf("hw=%v: the write waited %v, want the rest of one write latency (0 < wait ≤ %v)", hw, wait, maxWait)
		}

		// Let the burst land (well inside the epoch): six admissions fit.
		h.clock.Advance(100 * sim.Microsecond)
		h.mgr.Pump()
		if h.mgr.DirtyCount() != 26 {
			t.Fatalf("hw=%v: %d dirty once the burst landed, want the threshold 26", hw, h.mgr.DirtyCount())
		}
		fillToBudget(t, h, 101, 6)
		if got := h.mgr.Stats().ForcedCleans; got != after.ForcedCleans {
			t.Fatalf("hw=%v: an admission inside the restored headroom blocked", hw)
		}
	}
}

// With no pressure estimate the threshold is the budget itself: the step
// starts nothing and a budget hit cleans the one victim it waits for.
func TestBudgetHitAtZeroPressureCleansOneVictim(t *testing.T) {
	for _, hw := range []bool{false, true} {
		h := newHarness(t, 64, Config{DirtyBudgetPages: 8, HardwareAssist: hw})
		fillToBudget(t, h, 0, 8)
		if h.mgr.Pressure() != 0 {
			t.Fatalf("hw=%v: pressure %v before the first tick", hw, h.mgr.Pressure())
		}
		if err := h.region.WriteAt([]byte{1}, 20*4096); err != nil {
			t.Fatal(err)
		}
		st := h.mgr.Stats()
		if st.ForcedCleans != 1 || st.ProactiveCleans != 0 || st.CleansCompleted != 1 || h.dev.Stats().WritesSubmitted != 1 {
			t.Fatalf("hw=%v: forced %d, proactive %d, completed %d, submitted %d; want 1, 0, 1, 1",
				hw, st.ForcedCleans, st.ProactiveCleans, st.CleansCompleted, h.dev.Stats().WritesSubmitted)
		}
		if h.mgr.DirtyCount() != 8 || h.mgr.inflight != 0 {
			t.Fatalf("hw=%v: %d dirty, %d in flight, want 8 and 0", hw, h.mgr.DirtyCount(), h.mgr.inflight)
		}
	}
}

// A writer that dirties about `pressure` new pages every epoch, one trap
// apart, on a healthy idle device never blocks: the epochs whose
// admissions beat the estimate reach the wake level a clean latency ahead
// of the budget instead of hitting it. (With only the low-water mark every
// such epoch ended in one forced clean.)
func TestSteadyWriterNeverBlocks(t *testing.T) {
	for _, hw := range []bool{false, true} {
		const pages, budget = 4096, 256
		h := newHarness(t, pages, Config{DirtyBudgetPages: budget, HardwareAssist: hw})
		if got := h.mgr.wakeAhead(); got != 6 {
			t.Fatalf("hw=%v: wakeAhead %d, want 6", hw, got)
		}
		trap := h.region.PageTable().Costs().Trap
		rng := sim.NewRNG(19)
		next := 0
		for epoch := 1; epoch <= 200; epoch++ {
			// 16–24 admissions back to back, so about half the epochs beat
			// the EWMA. Fresh pages each time: by the time the walk wraps a
			// page was cleaned thousands of admissions ago.
			for n := 16 + rng.Intn(9); n > 0; n-- {
				if hw {
					// No trap paces a hardware-assist admission; the writer
					// this test is about issues one per trap cost.
					h.clock.Advance(trap)
				}
				h.writePage(t, next%pages, byte(epoch)|1)
				next++
			}
			h.events.RunUntil(h.clock, sim.Time(sim.Duration(epoch)*sim.Millisecond))
		}
		st := h.mgr.Stats()
		if st.ForcedCleans != 0 || st.FaultWaitTotal != 0 {
			t.Fatalf("hw=%v: a steady writer blocked: %d forced cleans, waited %v", hw, st.ForcedCleans, st.FaultWaitTotal)
		}
		if st.Epochs < 199 || st.CopierWakesAhead == 0 || st.MaxDirtyObserved < budget-8 {
			t.Fatalf("hw=%v: the run never came near its budget: %d epochs, %d wakes ahead, max dirty %d of %d",
				hw, st.Epochs, st.CopierWakesAhead, st.MaxDirtyObserved, budget)
		}
		// Who ran the copier: the tick and the wake level, never a hit.
		if st.CopierWakesTick == 0 || st.CopierWakesHit != 0 {
			t.Fatalf("hw=%v: %d tick wakes, %d budget-hit wakes, want some and none", hw, st.CopierWakesTick, st.CopierWakesHit)
		}
	}
}

// The wake runs before the faulting page is admitted, so the copier can
// never re-protect the page under the store that is about to retry: at
// every budget from 1 page up — where the threshold is at or near zero and
// every dirty page is a victim — every write succeeds and the bound holds
// at every event.
func TestWakeNeverPicksFaultingPage(t *testing.T) {
	budgets := []int{32, 100}
	for b := 1; b <= 16; b++ {
		budgets = append(budgets, b)
	}
	for _, hw := range []bool{false, true} {
		var wakes uint64
		for _, budget := range budgets {
			const pages = 128
			h := newHarness(t, pages, Config{DirtyBudgetPages: budget, HardwareAssist: hw})
			p := &budgetProbe{t: t, h: h}
			h.events.SetFireHook(p.beforeEvent)
			rng := sim.NewRNG(uint64(budget))
			for step := 0; step < 2000; step++ {
				if rng.Intn(8) == 0 {
					h.clock.Advance(sim.Duration(rng.Intn(400)) * sim.Microsecond)
				}
				p.write(rng.Intn(pages), byte(step)|1)
				h.mgr.Pump()
			}
			wakes += h.mgr.Stats().CopierWakesAhead
		}
		if wakes == 0 {
			t.Fatalf("hw=%v: the wake level never started a clean", hw)
		}
	}
}

// wakeAhead is ⌈clean latency ÷ trap cost⌉ capped at a sixteenth of the
// operative budget, from the cost models the manager was built on.
func TestWakeAheadDerivation(t *testing.T) {
	h := newHarness(t, 512, Config{DirtyBudgetPages: 256})
	// 60 µs + 4 KiB at 2 GiB/s ≈ 61.9 µs over a 12 µs trap.
	if h.mgr.wakePages != 6 || h.mgr.wakeAhead() != 6 {
		t.Fatalf("default costs: wakePages %d, wakeAhead %d, want 6 and 6", h.mgr.wakePages, h.mgr.wakeAhead())
	}
	for _, c := range []struct{ budget, want int }{{15, 0}, {1, 0}, {16, 1}, {32, 2}, {95, 5}, {96, 6}, {400, 6}} {
		if err := h.mgr.SetDirtyBudget(c.budget); err != nil {
			t.Fatal(err)
		}
		if got := h.mgr.wakeAhead(); got != c.want {
			t.Fatalf("budget %d: wakeAhead %d, want %d", c.budget, got, c.want)
		}
	}

	// A device twice as slow to answer wakes twice as far ahead; a free
	// trap leaves only the budget share.
	slow := newDevHarness(t, 512, Config{DirtyBudgetPages: 256}, ssd.Config{PerIOLatency: 120 * sim.Microsecond})
	if got := slow.mgr.wakeAhead(); got != 11 {
		t.Fatalf("120 µs device: wakeAhead %d, want ⌈121.9 ÷ 12⌉ = 11", got)
	}
	if got := WakeAhead(WakePages(h.dev, 0), 256); got != 16 {
		t.Fatalf("free trap: wakeAhead %d, want the budget share 16", got)
	}
}

// gaugeWriter is a registry sink that, once armed, writes one byte through
// mp the next time the dirty gauge moves: the flight recorder's tee
// without its admission gate.
type gaugeWriter struct {
	mp    *Mapping
	armed bool
	err   error
}

func (w *gaugeWriter) CounterAdd(string, uint64, uint64) {}
func (w *gaugeWriter) SpanFinished(obs.SpanRecord)       {}
func (w *gaugeWriter) Keeps(string) bool                 { return true }
func (w *gaugeWriter) GaugeSet(name string, _ int64) {
	if w.armed && name == "core_dirty_pages" {
		w.armed = false
		w.err = w.mp.WriteAt([]byte{0x5A}, 0)
	}
}

// An admission's dirty gauge tees a write to a clean page of a second
// mapping, so a fault nests inside the admission after its page entered
// the set. The nested admission reaches the wake level with the copier's
// threshold at 0 and its collection used up, so it collects again from
// the live set, the outer page included. The copier must pass that page
// over: re-protecting it would fail the store about to retry with
// mmu.ErrProtected on a healthy ladder.
func TestNestedAdmissionKeepsAdmittedPage(t *testing.T) {
	const budget = 4
	reg := obs.NewRegistry()
	h := newHarness(t, 16, Config{DirtyBudgetPages: budget, Obs: reg})
	app, err := h.mgr.Map("app", 12*4096)
	if err != nil {
		t.Fatal(err)
	}
	tele, err := h.mgr.Map("tele", 4*4096)
	if err != nil {
		t.Fatal(err)
	}
	w := &gaugeWriter{mp: tele}
	reg.SetSink(w)
	write := func(page int, b byte) error { return app.WriteAt([]byte{b}, int64(page)*4096) }

	// Eight admissions in the first epoch: the tick's pressure estimate (6)
	// passes the budget, so the copier cleans every page it finds, and the
	// set is empty with the collection spent when the next epoch's writes
	// begin.
	for p := 0; p < 8; p++ {
		if err := write(p, 1); err != nil {
			t.Fatal(err)
		}
	}
	h.events.RunUntil(h.clock, sim.Time(sim.Millisecond+500*sim.Microsecond))
	if h.mgr.cleanThreshold() != 0 || h.mgr.DirtyCount() != 0 || h.mgr.Stats().Epochs != 1 {
		t.Fatalf("after the first tick: threshold %d, %d dirty, %d epochs; want 0, 0, 1",
			h.mgr.cleanThreshold(), h.mgr.DirtyCount(), h.mgr.Stats().Epochs)
	}

	// Two admissions, then a third that stays below the wake level itself
	// (2 + 1 < 4) but whose tee's nested admission reaches it (3 + 1).
	for p := 8; p < 10; p++ {
		if err := write(p, 2); err != nil {
			t.Fatal(err)
		}
	}
	w.armed = true
	if err := write(10, 3); err != nil {
		t.Fatalf("outer store with the ladder %v: %v", h.mgr.HealthState(), err)
	}
	if w.armed || w.err != nil {
		t.Fatalf("nested write: armed %v, err %v; want it run and succeeded", w.armed, w.err)
	}
	if dp := h.mgr.dirty.get(10); dp == nil || dp.cleaning {
		t.Fatalf("page 10 after its admission: %+v; want dirty and not in flight", dp)
	}
	st := h.mgr.Stats()
	if st.CopierWakesAhead != 1 || st.ProactiveCleans != 4+2 || st.Epochs != 1 {
		t.Fatalf("wakes ahead %d, proactive cleans %d, epochs %d; want 1, 6 (tick 4, nested wake 2), 1",
			st.CopierWakesAhead, st.ProactiveCleans, st.Epochs)
	}
	var b [1]byte
	if err := app.ReadAt(b[:], 10*4096); err != nil || b[0] != 3 {
		t.Fatalf("page 10 reads %#x, %v; want 0x03", b[0], err)
	}
	h.mgr.FlushAll()
	if err := h.mgr.VerifyDurability(); err != nil {
		t.Fatal(err)
	}
}
