package core

import (
	"testing"

	"viyojit/internal/faultinject"
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

// A budget hit on a free device: the write waits for one completion —
// about one write latency — while the burst that re-establishes the
// threshold stays in flight behind it, and once that lands the next
// `pressure` admissions do not block.
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
		fillToBudget(t, h, 8, 24)
		if h.mgr.DirtyCount() != 32 || h.mgr.inflight != 0 {
			t.Fatalf("hw=%v: %d dirty, %d in flight before the hit, want 32 and 0", hw, h.mgr.DirtyCount(), h.mgr.inflight)
		}

		before := h.mgr.Stats()
		if err := h.region.WriteAt([]byte{1}, 100*4096); err != nil {
			t.Fatal(err)
		}
		after := h.mgr.Stats()
		if got := after.ForcedCleans - before.ForcedCleans; got != 1 {
			t.Fatalf("hw=%v: %d forced cleans, want 1", hw, got)
		}
		if got := after.ProactiveCleans - before.ProactiveCleans; got != 6 {
			t.Fatalf("hw=%v: burst started %d cleans, want 32 − 26 = 6", hw, got)
		}
		if got := after.CleansCompleted - before.CleansCompleted; got != 1 {
			t.Fatalf("hw=%v: the write resumed after %d completions, want exactly 1", hw, got)
		}
		if h.mgr.DirtyCount() != 32 || h.mgr.inflight != 6 {
			t.Fatalf("hw=%v: %d dirty, %d in flight after the hit, want 32 and 6", hw, h.mgr.DirtyCount(), h.mgr.inflight)
		}
		cfg := h.dev.Config()
		writeLatency := cfg.PerIOLatency + sim.Duration(int64(cfg.PageSize)*int64(sim.Second)/cfg.WriteBandwidth)
		// The first burst page goes out one re-protect (or interrupt) and
		// page copy after the wait starts; nothing else stands between.
		slack := sim.Microsecond
		if hw {
			slack += hwInterruptCost
		}
		if wait := after.FaultWaitTotal - before.FaultWaitTotal; wait < writeLatency || wait > writeLatency+slack {
			t.Fatalf("hw=%v: the write waited %v, want one write latency (%v)", hw, wait, writeLatency)
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
