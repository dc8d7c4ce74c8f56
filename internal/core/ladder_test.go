package core

import (
	"errors"
	"testing"

	"viyojit/internal/faultinject"
	"viyojit/internal/mmu"
	"viyojit/internal/sim"
)

// TestStagedShrinkInvariantUnderBursts is the budget-shrink property
// test: after SetDirtyBudget shrinks 32 → 8 under a continuing write
// burst, `DirtyCount ≤ effective budget` holds at every event step, and
// the effective budget itself is the monotone ratchet — it starts at the
// level the old budget covered and only moves down until the drain
// completes.
func TestStagedShrinkInvariantUnderBursts(t *testing.T) {
	h := newHarness(t, 128, Config{DirtyBudgetPages: 32})
	for p := 0; p < 32; p++ {
		h.writePage(t, p, byte(p+1))
	}
	if h.mgr.DirtyCount() != 32 {
		t.Fatalf("setup: dirty %d, want 32", h.mgr.DirtyCount())
	}

	prevBound := h.mgr.EffectiveDirtyBudget()
	check := func(where string) {
		d, eb := h.mgr.DirtyCount(), h.mgr.EffectiveDirtyBudget()
		if d > eb {
			t.Fatalf("%s: dirty %d > effective budget %d", where, d, eb)
		}
		if h.mgr.Draining() {
			if eb > prevBound {
				t.Fatalf("%s: drain ratchet rose %d -> %d", where, prevBound, eb)
			}
			if eb > 32 {
				t.Fatalf("%s: effective budget %d above old budget 32", where, eb)
			}
		}
		prevBound = eb
	}
	h.events.SetFireHook(func(step uint64, at sim.Time) { check("event step") })
	defer h.events.SetFireHook(nil)

	if err := h.mgr.SetDirtyBudget(8); err != nil {
		t.Fatal(err)
	}
	if !h.mgr.Draining() && h.mgr.DirtyCount() > 8 {
		t.Fatal("shrink below dirty count did not start a drain")
	}
	check("after shrink")

	// Concurrent write burst across the whole region: admissions must
	// pay forced cleans against the ratchet, never breach it.
	rng := sim.NewRNG(7)
	for i := 0; i < 300; i++ {
		page := int(rng.Int63n(128))
		if err := h.region.WriteAt([]byte{byte(i + 1)}, int64(page)*4096); err != nil {
			t.Fatalf("burst write %d: %v", i, err)
		}
		check("after write")
		h.clock.Advance(2 * sim.Microsecond)
		h.mgr.Pump()
	}

	for i := 0; i < 100 && h.mgr.Draining(); i++ {
		h.clock.Advance(sim.Millisecond)
		h.mgr.Pump()
	}
	if h.mgr.Draining() {
		t.Fatal("drain never completed")
	}
	if d := h.mgr.DirtyCount(); d > 8 {
		t.Fatalf("dirty %d above new budget 8 after drain", d)
	}
	if h.mgr.Stats().DrainsCompleted == 0 {
		t.Fatal("no drain completion recorded")
	}
}

// TestEmergencyFlushBlocksWritesAndDrains: on a healthy SSD the
// emergency rung drains everything, rejects writes with
// mmu.ErrProtected, and Resume restores normal operation.
func TestEmergencyFlushBlocksWritesAndDrains(t *testing.T) {
	h := newHarness(t, 16, Config{DirtyBudgetPages: 8})
	for p := 0; p < 4; p++ {
		h.writePage(t, p, byte(p+1))
	}
	if remaining := h.mgr.EnterEmergencyFlush(); remaining != 0 {
		t.Fatalf("emergency drain left %d pages on a healthy SSD", remaining)
	}
	if st := h.mgr.HealthState(); st != StateEmergencyFlush {
		t.Fatalf("state %v, want EmergencyFlush", st)
	}
	if err := h.region.WriteAt([]byte{0xEE}, 0); !errors.Is(err, mmu.ErrProtected) {
		t.Fatalf("write while blocked: err %v, want ErrProtected", err)
	}
	if h.mgr.Stats().WritesBlocked == 0 {
		t.Fatal("no blocked write counted")
	}
	if err := h.mgr.VerifyDurability(); err != nil {
		t.Fatalf("durability after emergency drain: %v", err)
	}
	if err := h.mgr.Resume(StateEmergencyFlush); err == nil {
		t.Fatal("Resume to a write-blocking state accepted")
	}
	if err := h.mgr.Resume(StateHealthy); err != nil {
		t.Fatal(err)
	}
	h.writePage(t, 5, 0xAB)
	if h.mgr.DirtyCount() != 1 {
		t.Fatalf("dirty %d after resumed write, want 1", h.mgr.DirtyCount())
	}
}

// TestDeadSSDLadderToReadOnly drives the full ladder: a dead SSD fails
// the bounded emergency drain, the manager falls back to ReadOnly,
// nothing previously flushed is lost, and a repaired device recovers via
// RetryDrain + Resume.
func TestDeadSSDLadderToReadOnly(t *testing.T) {
	h := newHarness(t, 16, Config{DirtyBudgetPages: 8, EmergencyMaxAttempts: 2})
	// Two pages flushed while the device is healthy...
	h.writePage(t, 0, 0x11)
	h.writePage(t, 1, 0x22)
	h.mgr.FlushAll()
	// ...then four more dirtied just before the device dies.
	for p := 2; p < 6; p++ {
		h.writePage(t, p, byte(p))
	}
	inj := faultinject.New(faultinject.Config{TransientProb: 1}) // MaxFaults 0: dead forever
	h.dev.SetFaultInjector(inj)

	remaining := h.mgr.EnterEmergencyFlush()
	if remaining != 4 {
		t.Fatalf("drain against dead SSD left %d pages, want 4", remaining)
	}
	if h.mgr.RetryDrain() != 4 {
		t.Fatal("retry drain unexpectedly succeeded on a dead SSD")
	}
	h.mgr.EnterReadOnly()
	if st := h.mgr.HealthState(); st != StateReadOnly {
		t.Fatalf("state %v, want ReadOnly", st)
	}
	if err := h.region.WriteAt([]byte{0xEE}, 0); !errors.Is(err, mmu.ErrProtected) {
		t.Fatalf("write in ReadOnly: err %v, want ErrProtected", err)
	}
	// Previously flushed pages are still durable with their flushed
	// contents — the fallback never un-persists data.
	for p, want := range map[mmu.PageID]byte{0: 0x11, 1: 0x22} {
		data, ok := h.dev.Durable(p)
		if !ok || data[0] != want {
			t.Fatalf("page %d: durable=%v first byte %#x, want %#x", p, ok, data[0], want)
		}
	}

	// SSD replaced: drains succeed again, Resume reopens writes.
	inj.Disable()
	h.mgr.Resume(StateEmergencyFlush) // rejected: still a blocking state
	if st := h.mgr.HealthState(); st != StateReadOnly {
		t.Fatalf("rejected Resume changed state to %v", st)
	}
	// Re-enter the drain rung and finish the flush on the healthy device.
	if got := h.mgr.RetryDrain(); got != 4 {
		// RetryDrain is only live at EmergencyFlush.
		t.Fatalf("RetryDrain at ReadOnly drained to %d; want untouched 4", got)
	}
	if err := h.mgr.Resume(StateDegraded); err != nil {
		t.Fatal(err)
	}
	if remaining := h.mgr.EnterEmergencyFlush(); remaining != 0 {
		t.Fatalf("drain on repaired SSD left %d pages", remaining)
	}
	if err := h.mgr.Resume(StateHealthy); err != nil {
		t.Fatal(err)
	}
	h.writePage(t, 7, 0x77)
	if err := h.mgr.VerifyDurability(); err == nil {
		// Page 7 is dirty (not yet flushed): durability check must flag
		// it, proving the write actually landed post-recovery.
		t.Fatal("VerifyDurability passed with a dirty page outstanding")
	}
}

// TestTimeBasedHeal (satellite fix): a degraded manager on an idle
// system — no cleans at all, so the success-streak path can't run —
// returns to Healthy once HealAfterQuiet of virtual time passes without
// a clean error.
func TestTimeBasedHeal(t *testing.T) {
	h := newHarness(t, 16, Config{
		DirtyBudgetPages:   2,
		DegradeAfterErrors: 2,
		HealAfterQuiet:     5 * sim.Millisecond,
	})
	h.writePage(t, 0, 1)
	h.writePage(t, 1, 2)
	// The next admission forces a clean; the injector fails exactly two
	// of them (then runs dry), building the streak that enters Degraded.
	inj := faultinject.New(faultinject.Config{TransientProb: 1, MaxFaults: 2})
	h.dev.SetFaultInjector(inj)
	h.writePage(t, 2, 3)
	if h.mgr.HealthState() < StateDegraded {
		t.Fatalf("not degraded after %d clean errors (streak %d)",
			h.mgr.Stats().CleanErrors, h.mgr.ErrorStreak())
	}
	// Idle: just let epochs tick with no writes and no cleans.
	for i := 0; i < 12; i++ {
		h.clock.Advance(sim.Millisecond)
		h.mgr.Pump()
	}
	if h.mgr.HealthState() >= StateDegraded {
		t.Fatal("still degraded after 12 ms of quiet (HealAfterQuiet 5 ms)")
	}
	if h.mgr.ErrorStreak() != 0 {
		t.Fatalf("error streak %d survived the heal", h.mgr.ErrorStreak())
	}
}
