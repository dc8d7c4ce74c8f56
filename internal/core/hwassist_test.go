package core

import (
	"testing"
	"testing/quick"

	"viyojit/internal/mmu"
	"viyojit/internal/power"
	"viyojit/internal/sim"
)

func newHWHarness(t testing.TB, pages, budget int) *harness {
	t.Helper()
	return newHarness(t, pages, Config{DirtyBudgetPages: budget, HardwareAssist: true})
}

func TestHWNoProtectionNoTraps(t *testing.T) {
	h := newHWHarness(t, 16, 8)
	pt := h.region.PageTable()
	for p := 0; p < 16; p++ {
		if pt.IsProtected(mmu.PageID(p)) {
			t.Fatalf("page %d protected in hardware-assist mode", p)
		}
	}
	for p := 0; p < 6; p++ {
		h.writePage(t, p, byte(p+1))
	}
	if got := pt.Stats().Faults; got != 0 {
		t.Fatalf("hardware mode took %d protection faults", got)
	}
	if h.mgr.DirtyCount() != 6 {
		t.Fatalf("dirty count = %d, want 6", h.mgr.DirtyCount())
	}
	if h.mgr.Stats().PagesDirtied != 6 {
		t.Fatalf("pages dirtied = %d", h.mgr.Stats().PagesDirtied)
	}
}

func TestHWBudgetEnforced(t *testing.T) {
	h := newHWHarness(t, 32, 4)
	for p := 0; p < 20; p++ {
		h.writePage(t, p, byte(p+1))
		if h.mgr.DirtyCount() > 4 {
			t.Fatalf("dirty %d exceeds budget 4", h.mgr.DirtyCount())
		}
	}
	if h.mgr.Stats().ForcedCleans == 0 {
		t.Fatal("no at-budget interrupts taken")
	}
}

func TestHWFirstWriteCheaperThanSW(t *testing.T) {
	measure := func(hw bool) sim.Duration {
		h := newHarness(t, 64, Config{DirtyBudgetPages: 32, HardwareAssist: hw})
		t0 := h.clock.Now()
		for p := 0; p < 16; p++ {
			h.writePage(t, p, 1)
		}
		return h.clock.Now().Sub(t0)
	}
	sw, hw := measure(false), measure(true)
	if hw >= sw {
		t.Fatalf("hardware first-writes (%v) not cheaper than software (%v)", hw, sw)
	}
}

func TestHWRewriteDuringCleanStaysDirty(t *testing.T) {
	h := newHWHarness(t, 16, 8)
	h.writePage(t, 3, 0x11)
	// Start a clean of page 3 manually, then write to it before the IO
	// completes: hardware mode has no protection, so the write lands,
	// and the completion must NOT mark the page clean.
	h.mgr.startClean(3)
	if err := h.region.WriteAt([]byte{0x22}, 3*4096); err != nil {
		t.Fatal(err)
	}
	h.dev.WaitIdle()
	h.mgr.Pump()
	if !h.mgr.IsDirty(3) {
		t.Fatal("rewritten page marked clean; its latest bytes are not durable")
	}
	// A full flush then makes the new contents durable.
	h.mgr.FlushAll()
	durable, ok := h.dev.Durable(3)
	if !ok || durable[0] != 0x22 {
		t.Fatalf("latest contents not durable after flush: %v", durable[:1])
	}
	if err := h.mgr.VerifyDurability(); err != nil {
		t.Fatal(err)
	}
}

func TestHWPowerFailDurability(t *testing.T) {
	h := newHWHarness(t, 64, 16)
	for p := 0; p < 40; p++ {
		h.writePage(t, p, byte(p+1))
		if d := h.mgr.DirtyCount(); d > 16 {
			t.Fatalf("after write %d: %d dirty, budget 16", p, d)
		}
	}
	pm := power.Default()
	joules := pm.FlushWatts(h.region.Size()) * (h.dev.FlushTimeFor(16) + 10*sim.Millisecond).Seconds()
	report := h.mgr.PowerFail(pm, joules)
	if !report.Survived {
		t.Fatal("hardware-mode flush did not survive")
	}
	if err := h.mgr.VerifyDurability(); err != nil {
		t.Fatal(err)
	}
}

func TestHWEpochScansStillTrackRecency(t *testing.T) {
	h := newHWHarness(t, 16, 3)
	// Hot pages 1, 2; cold page 0.
	h.writePage(t, 0, 1)
	h.writePage(t, 1, 2)
	h.writePage(t, 2, 3)
	for e := 0; e < 5; e++ {
		h.clock.Advance(sim.Millisecond)
		h.mgr.Pump()
		h.writePage(t, 1, byte(10+e))
		h.writePage(t, 2, byte(20+e))
	}
	h.writePage(t, 3, 9) // forces eviction of the cold page
	if h.mgr.IsDirty(0) {
		t.Fatal("cold page not chosen as victim in hardware mode")
	}
	for _, hot := range []mmu.PageID{1, 2} {
		if !h.mgr.IsDirty(hot) {
			t.Fatalf("hot page %d evicted in hardware mode", hot)
		}
	}
}

// Property: hardware mode preserves the budget invariant and durability
// under random workloads, exactly like software mode.
func TestHWBudgetInvariantProperty(t *testing.T) {
	f := func(seed uint64, budgetRaw uint8, nOps uint16) bool {
		const pages = 64
		budget := int(budgetRaw)%16 + 1
		h := newHarness(t, pages, Config{DirtyBudgetPages: budget, HardwareAssist: true})
		rng := sim.NewRNG(seed)
		shadow := make([]byte, pages)
		ops := int(nOps)%400 + 1
		for i := 0; i < ops; i++ {
			p := rng.Intn(pages)
			marker := byte(rng.Uint64()) | 1
			if err := h.region.WriteAt([]byte{marker}, int64(p)*4096); err != nil {
				return false
			}
			shadow[p] = marker
			h.mgr.Pump()
			if h.mgr.DirtyCount() > budget {
				return false
			}
			if rng.Intn(4) == 0 {
				h.clock.Advance(sim.Millisecond)
				h.mgr.Pump()
			}
		}
		buf := make([]byte, 1)
		for p := 0; p < pages; p++ {
			if err := h.region.ReadAt(buf, int64(p)*4096); err != nil || buf[0] != shadow[p] {
				return false
			}
		}
		h.mgr.FlushAll()
		return h.mgr.VerifyDurability() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestHWUnmapWithRewrittenClean(t *testing.T) {
	h := newHWHarness(t, 32, 16)
	mp, err := h.mgr.Map("m", 8*4096)
	if err != nil {
		t.Fatal(err)
	}
	for p := 0; p < 8; p++ {
		if err := mp.WriteAt([]byte{byte(p + 1)}, int64(p)*4096); err != nil {
			t.Fatal(err)
		}
	}
	// Start a clean and rewrite the page before the IO completes, so the
	// completion leaves it dirty (rewritten); Unmap must still converge.
	h.mgr.startClean(0)
	if err := mp.WriteAt([]byte{0x99}, 0); err != nil {
		t.Fatal(err)
	}
	if err := h.mgr.Unmap(mp); err != nil {
		t.Fatal(err)
	}
	durable, ok := h.dev.Durable(0)
	if !ok || durable[0] != 0x99 {
		t.Fatalf("unmap persisted stale contents: %v", durable[:1])
	}
	if h.mgr.DirtyCount() != 0 {
		t.Fatalf("dirty after unmap = %d", h.mgr.DirtyCount())
	}
}
