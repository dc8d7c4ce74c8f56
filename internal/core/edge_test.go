package core

import (
	"testing"

	"viyojit/internal/mmu"
	"viyojit/internal/nvdram"
	"viyojit/internal/sim"
	"viyojit/internal/ssd"
)

func TestUnmapWithInFlightCleans(t *testing.T) {
	// Unmap must wait for in-range cleans already on the wire, then
	// persist the rest, even when the SSD is slow.
	clock := sim.NewClock()
	events := sim.NewQueue()
	h := &harness{clock: clock, events: events}
	var err error
	h.region, err = newRegionImpl(clock, 32)
	if err != nil {
		t.Fatal(err)
	}
	h.dev = ssd.New(clock, events, ssd.Config{WriteBandwidth: 1 << 20, PerIOLatency: 2 * sim.Millisecond})
	h.mgr, err = NewManager(clock, events, h.region, h.dev, Config{DirtyBudgetPages: 16})
	if err != nil {
		t.Fatal(err)
	}
	mp, err := h.mgr.Map("m", 8*4096)
	if err != nil {
		t.Fatal(err)
	}
	for p := 0; p < 8; p++ {
		if err := mp.WriteAt([]byte{byte(p + 1)}, int64(p)*4096); err != nil {
			t.Fatal(err)
		}
	}
	// Kick off a clean manually, then unmap immediately.
	h.mgr.startClean(h.region.PageOf(mp.Base()))
	if err := h.mgr.Unmap(mp); err != nil {
		t.Fatal(err)
	}
	if h.mgr.DirtyCount() != 0 {
		t.Fatalf("dirty after unmap = %d", h.mgr.DirtyCount())
	}
	for p := 0; p < 8; p++ {
		durable, ok := h.dev.Durable(mmu.PageID(p))
		if !ok || durable[0] != byte(p+1) {
			t.Fatalf("page %d not persisted by unmap", p)
		}
	}
}

// newRegionImpl builds a bare region for tests that wire custom SSD
// configurations.
func newRegionImpl(clock *sim.Clock, pages int) (*nvdram.Region, error) {
	return nvdram.New(clock, nvdram.Config{Size: int64(pages) * 4096})
}

func TestSkippedEpochStat(t *testing.T) {
	// An epoch tick that stalls past a full epoch (glacial SSD, deep
	// proactive cleaning) makes the next tick fire reentrantly and be
	// skipped — counted, not corrupted.
	clock := sim.NewClock()
	events := sim.NewQueue()
	region, err := newRegionImpl(clock, 256)
	if err != nil {
		t.Fatal(err)
	}
	// Glacial device: 4 KiB takes ~40 ms, queue depth 1.
	dev := ssd.New(clock, events, ssd.Config{WriteBandwidth: 100 << 10, MaxOutstanding: 1})
	mgr, err := NewManager(clock, events, region, dev, Config{DirtyBudgetPages: 16})
	if err != nil {
		t.Fatal(err)
	}
	// Sustained dirtying forces deep proactive cleaning whose submissions
	// stall past epochs.
	for p := 0; p < 200; p++ {
		if err := region.WriteAt([]byte{byte(p | 1)}, int64(p)*4096); err != nil {
			t.Fatal(err)
		}
		mgr.Pump()
	}
	clock.Advance(50 * sim.Millisecond)
	mgr.Pump()
	if mgr.DirtyCount() > 16 {
		t.Fatalf("budget violated under overload: %d", mgr.DirtyCount())
	}
	// The stat is allowed to be zero on some schedules; the hard
	// requirement is that the system stayed consistent, verified above
	// and by the invariant checks that run on every transition.
	_ = mgr.Stats().SkippedEpochs
}

func TestCleanOneSyncNoVictimReturnsFalse(t *testing.T) {
	h := newHarness(t, 8, Config{DirtyBudgetPages: 4})
	// Empty dirty set: nothing to clean.
	if h.mgr.cleanOneSync() {
		t.Fatal("cleanOneSync succeeded with an empty dirty set")
	}
}

func TestSetDirtyBudgetToCurrentCountIsCleanFree(t *testing.T) {
	h := newHarness(t, 16, Config{DirtyBudgetPages: 8})
	for p := 0; p < 5; p++ {
		h.writePage(t, p, byte(p+1))
	}
	before := h.mgr.Stats().RetuneCleans
	if err := h.mgr.SetDirtyBudget(5); err != nil {
		t.Fatal(err)
	}
	if h.mgr.Stats().RetuneCleans != before {
		t.Fatal("retune to exactly the dirty count forced cleans")
	}
	if h.mgr.DirtyBudget() != 5 {
		t.Fatalf("budget = %d", h.mgr.DirtyBudget())
	}
}

func TestBudgetOneSurvives(t *testing.T) {
	// The degenerate minimum budget: every new page evicts the previous.
	h := newHarness(t, 16, Config{DirtyBudgetPages: 1})
	for p := 0; p < 10; p++ {
		h.writePage(t, p, byte(p+1))
		if h.mgr.DirtyCount() > 1 {
			t.Fatalf("dirty %d with budget 1", h.mgr.DirtyCount())
		}
	}
	h.mgr.FlushAll()
	if err := h.mgr.VerifyDurability(); err != nil {
		t.Fatal(err)
	}
}

func TestPressureNeverNegative(t *testing.T) {
	h := newHarness(t, 64, Config{DirtyBudgetPages: 32})
	for e := 0; e < 100; e++ {
		h.clock.Advance(sim.Millisecond)
		h.mgr.Pump()
		if h.mgr.Pressure() < 0 {
			t.Fatalf("pressure went negative: %v", h.mgr.Pressure())
		}
	}
}
