package core

import (
	"bytes"
	"strings"
	"testing"
	"testing/quick"

	"viyojit/internal/mmu"
	"viyojit/internal/nvdram"
	"viyojit/internal/power"
	"viyojit/internal/sim"
	"viyojit/internal/ssd"
)

// harness bundles a manager with its simulation plumbing.
type harness struct {
	clock  *sim.Clock
	events *sim.Queue
	region *nvdram.Region
	dev    *ssd.SSD
	mgr    *Manager
}

func newHarness(t testing.TB, pages int, cfg Config) *harness {
	t.Helper()
	return newDevHarness(t, pages, cfg, ssd.Config{})
}

// newDevHarness is newHarness on a caller-shaped device.
func newDevHarness(t testing.TB, pages int, cfg Config, devCfg ssd.Config) *harness {
	t.Helper()
	clock := sim.NewClock()
	events := sim.NewQueue()
	region, err := nvdram.New(clock, nvdram.Config{Size: int64(pages) * 4096})
	if err != nil {
		t.Fatal(err)
	}
	dev := ssd.New(clock, events, devCfg)
	mgr, err := NewManager(clock, events, region, dev, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return &harness{clock: clock, events: events, region: region, dev: dev, mgr: mgr}
}

// writePage writes one marker byte into the given page through the region
// (exercising the fault path) and pumps events.
func (h *harness) writePage(t testing.TB, page int, marker byte) {
	t.Helper()
	if err := h.region.WriteAt([]byte{marker}, int64(page)*4096); err != nil {
		t.Fatalf("write page %d: %v", page, err)
	}
	h.mgr.Pump()
}

func TestNewManagerValidation(t *testing.T) {
	clock := sim.NewClock()
	events := sim.NewQueue()
	region, _ := nvdram.New(clock, nvdram.Config{Size: 4 * 4096})
	dev := ssd.New(clock, events, ssd.Config{})
	if _, err := NewManager(clock, events, region, dev, Config{DirtyBudgetPages: 0}); err == nil {
		t.Fatal("zero budget accepted")
	}
	if _, err := NewManager(clock, events, region, dev, Config{DirtyBudgetPages: 1, EWMAWeight: 2}); err == nil {
		t.Fatal("EWMA weight 2 accepted")
	}
	badDev := ssd.New(clock, events, ssd.Config{PageSize: 8192})
	if _, err := NewManager(clock, events, region, badDev, Config{DirtyBudgetPages: 1}); err == nil {
		t.Fatal("mismatched page sizes accepted")
	}
}

func TestAllPagesProtectedAtStartup(t *testing.T) {
	h := newHarness(t, 8, Config{DirtyBudgetPages: 4})
	pt := h.region.PageTable()
	for p := 0; p < 8; p++ {
		if !pt.IsProtected(mmu.PageID(p)) {
			t.Fatalf("page %d not protected at startup", p)
		}
	}
}

func TestFirstWriteFaultsSecondDoesNot(t *testing.T) {
	h := newHarness(t, 8, Config{DirtyBudgetPages: 4})
	h.writePage(t, 2, 0xAA)
	if got := h.mgr.Stats().Faults; got != 1 {
		t.Fatalf("faults after first write = %d, want 1", got)
	}
	h.writePage(t, 2, 0xBB)
	if got := h.mgr.Stats().Faults; got != 1 {
		t.Fatalf("faults after repeat write = %d, want 1", got)
	}
	if h.mgr.DirtyCount() != 1 {
		t.Fatalf("dirty count = %d, want 1", h.mgr.DirtyCount())
	}
}

func TestBudgetEnforcedWithForcedClean(t *testing.T) {
	h := newHarness(t, 16, Config{DirtyBudgetPages: 3})
	for p := 0; p < 10; p++ {
		h.writePage(t, p, byte(p+1))
		if h.mgr.DirtyCount() > 3 {
			t.Fatalf("dirty count %d exceeds budget 3 after writing page %d", h.mgr.DirtyCount(), p)
		}
	}
	s := h.mgr.Stats()
	if s.ForcedCleans == 0 && s.ProactiveCleans == 0 {
		t.Fatal("no cleans despite writing past the budget")
	}
	if s.MaxDirtyObserved > 3 {
		t.Fatalf("max dirty observed = %d > budget", s.MaxDirtyObserved)
	}
}

func TestForcedCleanEvictsColdestPage(t *testing.T) {
	h := newHarness(t, 16, Config{DirtyBudgetPages: 3, Epoch: sim.Millisecond})
	// Dirty pages 0, 1, 2, then keep 1 and 2 hot across several epochs so
	// the aging history clearly separates them from page 0.
	h.writePage(t, 0, 1)
	h.writePage(t, 1, 2)
	h.writePage(t, 2, 3)
	for e := 0; e < 5; e++ {
		h.clock.Advance(sim.Millisecond)
		h.mgr.Pump() // epoch boundary
		h.writePage(t, 1, byte(10+e))
		h.writePage(t, 2, byte(20+e))
	}
	// Budget full: writing page 3 must evict page 0 (the cold one).
	h.writePage(t, 3, 9)
	if h.mgr.IsDirty(0) {
		t.Fatal("cold page 0 not chosen as victim")
	}
	for _, hot := range []mmu.PageID{1, 2} {
		if !h.mgr.IsDirty(hot) {
			t.Fatalf("hot page %d was evicted instead of the cold one", hot)
		}
	}
	// Page 0's contents must now be durable.
	durable, ok := h.dev.Durable(0)
	if !ok || durable[0] != 1 {
		t.Fatal("evicted page's contents not durable on SSD")
	}
}

func TestProactiveCleaningKeepsSlack(t *testing.T) {
	h := newHarness(t, 64, Config{DirtyBudgetPages: 16, Epoch: sim.Millisecond})
	// Dirty a steady stream of fresh pages: 4 new pages per epoch.
	page := 0
	for e := 0; e < 12; e++ {
		for i := 0; i < 4; i++ {
			h.writePage(t, page%64, byte(page))
			page++
		}
		h.clock.Advance(sim.Millisecond)
		h.mgr.Pump()
	}
	s := h.mgr.Stats()
	if s.ProactiveCleans == 0 {
		t.Fatal("no proactive cleans under sustained dirtying")
	}
	// With pressure ≈ 4 pages/epoch, the steady-state dirty count should
	// sit below the budget, leaving slack.
	if h.mgr.DirtyCount() >= 16 {
		t.Fatalf("dirty count %d has no slack below budget 16", h.mgr.DirtyCount())
	}
	if h.mgr.Pressure() < 1 {
		t.Fatalf("pressure = %v, want >= 1 with 4 new pages/epoch", h.mgr.Pressure())
	}
}

func TestPressureTracksEWMA(t *testing.T) {
	h := newHarness(t, 256, Config{DirtyBudgetPages: 200, Epoch: sim.Millisecond, EWMAWeight: 0.75})
	// Epoch 1: dirty 8 fresh pages. Pressure = 0.75*8 + 0.25*0 = 6.
	for p := 0; p < 8; p++ {
		h.writePage(t, p, 1)
	}
	h.clock.Advance(sim.Millisecond)
	h.mgr.Pump()
	if got := h.mgr.Pressure(); got < 5.9 || got > 6.1 {
		t.Fatalf("pressure after first epoch = %v, want 6", got)
	}
	// Epoch 2: no new pages. Pressure = 0.75*0 + 0.25*6 = 1.5.
	h.clock.Advance(sim.Millisecond)
	h.mgr.Pump()
	if got := h.mgr.Pressure(); got < 1.4 || got > 1.6 {
		t.Fatalf("pressure after idle epoch = %v, want 1.5", got)
	}
}

func TestWriteToCleaningPageWaitsAndRedirties(t *testing.T) {
	h := newHarness(t, 16, Config{DirtyBudgetPages: 2})
	h.writePage(t, 0, 1)
	h.writePage(t, 1, 2)
	// Fill the budget; the next write forces a clean of page 0 or 1.
	h.writePage(t, 2, 3)
	// Now write to whichever page was cleaned: it must fault again and be
	// re-admitted with fresh contents.
	var cleaned int
	for p := 0; p < 2; p++ {
		if !h.mgr.IsDirty(mmu.PageID(p)) {
			cleaned = p
			break
		}
	}
	h.writePage(t, cleaned, 0x77)
	if h.mgr.DirtyCount() > 2 {
		t.Fatalf("budget violated: %d", h.mgr.DirtyCount())
	}
	buf := make([]byte, 1)
	if err := h.region.ReadAt(buf, int64(cleaned)*4096); err != nil || buf[0] != 0x77 {
		t.Fatalf("re-dirtied page lost data: %v %v", buf, err)
	}
}

func TestFlushAllEmptiesDirtySet(t *testing.T) {
	h := newHarness(t, 32, Config{DirtyBudgetPages: 8})
	for p := 0; p < 6; p++ {
		h.writePage(t, p, byte(p+1))
	}
	h.mgr.FlushAll()
	if h.mgr.DirtyCount() != 0 {
		t.Fatalf("dirty count after FlushAll = %d", h.mgr.DirtyCount())
	}
	if err := h.mgr.VerifyDurability(); err != nil {
		t.Fatalf("durability check failed after FlushAll: %v", err)
	}
}

func TestVerifyDurabilityDetectsDivergence(t *testing.T) {
	h := newHarness(t, 8, Config{DirtyBudgetPages: 4})
	h.writePage(t, 1, 0x42)
	// Page 1 is dirty and not yet on the SSD.
	if err := h.mgr.VerifyDurability(); err == nil {
		t.Fatal("VerifyDurability passed with a dirty page")
	}
	h.mgr.FlushAll()
	if err := h.mgr.VerifyDurability(); err != nil {
		t.Fatal(err)
	}
}

func TestPowerFailFlushesWithinEnergy(t *testing.T) {
	h := newHarness(t, 64, Config{DirtyBudgetPages: 16})
	for p := 0; p < 16; p++ {
		h.writePage(t, p, byte(p+1))
	}
	pm := power.Default()
	// Provision energy for the budget's transfer time plus per-IO latency
	// headroom (provisioning must be conservative; paper §5.1).
	watts := pm.FlushWatts(h.region.Size())
	flushTime := h.dev.FlushTimeFor(16) + 10*sim.Millisecond
	joules := watts * flushTime.Seconds()

	report := h.mgr.PowerFail(pm, joules)
	if report.DirtyAtFailure != 16 {
		t.Fatalf("dirty at failure = %d, want 16", report.DirtyAtFailure)
	}
	if !report.Survived {
		t.Fatalf("flush did not survive: used %v J of %v J", report.EnergyUsedJoules, report.EnergyAvailableJoules)
	}
	if err := h.mgr.VerifyDurability(); err != nil {
		t.Fatalf("data lost across power failure: %v", err)
	}
}

func TestPowerFailUnderProvisionedReportsFailure(t *testing.T) {
	h := newHarness(t, 64, Config{DirtyBudgetPages: 32})
	for p := 0; p < 32; p++ {
		h.writePage(t, p, byte(p+1))
	}
	report := h.mgr.PowerFail(power.Default(), 1e-9) // essentially no battery
	if report.Survived {
		t.Fatal("flush reported survival with no energy")
	}
}

func TestSetDirtyBudgetDecreaseCleansDown(t *testing.T) {
	h := newHarness(t, 64, Config{DirtyBudgetPages: 16})
	for p := 0; p < 16; p++ {
		h.writePage(t, p, byte(p+1))
	}
	if err := h.mgr.SetDirtyBudgetSync(5); err != nil {
		t.Fatal(err)
	}
	if h.mgr.DirtyCount() > 5 {
		t.Fatalf("dirty count %d exceeds retuned budget 5", h.mgr.DirtyCount())
	}
	if h.mgr.Draining() {
		t.Fatal("sync retune left a drain in progress")
	}
	if h.mgr.Stats().RetuneCleans == 0 {
		t.Fatal("no retune cleans recorded")
	}
	if err := h.mgr.SetDirtyBudget(0); err == nil {
		t.Fatal("SetDirtyBudget(0) accepted")
	}
}

func TestSetDirtyBudgetIncreaseIsImmediate(t *testing.T) {
	h := newHarness(t, 16, Config{DirtyBudgetPages: 2})
	h.writePage(t, 0, 1)
	h.writePage(t, 1, 2)
	if err := h.mgr.SetDirtyBudget(8); err != nil {
		t.Fatal(err)
	}
	before := h.mgr.Stats().ForcedCleans
	for p := 2; p < 8; p++ {
		h.writePage(t, p, byte(p))
	}
	if h.mgr.Stats().ForcedCleans != before {
		t.Fatal("forced cleans occurred despite raised budget")
	}
}

func TestEpochsAdvance(t *testing.T) {
	h := newHarness(t, 8, Config{DirtyBudgetPages: 4, Epoch: sim.Millisecond})
	h.events.RunUntil(h.clock, sim.Time(10*sim.Millisecond))
	if got := h.mgr.Stats().Epochs; got < 9 || got > 11 {
		t.Fatalf("epochs after 10 ms = %d, want ~10", got)
	}
}

// TestEpochChainKeepsPeriodButSkipsMissedOnes: a tick that fires late
// re-arms off its scheduled time, so the period does not stretch; a clock
// that jumped several periods with nothing pumped (a restore) gets one
// tick and a fresh period, not one replayed tick per period missed.
func TestEpochChainKeepsPeriodButSkipsMissedOnes(t *testing.T) {
	h := newHarness(t, 8, Config{DirtyBudgetPages: 4, Epoch: sim.Millisecond})
	first := h.mgr.epochEvent.At
	h.clock.AdvanceTo(first.Add(300 * sim.Microsecond)) // the first tick fires 0.3 ms late
	h.mgr.Pump()
	if next := h.mgr.epochEvent.At; h.mgr.Stats().Epochs != 1 || next != first.Add(sim.Millisecond) {
		t.Fatalf("late tick: %d epochs, next at %v, want 1 and %v", h.mgr.Stats().Epochs, next, first.Add(sim.Millisecond))
	}
	h.clock.Advance(10 * sim.Millisecond)
	h.mgr.Pump()
	now := h.clock.Now()
	if next := h.mgr.epochEvent.At; h.mgr.Stats().Epochs != 2 || next != now.Add(sim.Millisecond) {
		t.Fatalf("after a 10 ms jump: %d epochs, next at %v (now %v), want 2 and one period from now", h.mgr.Stats().Epochs, next, now)
	}
}

func TestCloseStopsEpochTask(t *testing.T) {
	h := newHarness(t, 8, Config{DirtyBudgetPages: 4, Epoch: sim.Millisecond})
	h.mgr.Close()
	h.mgr.Close() // idempotent
	before := h.mgr.Stats().Epochs
	h.clock.Advance(10 * sim.Millisecond)
	h.mgr.Pump()
	if h.mgr.Stats().Epochs != before {
		t.Fatal("epoch task ran after Close")
	}
}

// Property: under an arbitrary write workload, the dirty count never
// exceeds the budget and no data is ever lost.
func TestBudgetInvariantProperty(t *testing.T) {
	f := func(seed uint64, budgetRaw uint8, nOps uint16) bool {
		const pages = 64
		budget := int(budgetRaw)%16 + 1
		h := newHarness(t, pages, Config{DirtyBudgetPages: budget})
		rng := sim.NewRNG(seed)
		shadow := make([]byte, pages)
		ops := int(nOps)%500 + 1
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
			// Occasionally advance across epoch boundaries.
			if rng.Intn(4) == 0 {
				h.clock.Advance(sim.Millisecond)
				h.mgr.Pump()
			}
		}
		// All data still readable and correct.
		buf := make([]byte, 1)
		for p := 0; p < pages; p++ {
			if err := h.region.ReadAt(buf, int64(p)*4096); err != nil {
				return false
			}
			if buf[0] != shadow[p] {
				return false
			}
		}
		// After a full flush, everything is durable.
		h.mgr.FlushAll()
		return h.mgr.VerifyDurability() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// Property: power failure at an arbitrary point never loses data when the
// battery covers the budget.
func TestPowerFailDurabilityProperty(t *testing.T) {
	pm := power.Default()
	f := func(seed uint64, nOps uint16) bool {
		const pages, budget = 64, 8
		h := newHarness(t, pages, Config{DirtyBudgetPages: budget})
		rng := sim.NewRNG(seed)
		ops := int(nOps)%300 + 1
		for i := 0; i < ops; i++ {
			p := rng.Intn(pages)
			if err := h.region.WriteAt([]byte{byte(rng.Uint64())}, int64(p)*4096); err != nil {
				return false
			}
			h.mgr.Pump()
			if rng.Intn(3) == 0 {
				h.clock.Advance(sim.Millisecond)
				h.mgr.Pump()
			}
		}
		// Battery provisioned for the budget plus SSD latency headroom.
		watts := pm.FlushWatts(h.region.Size())
		joules := watts * (h.dev.FlushTimeFor(budget) + 10*sim.Millisecond).Seconds()
		report := h.mgr.PowerFail(pm, joules)
		return report.Survived && h.mgr.VerifyDurability() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// TestVerifyDurabilityPinsTheWalk: from a state that passes, each way a
// page can stop being restorable fails the walk at that page — data nothing
// made durable next to pages that are, a durable copy of a page the region
// never held, one flipped byte. The region spans several backing chunks and
// only the first is ever stored into.
func TestVerifyDurabilityPinsTheWalk(t *testing.T) {
	const pages = 256
	cases := []struct {
		name   string
		damage func(t *testing.T, h *harness)
		want   string
	}{
		{"data with no durable copy beside durable pages", func(t *testing.T, h *harness) {
			if err := h.region.RestorePage(5, bytes.Repeat([]byte{0, 0, 9}, 4096)[:4096]); err != nil {
				t.Fatal(err)
			}
		}, "page 5 has data but no durable copy"},
		{"durable copy of a page the region never held", func(t *testing.T, h *harness) {
			h.dev.SeedDurable(200, bytes.Repeat([]byte{7}, 4096))
		}, "page 200 diverges from durable copy"},
		{"one byte flipped in a durable page", func(t *testing.T, h *harness) {
			live := bytes.Clone(h.region.RawPage(3))
			live[4095] ^= 0x10
			if err := h.region.RestorePage(3, live); err != nil {
				t.Fatal(err)
			}
		}, "page 3 diverges from durable copy"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			h := newHarness(t, pages, Config{DirtyBudgetPages: 8})
			for _, p := range []int{1, 3, 4} {
				h.writePage(t, p, byte(p))
			}
			h.mgr.FlushAll()
			if err := h.mgr.VerifyDurability(); err != nil {
				t.Fatal(err)
			}
			tc.damage(t, h)
			if err := h.mgr.VerifyDurability(); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("VerifyDurability = %v, want an error saying %q", err, tc.want)
			}
		})
	}
}
