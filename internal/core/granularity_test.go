package core

import (
	"fmt"
	"testing"

	"viyojit/internal/kvstore"
	"viyojit/internal/mmu"
	"viyojit/internal/nvdram"
	"viyojit/internal/pheap"
	"viyojit/internal/power"
	"viyojit/internal/recovery"
	"viyojit/internal/sim"
	"viyojit/internal/ssd"
)

// The paper's §7 finer-granularity variant is this manager over
// mmu.SectorSize pages charged mmu.SectorCosts, on a device formatted with
// sector-sized LBAs: the budget, trap, victim order and pressure threshold
// are the page mechanism's, applied to sectors.

// newSectorHarness is a manager over a region of size bytes in sectors,
// with a budget of budgetBytes.
func newSectorHarness(t testing.TB, size, budgetBytes int64) *harness {
	t.Helper()
	clock := sim.NewClock()
	events := sim.NewQueue()
	region, err := nvdram.New(clock, nvdram.Config{Size: size, PageSize: mmu.SectorSize, Costs: mmu.SectorCosts()})
	if err != nil {
		t.Fatal(err)
	}
	dev := ssd.New(clock, events, ssd.Config{PageSize: mmu.SectorSize})
	mgr, err := NewManager(clock, events, region, dev, Config{DirtyBudgetPages: int(budgetBytes / mmu.SectorSize)})
	if err != nil {
		t.Fatal(err)
	}
	return &harness{clock: clock, events: events, region: region, dev: dev, mgr: mgr}
}

// dirtyBytes is what the battery must cover now.
func (h *harness) dirtyBytes() int64 {
	return int64(h.mgr.DirtyCount()) * int64(h.region.PageSize())
}

func TestDirtyBytesTrackSectorsNotPages(t *testing.T) {
	h := newSectorHarness(t, 1<<20, 64<<10)
	// A 16-byte write dirties exactly one 256 B sector — not a 4 KiB
	// page. This is the §7 battery-utilisation win.
	if err := h.region.WriteAt(make([]byte, 16), 0); err != nil {
		t.Fatal(err)
	}
	if got := h.dirtyBytes(); got != 256 {
		t.Fatalf("dirty bytes = %d, want 256", got)
	}
	// A write spanning a sector boundary dirties two.
	if err := h.region.WriteAt(make([]byte, 16), 512-8); err != nil {
		t.Fatal(err)
	}
	if got := h.dirtyBytes(); got != 3*256 {
		t.Fatalf("dirty bytes = %d, want 768", got)
	}
}

func TestBatteryBytesAdvantageOverPages(t *testing.T) {
	// The §7 claim, quantified: under small scattered writes, the bytes a
	// byte-granularity battery must cover are far below the page-
	// granularity equivalent (pages written × 4 KiB).
	h := newSectorHarness(t, 4<<20, 1<<20)
	rng := sim.NewRNG(3)
	const writes = 500
	pages := map[int64]struct{}{}
	for i := 0; i < writes; i++ {
		off := rng.Int63n(h.region.Size() - 64)
		if err := h.region.WriteAt(make([]byte, 64), off); err != nil {
			t.Fatal(err)
		}
		pages[off/4096] = struct{}{}
		h.mgr.Pump()
	}
	pageBytes := int64(len(pages)) * 4096
	if h.dirtyBytes()*4 > pageBytes {
		t.Fatalf("byte-granularity dirty bytes %d not ≪ page-granularity %d", h.dirtyBytes(), pageBytes)
	}
}

// The persistent heap and KV store run unchanged on sector tracking: the
// store's small records dirty sectors, a power failure flushes them, and
// a region restored from the device reopens with every record's latest
// value.
func TestKVStoreOnByteGranularity(t *testing.T) {
	const size, budgetBytes = 8 << 20, 1 << 20
	h := newSectorHarness(t, size, budgetBytes)
	mp, err := h.mgr.Map("heap", size)
	if err != nil {
		t.Fatal(err)
	}
	heap, err := pheap.Format(mp)
	if err != nil {
		t.Fatal(err)
	}
	store, err := kvstore.Create(heap, 512)
	if err != nil {
		t.Fatal(err)
	}

	const records = 800
	for i := 0; i < records; i++ {
		if err := store.Put([]byte(fmt.Sprintf("key%05d", i)), []byte(fmt.Sprintf("value-%05d-payload", i))); err != nil {
			t.Fatal(err)
		}
		h.mgr.Pump()
	}
	// Update a hot subset repeatedly.
	for round := 0; round < 5; round++ {
		for i := 0; i < 50; i++ {
			if err := store.Put([]byte(fmt.Sprintf("key%05d", i)), []byte(fmt.Sprintf("hot-%d-%05d", round, i))); err != nil {
				t.Fatal(err)
			}
			h.mgr.Pump()
		}
		h.clock.Advance(sim.Millisecond)
		h.mgr.Pump()
	}
	if peak := h.mgr.Stats().MaxDirtyObserved; peak > budgetBytes/mmu.SectorSize {
		t.Fatalf("budget violated: %d sectors", peak)
	}

	// Power failure: the battery covers the budget's bytes plus a fixed
	// overhead, and everything is recoverable.
	pm := power.Default()
	seconds := float64(budgetBytes)/float64(h.dev.Config().WriteBandwidth) + 0.002
	report := h.mgr.PowerFail(pm, pm.FlushWatts(size)*seconds)
	if !report.Survived {
		t.Fatalf("flush did not survive: %+v", report)
	}
	if err := h.mgr.VerifyDurability(); err != nil {
		t.Fatal(err)
	}

	// A rebooted machine restored from the device, its heap mapped again,
	// reopens with every record's latest value.
	rb := newSectorHarness(t, size, budgetBytes)
	if _, err := recovery.RestoreVerified(rb.clock, rb.region, rb.dev, h.dev); err != nil {
		t.Fatal(err)
	}
	mp2, err := rb.mgr.Map("heap", size)
	if err != nil {
		t.Fatal(err)
	}
	heap2, err := pheap.Open(mp2)
	if err != nil {
		t.Fatal(err)
	}
	store2, err := kvstore.Open(heap2)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < records; i++ {
		want := fmt.Sprintf("value-%05d-payload", i)
		if i < 50 {
			want = fmt.Sprintf("hot-4-%05d", i)
		}
		got, ok, err := store2.Get([]byte(fmt.Sprintf("key%05d", i)))
		if err != nil || !ok {
			t.Fatalf("record %d lost (ok=%v err=%v)", i, ok, err)
		}
		if string(got) != want {
			t.Fatalf("record %d = %q, want %q", i, got, want)
		}
	}
}
