package mmu

import (
	"errors"
	"slices"
	"testing"
	"testing/quick"

	"viyojit/internal/sim"
)

func newTestPT(pages int) (*PageTable, *sim.Clock) {
	c := sim.NewClock()
	return NewPageTable(c, DefaultCosts(), pages, 0), c
}

func TestWriteSetsDirtyBit(t *testing.T) {
	pt, _ := newTestPT(8)
	if err := pt.Write(3); err != nil {
		t.Fatal(err)
	}
	if !pt.IsDirty(3) {
		t.Fatal("dirty bit not set after write")
	}
	if pt.IsDirty(2) {
		t.Fatal("dirty bit set on unwritten page")
	}
}

func TestWriteToProtectedPageFaults(t *testing.T) {
	pt, _ := newTestPT(8)
	pt.Protect(5)
	var faulted []PageID
	pt.SetFaultHandler(func(p PageID) {
		faulted = append(faulted, p)
		pt.Unprotect(p)
	})
	if err := pt.Write(5); err != nil {
		t.Fatal(err)
	}
	if len(faulted) != 1 || faulted[0] != 5 {
		t.Fatalf("fault handler calls = %v, want [5]", faulted)
	}
	if !pt.IsDirty(5) {
		t.Fatal("dirty bit not set after resolved fault")
	}
	// Second write to the now-unprotected page must not fault again.
	if err := pt.Write(5); err != nil {
		t.Fatal(err)
	}
	if len(faulted) != 1 {
		t.Fatalf("second write faulted: %v", faulted)
	}
}

func TestWriteWithoutHandlerFails(t *testing.T) {
	pt, _ := newTestPT(4)
	pt.Protect(0)
	err := pt.Write(0)
	if !errors.Is(err, ErrProtected) {
		t.Fatalf("err = %v, want ErrProtected", err)
	}
}

func TestWriteHandlerLeavesProtectedFails(t *testing.T) {
	pt, _ := newTestPT(4)
	pt.Protect(0)
	pt.SetFaultHandler(func(PageID) {}) // refuses to unprotect
	if err := pt.Write(0); !errors.Is(err, ErrProtected) {
		t.Fatalf("err = %v, want ErrProtected", err)
	}
}

// The stale-dirty-bit effect: after a scan that clears dirty bits WITHOUT
// flushing the TLB, a page whose translation is still cached does not get
// its PTE dirty bit re-set on subsequent writes, so the next scan misses
// it. With a flush, the next scan sees it. This asymmetry is the mechanism
// behind the paper's §6.3 TLB ablation.
func TestStaleDirtyBitsWithoutTLBFlush(t *testing.T) {
	// Without flush: stale.
	pt, _ := newTestPT(8)
	if err := pt.Write(2); err != nil {
		t.Fatal(err)
	}
	pt.CheckAndClearDirtyPages([]PageID{2}, nil, false) // clears PTE bit, TLB entry survives
	if err := pt.Write(2); err != nil {
		t.Fatal(err)
	}
	if got := pt.CheckAndClearDirtyPages([]PageID{2}, nil, false); len(got) != 0 {
		t.Fatalf("unflushed scan saw %v; cached translation should hide the write", got)
	}

	// With flush: fresh.
	pt2, _ := newTestPT(8)
	if err := pt2.Write(2); err != nil {
		t.Fatal(err)
	}
	pt2.CheckAndClearDirtyPages([]PageID{2}, nil, true)
	if err := pt2.Write(2); err != nil {
		t.Fatal(err)
	}
	got := pt2.CheckAndClearDirtyPages([]PageID{2}, nil, true)
	if len(got) != 1 || got[0] != 0 {
		t.Fatalf("flushed scan saw %v, want [0] (page 2)", got)
	}
}

func TestProtectInvalidatesTLBEntry(t *testing.T) {
	pt, _ := newTestPT(8)
	if err := pt.Write(1); err != nil { // fills TLB
		t.Fatal(err)
	}
	before := pt.Stats().TLBMisses
	pt.Protect(1) // must invalidate the cached translation
	pt.SetFaultHandler(func(p PageID) { pt.Unprotect(p) })
	if err := pt.Write(1); err != nil {
		t.Fatal(err)
	}
	if pt.Stats().TLBMisses == before {
		t.Fatal("write after Protect did not re-walk: stale TLB entry used")
	}
	if pt.Stats().Faults != 1 {
		t.Fatalf("faults = %d, want 1", pt.Stats().Faults)
	}
}

func TestClearDirtySinglePage(t *testing.T) {
	pt, _ := newTestPT(8)
	if err := pt.Write(6); err != nil {
		t.Fatal(err)
	}
	pt.ClearDirty(6)
	if pt.IsDirty(6) {
		t.Fatal("dirty bit survived ClearDirty")
	}
	// ClearDirty invalidates the TLB entry, so a fresh write re-sets it.
	if err := pt.Write(6); err != nil {
		t.Fatal(err)
	}
	if !pt.IsDirty(6) {
		t.Fatal("dirty bit not re-set after ClearDirty+write")
	}
}

func TestCostsAdvanceClock(t *testing.T) {
	pt, clock := newTestPT(8)
	t0 := clock.Now()
	if err := pt.Write(0); err != nil {
		t.Fatal(err)
	}
	if clock.Now() == t0 {
		t.Fatal("write charged no virtual time")
	}
	t1 := clock.Now()
	pt.FlushTLB()
	if clock.Now().Sub(t1) != DefaultCosts().TLBFlush {
		t.Fatalf("TLB flush charged %v, want %v", clock.Now().Sub(t1), DefaultCosts().TLBFlush)
	}
}

func TestFaultCostChargedOnTrap(t *testing.T) {
	pt, clock := newTestPT(8)
	pt.SetFaultHandler(func(p PageID) { pt.Unprotect(p) })

	// Unprotected write cost.
	if err := pt.Write(0); err != nil {
		t.Fatal(err)
	}
	base := clock.Now()

	pt.Protect(1)
	afterProtect := clock.Now()
	if err := pt.Write(1); err != nil {
		t.Fatal(err)
	}
	faultCost := clock.Now().Sub(afterProtect)
	plainCost := sim.Duration(base) // cost of the first plain write
	if faultCost <= plainCost {
		t.Fatalf("faulting write (%v) not more expensive than plain write (%v)", faultCost, plainCost)
	}
}

func TestOutOfRangePanics(t *testing.T) {
	pt, _ := newTestPT(4)
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range page did not panic")
		}
	}()
	pt.Read(4)
}

func TestStatsCounters(t *testing.T) {
	pt, _ := newTestPT(8)
	pt.SetFaultHandler(func(p PageID) { pt.Unprotect(p) })
	pt.Protect(0)
	_ = pt.Write(0)
	pt.Read(1)
	s := pt.Stats()
	if s.Writes != 1 || s.Reads != 1 || s.Faults != 1 {
		t.Fatalf("stats = %+v", s)
	}
}

// Property: a write to an unprotected page always results in the dirty bit
// being observable by a flushed scan, regardless of prior TLB state.
func TestDirtyVisibleAfterFlushedScanProperty(t *testing.T) {
	f := func(seed uint64, writes []uint8) bool {
		pt, _ := newTestPT(256)
		rng := sim.NewRNG(seed)
		// Random prior activity.
		for i := 0; i < 64; i++ {
			_ = pt.Write(PageID(rng.Intn(256)))
		}
		all := make([]PageID, 256)
		for i := range all {
			all[i] = PageID(i)
		}
		pt.CheckAndClearDirtyPages(all, nil, true)
		want := map[PageID]bool{}
		for _, w := range writes {
			p := PageID(w)
			if err := pt.Write(p); err != nil {
				return false
			}
			want[p] = true
		}
		got := pt.CheckAndClearDirtyPages(all, nil, true)
		if len(got) != len(want) {
			return false
		}
		for _, i := range got {
			if !want[all[i]] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestCheckAndClearDirtyPages(t *testing.T) {
	pt, clock := newTestPT(32)
	for _, p := range []PageID{3, 7, 11} {
		if err := pt.Write(p); err != nil {
			t.Fatal(err)
		}
	}
	// Check a set that includes dirty and clean pages; the result indexes
	// into it, in order, and appends to what dst held.
	t0 := clock.Now()
	got := pt.CheckAndClearDirtyPages([]PageID{3, 4, 7, 8}, []int{-1}, true)
	if clock.Now() == t0 {
		t.Fatal("targeted scan charged no time")
	}
	if !slices.Equal(got, []int{-1, 0, 2}) {
		t.Fatalf("scan returned %v, want [-1 0 2] (pages 3 and 7 after the caller's -1)", got)
	}
	// Page 11 was not in the scan set and keeps its dirty bit.
	if !pt.IsDirty(11) {
		t.Fatal("unscanned page lost its dirty bit")
	}
	if pt.IsDirty(3) || pt.IsDirty(7) {
		t.Fatal("scanned pages kept their dirty bits")
	}
}

func TestCheckAndClearDirtyPagesStaleWithoutFlush(t *testing.T) {
	pt, _ := newTestPT(8)
	if err := pt.Write(2); err != nil {
		t.Fatal(err)
	}
	pt.CheckAndClearDirtyPages([]PageID{2}, nil, false)
	if err := pt.Write(2); err != nil {
		t.Fatal(err)
	}
	// Without a flush, the cached translation hides the re-update.
	if got := pt.CheckAndClearDirtyPages([]PageID{2}, nil, false); len(got) != 0 {
		t.Fatalf("unflushed targeted scan saw %v", got)
	}
	// A flush makes *future* writes visible again (writes already hidden
	// behind the cached translation are gone for good — the x86
	// semantics behind the §6.3 ablation's precision loss).
	pt.FlushTLB()
	if err := pt.Write(2); err != nil {
		t.Fatal(err)
	}
	if got := pt.CheckAndClearDirtyPages([]PageID{2}, nil, true); len(got) != 1 {
		t.Fatalf("post-flush targeted scan saw %v, want [0] (page 2)", got)
	}
}
