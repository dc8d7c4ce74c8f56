package mmu

import "testing"

func newTLB(capacity, numPages int) *tlb {
	return &tlb{capacity: capacity, slots: make([]tlbEntry, numPages), gen: 1}
}

func TestTLBFillAndLookup(t *testing.T) {
	tl := newTLB(4, 16)
	tl.fill(10, false)
	if tl.lookup(10) == nil {
		t.Fatal("lookup missed after fill")
	}
	if tl.lookup(11) != nil {
		t.Fatal("lookup hit on never-filled page")
	}
}

func TestTLBCapacityEviction(t *testing.T) {
	tl := newTLB(3, 16)
	for p := PageID(0); p < 5; p++ {
		tl.fill(p, false)
	}
	if tl.size() != 3 {
		t.Fatalf("size = %d, want 3", tl.size())
	}
	// FIFO: the oldest entries (0, 1) were evicted.
	if tl.lookup(0) != nil || tl.lookup(1) != nil {
		t.Fatal("oldest entries not evicted")
	}
	for p := PageID(2); p < 5; p++ {
		if tl.lookup(p) == nil {
			t.Fatalf("recent entry %d evicted", p)
		}
	}
}

func TestTLBInvalidate(t *testing.T) {
	tl := newTLB(4, 16)
	tl.fill(7, true)
	if !tl.invalidate(7) {
		t.Fatal("invalidate of cached page returned false")
	}
	if tl.invalidate(7) {
		t.Fatal("invalidate of absent page returned true")
	}
	if tl.lookup(7) != nil {
		t.Fatal("entry survived invalidation")
	}
}

func TestTLBFlush(t *testing.T) {
	tl := newTLB(8, 16)
	for p := PageID(0); p < 8; p++ {
		tl.fill(p, false)
	}
	tl.flush()
	if tl.size() != 0 {
		t.Fatalf("size after flush = %d", tl.size())
	}
	for p := PageID(0); p < 8; p++ {
		if tl.lookup(p) != nil {
			t.Fatalf("entry %d survived flush", p)
		}
	}
}

func TestTLBRefillSameEntryUpdatesProtection(t *testing.T) {
	tl := newTLB(4, 16)
	e1 := tl.fill(3, false)
	e1.dirtyPropagated = true
	e2 := tl.fill(3, true)
	if e2 != e1 {
		t.Fatal("refill allocated a new entry for a cached page")
	}
	if !e2.writeProtected {
		t.Fatal("refill did not update protection")
	}
}

func TestTLBEvictionSkipsInvalidatedSlots(t *testing.T) {
	tl := newTLB(3, 16)
	tl.fill(0, false)
	tl.fill(1, false)
	tl.fill(2, false)
	tl.invalidate(0) // leaves a dead slot at the fifo head
	tl.fill(3, false)
	// 1 should now be the eviction candidate, not the dead slot.
	tl.fill(4, false)
	if tl.lookup(1) != nil {
		t.Fatal("expected entry 1 to be evicted after dead-slot skip")
	}
	if tl.lookup(2) == nil || tl.lookup(3) == nil || tl.lookup(4) == nil {
		t.Fatal("live entries lost during eviction")
	}
	if tl.size() != 3 {
		t.Fatalf("size = %d, want 3", tl.size())
	}
}

func TestTLBCompactBoundsFIFO(t *testing.T) {
	tl := newTLB(4, 10000)
	// Churn enough entries to force many evictions and check the fifo ring
	// does not grow without bound.
	for p := PageID(0); p < 10000; p++ {
		tl.fill(p, false)
	}
	if len(tl.fifo)-tl.head > 4+64 {
		t.Fatalf("fifo ring grew unbounded: len=%d head=%d", len(tl.fifo), tl.head)
	}
}
