package core

import (
	"testing"

	"viyojit/internal/mmu"
	"viyojit/internal/sim"
)

// TestAdmissionAndIdleTickZeroAlloc guards the two manager paths every
// served write and every epoch go through: admitting a faulting page to
// the dirty set, and an epoch tick over a large dirty set that is under
// the cleaning threshold (scan, histories, candidate collection, re-armed
// timer — and no victim ordered). Neither may allocate.
func TestAdmissionAndIdleTickZeroAlloc(t *testing.T) {
	const d = 4096
	h := newHarness(t, d, Config{DirtyBudgetPages: 2 * d})
	// Warm-up: grow every buffer to its working size, then clean the
	// pages again so the measured writes fault.
	for p := 0; p < d; p++ {
		h.writePage(t, p, 1)
	}
	h.mgr.FlushAll()

	next := 0
	faults := h.mgr.Stats().Faults
	if allocs := testing.AllocsPerRun(d-1, func() {
		if err := h.region.WriteAt([]byte{2}, int64(next)*4096); err != nil {
			t.Fatal(err)
		}
		next++
	}); allocs != 0 {
		t.Errorf("a first-write fault allocates %.0f times; admission must not allocate", allocs)
	}
	if got := h.mgr.Stats().Faults - faults; got != d || h.mgr.DirtyCount() != d {
		t.Fatalf("%d faults, %d pages dirty; want %d of each (the writes were not admissions)", got, h.mgr.DirtyCount(), d)
	}

	epochs, cleans := h.mgr.Stats().Epochs, h.mgr.Stats().ProactiveCleans
	if allocs := testing.AllocsPerRun(100, func() {
		h.clock.Advance(h.mgr.Config().Epoch)
		h.mgr.Pump()
	}); allocs != 0 {
		t.Errorf("an epoch tick over %d dirty pages that cleans none allocates %.0f times", d, allocs)
	}
	st := h.mgr.Stats()
	if st.Epochs-epochs < 100 || st.ProactiveCleans != cleans || h.mgr.DirtyCount() != d {
		t.Fatalf("%d ticks, %d proactive cleans, %d dirty; want ≥ 100 idle ticks over %d pages",
			st.Epochs-epochs, st.ProactiveCleans-cleans, h.mgr.DirtyCount(), d)
	}
}

// TestCleanZeroAlloc guards the clean path: once the device holds the
// page and the pools are warm, a clean — the snapshot copied into a
// device buffer, the submission, the completion that installs it and
// hands the displaced buffer back — allocates nothing. The write that
// dirties the page again is an admission, which the guard above holds
// at 0 too.
func TestCleanZeroAlloc(t *testing.T) {
	h := newHarness(t, 16, Config{DirtyBudgetPages: 8})
	clean := func() {
		if err := h.region.WriteAt([]byte{3}, 5*4096); err != nil {
			t.Fatal(err)
		}
		h.mgr.startClean(5)
		for h.mgr.DirtyCount() != 0 {
			if !h.events.Step(h.clock) {
				t.Fatal("clean never completed")
			}
		}
	}
	for i := 0; i < 4; i++ {
		clean()
	}
	cleans := h.mgr.Stats().CleansCompleted
	if allocs := testing.AllocsPerRun(100, clean); allocs != 0 {
		t.Errorf("a clean of a page the device already holds allocates %.0f times, want 0", allocs)
	}
	if got := h.mgr.Stats().CleansCompleted - cleans; got < 100 {
		t.Fatalf("%d cleans completed over 100 runs", got)
	}
	if err := h.mgr.VerifyDurability(); err != nil {
		t.Fatal(err)
	}
}

// TestVictimSelectionZeroAlloc: a collection over a 4 096-page dirty set
// and enough pops to run through several batches read the set in place
// and allocate nothing.
func TestVictimSelectionZeroAlloc(t *testing.T) {
	const d, k = 4096, 3 * victimBatch
	h := newHarness(t, d, Config{DirtyBudgetPages: 2 * d})
	for p := 0; p < d; p++ {
		h.writePage(t, p, 1)
	}
	m := h.mgr
	var last, want mmu.PageID
	runs, differ := 0, 0
	if allocs := testing.AllocsPerRun(100, func() {
		m.victims.collect(m.dirtySeq)
		for i := 0; i < k; i++ {
			page, ok := m.nextVictim()
			if !ok {
				t.Fatalf("pop %d of %d dirty pages found no victim", i, d)
			}
			last = page
		}
		if runs == 0 {
			want = last
		} else if last != want {
			differ++
		}
		runs++
	}); allocs != 0 {
		t.Errorf("a collection and %d pops over %d dirty pages allocate %.0f times, want 0", k, d, allocs)
	}
	// Nothing was cleaned, so every collection hands out the same victims.
	if differ != 0 || m.DirtyCount() != d {
		t.Fatalf("%d of %d runs ended on another victim than %d; %d dirty, want %d", differ, runs, want, m.DirtyCount(), d)
	}
}

// TestSampleTickZeroAlloc: the observability sampler re-arms its one event
// and, once its ring is full, only slides it.
func TestSampleTickZeroAlloc(t *testing.T) {
	const every = 10 * sim.Microsecond
	h := newHarness(t, 16, Config{DirtyBudgetPages: 8, SampleEvery: every})
	tick := func() {
		h.clock.Advance(every)
		h.mgr.Pump()
	}
	for i := 0; i < MaxSamples+100; i++ {
		tick()
	}
	before := h.mgr.Samples()[MaxSamples-1].At
	if allocs := testing.AllocsPerRun(1000, tick); allocs != 0 {
		t.Errorf("a sample tick allocates %.0f times, want 0", allocs)
	}
	if got := h.mgr.Samples()[MaxSamples-1].At; got.Sub(before) < 1000*every {
		t.Fatalf("newest sample moved from %v to %v over 1000 ticks", before, got)
	}
}
