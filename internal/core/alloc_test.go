package core

import (
	"testing"

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
