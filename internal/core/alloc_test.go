package core

import (
	"runtime"
	"runtime/debug"
	"testing"

	"viyojit/internal/mmu"
)

// mallocs runs f runs times to reach steady state, then runs times more,
// and returns what the second pass allocated in total:
// testing.AllocsPerRun's integer average would hide up to runs-1
// allocations.
func mallocs(runs int, f func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	for i := 0; i < runs; i++ {
		f()
	}
	return counted(func() {
		for i := 0; i < runs; i++ {
			f()
		}
	})
}

// counted returns how many objects f allocates. The count is
// process-wide, so the runtime is kept from allocating inside it: with
// one P, restarting the world after ReadMemStats finds no idle P to start
// a new thread for (five objects), and with the collector off no cycle
// starts mark workers.
func counted(f func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs
}

// TestAdmissionAndIdleTickZeroAlloc guards the two manager paths every
// served write and every epoch go through: admitting a faulting page to
// the dirty set, and an epoch tick over a large dirty set that is under
// the cleaning threshold (scan, histories, candidate collection, re-armed
// timer — and no victim ordered). Neither may allocate.
func TestAdmissionAndIdleTickZeroAlloc(t *testing.T) {
	const d = 4096
	h := newHarness(t, d, Config{DirtyBudgetPages: 2 * d})
	// One pass of first writes over every page, each page admitted once.
	admitAll := func() {
		for p := 0; p < d; p++ {
			if err := h.region.WriteAt([]byte{2}, int64(p)*4096); err != nil {
				t.Fatal(err)
			}
		}
	}
	// Warm-up: the same pass grows every buffer to its working size,
	// the TLB's insertion ring among them; cleaning the pages again makes
	// the measured writes fault.
	admitAll()
	h.mgr.FlushAll()

	faults := h.mgr.Stats().Faults
	if n := counted(admitAll); n != 0 {
		t.Errorf("%d first-write faults allocate %d times; admission must not allocate", d, n)
	}
	if got := h.mgr.Stats().Faults - faults; got != d || h.mgr.DirtyCount() != d {
		t.Fatalf("%d faults, %d pages dirty; want %d of each (the writes were not admissions)", got, h.mgr.DirtyCount(), d)
	}

	epochs, cleans := h.mgr.Stats().Epochs, h.mgr.Stats().ProactiveCleans
	if n := mallocs(100, func() {
		h.clock.Advance(h.mgr.Config().Epoch)
		h.mgr.Pump()
	}); n != 0 {
		t.Errorf("100 epoch ticks over %d dirty pages that clean none allocate %d times", d, n)
	}
	st := h.mgr.Stats()
	if st.Epochs-epochs < 200 || st.ProactiveCleans != cleans || h.mgr.DirtyCount() != d {
		t.Fatalf("%d ticks, %d proactive cleans, %d dirty; want ≥ 200 idle ticks over %d pages",
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
	cleans := h.mgr.Stats().CleansCompleted
	if n := mallocs(100, clean); n != 0 {
		t.Errorf("100 cleans of a page the device already holds allocate %d times, want 0", n)
	}
	if got := h.mgr.Stats().CleansCompleted - cleans; got < 200 {
		t.Fatalf("%d cleans completed over 200 runs", got)
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
	if n := mallocs(100, func() {
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
	}); n != 0 {
		t.Errorf("100 collections and %d pops each over %d dirty pages allocate %d times, want 0", k, d, n)
	}
	// Nothing was cleaned, so every collection hands out the same victims.
	if differ != 0 || m.DirtyCount() != d {
		t.Fatalf("%d of %d runs ended on another victim than %d; %d dirty, want %d", differ, runs, want, m.DirtyCount(), d)
	}
}
