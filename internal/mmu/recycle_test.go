package mmu

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"viyojit/internal/sim"
)

// runPTScript drives pt through a seeded schedule of reads, writes that
// fault into a handler unprotecting the page, protections, single-page
// clears, scans with and without a TLB flush and bare flushes, and
// returns what each step observed.
func runPTScript(pt *PageTable, seed uint64, steps int) []string {
	pt.SetFaultHandler(func(p PageID) { pt.Unprotect(p) })
	rng := sim.NewRNG(seed)
	n := pt.NumPages()
	var out []string
	var scan []int
	for step := 0; step < steps; step++ {
		page := PageID(rng.Intn(n))
		r := rng.Intn(20)
		if step < 100 {
			// Reads and writes only at first, so the TLB fills and
			// evicts before any flush empties it.
			r %= 14
		}
		switch {
		case r < 8:
			pt.Read(page)
		case r < 14:
			out = append(out, fmt.Sprint("write ", page, pt.Write(page)))
		case r < 16:
			pt.Protect(page)
		case r < 17:
			pt.ClearDirty(page)
		case r < 19:
			pages := make([]PageID, 0, 8)
			for i := 0; i < 8; i++ {
				pages = append(pages, PageID(rng.Intn(n)))
			}
			scan = pt.CheckAndClearDirtyPages(pages, scan[:0], rng.Intn(2) == 0)
			out = append(out, fmt.Sprint("scan ", pages, scan))
		default:
			pt.FlushTLB()
		}
	}
	for p := 0; p < n; p++ {
		out = append(out, fmt.Sprint(p, pt.IsProtected(PageID(p)), pt.IsDirty(PageID(p))))
	}
	return out
}

// TestRecycledPageTableMatchesFresh: a page table built on a retired
// one's tables (Recycle) behaves as NewPageTable's. The donor is left
// with protected and dirty pages, a full TLB with holes at a high flush
// generation, a handler and a notifier; then one seeded schedule runs on
// the recycled table and on a fresh one, and every observation, the
// counters — TLB hits and misses among them — and the virtual time must
// match. The donor panics on use afterwards, naming retirement, and its
// counters still read.
func TestRecycledPageTableMatchesFresh(t *testing.T) {
	const pages, tlbEntries = 64, 8
	for seed := uint64(1); seed <= 8; seed++ {
		donor := NewPageTable(sim.NewClock(), DefaultCosts(), pages, tlbEntries)
		for i := 0; i < 5000; i++ {
			donor.FlushTLB()
		}
		runPTScript(donor, seed+100, 2000)
		donor.SetDirtyNotifier(func(PageID) {})
		for p := PageID(0); p < 3*tlbEntries; p++ {
			donor.Read(p)
			if p%3 == 0 {
				donor.invalidatePage(p)
			}
		}
		protected, dirty := 0, 0
		for p := PageID(0); p < pages; p++ {
			if donor.IsProtected(p) {
				protected++
			}
			if donor.IsDirty(p) {
				dirty++
			}
		}
		if protected == 0 || dirty == 0 || donor.tlb.live != tlbEntries || donor.tlb.gen < 5000 {
			t.Fatalf("seed %d: the donor has %d protected and %d dirty pages, %d cached translations at generation %d: the test would prove nothing",
				seed, protected, dirty, donor.tlb.live, donor.tlb.gen)
		}
		donorStats, entries := donor.Stats(), &donor.entries[0]

		clock := sim.NewClock()
		recycled := donor.Recycle(clock, DefaultCosts(), tlbEntries)
		if &recycled.entries[0] != entries {
			t.Fatalf("seed %d: Recycle did not take the donor's tables", seed)
		}
		for what, use := range map[string]func(){
			"Write":    func() { _ = donor.Write(0) },
			"Read":     func() { donor.Read(0) },
			"FlushTLB": func() { donor.FlushTLB() },
		} {
			func() {
				defer func() {
					if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "retired") {
						t.Fatalf("seed %d: %s on the donor after Recycle: panic %v, want one naming retirement", seed, what, r)
					}
				}()
				use()
			}()
		}
		if donor.Stats() != donorStats {
			t.Fatalf("seed %d: the donor's counters changed across the hand-off", seed)
		}

		freshClock := sim.NewClock()
		fresh := NewPageTable(freshClock, DefaultCosts(), pages, tlbEntries)
		got, want := runPTScript(recycled, seed, 3000), runPTScript(fresh, seed, 3000)
		if !slices.Equal(got, want) {
			for i := range min(len(got), len(want)) {
				if got[i] != want[i] {
					t.Fatalf("seed %d: observation %d differs: recycled %q, fresh %q", seed, i, got[i], want[i])
				}
			}
			t.Fatalf("seed %d: %d observations on the recycled table, %d on the fresh one", seed, len(got), len(want))
		}
		if g, w := recycled.Stats(), fresh.Stats(); g != w {
			t.Fatalf("seed %d: counters differ:\nrecycled %+v\nfresh    %+v", seed, g, w)
		}
		if g, w := clock.Now(), freshClock.Now(); g != w {
			t.Fatalf("seed %d: virtual time differs: recycled %v, fresh %v", seed, g, w)
		}
	}
}
