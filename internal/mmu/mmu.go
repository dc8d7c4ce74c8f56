// Package mmu implements a software memory-management unit: a page table
// with present / write-protect / dirty bits, a TLB model, and
// delivery of write-protection faults to a registered handler.
//
// The Viyojit paper manipulates real x86-64 page tables from a kernel
// module. Everything its mechanism needs from the hardware is reproduced
// here with the same semantics and modelled costs:
//
//   - writes to a write-protected page trap to a fault handler;
//   - the first write to a writable page sets the page-table dirty bit;
//   - changing a page's protection requires invalidating its TLB entry;
//   - reading *fresh* dirty bits during an epoch scan requires a full TLB
//     flush — without it, a page whose dirty bit was cleared but whose
//     translation is still cached will not have its dirty bit re-set by
//     subsequent writes (the stale-dirty-bit effect behind the paper's
//     §6.3 TLB ablation).
package mmu

import (
	"fmt"

	"viyojit/internal/sim"
)

// PageID identifies a page within a page table, in [0, NumPages).
type PageID uint64

// Costs models the virtual-time price of MMU operations. The defaults
// (DefaultCosts) are calibrated for the repository's scaled-down
// experiments; see DESIGN.md §5.
type Costs struct {
	// Trap is the cost of delivering a write-protection fault to the
	// handler and returning (mode switches, handler entry/exit). The
	// handler's own work is charged separately by the handler.
	Trap sim.Duration
	// PTEUpdate is the cost of setting or clearing one page-table bit.
	PTEUpdate sim.Duration
	// TLBMiss is the page-walk cost paid when a translation is not
	// cached.
	TLBMiss sim.Duration
	// TLBFlush is the fixed cost of invalidating the entire TLB.
	TLBFlush sim.Duration
	// TLBInvalidatePage is the cost of invalidating a single cached
	// translation (invlpg).
	TLBInvalidatePage sim.Duration
	// WalkPerPage is the per-page cost of an epoch page-table walk
	// charged to the shared timeline. The reference configuration sets
	// it to 0: epoch walks run on a dedicated maintenance core (the
	// paper's testbed is a 20-core VM serving a single-threaded Redis),
	// so the only cross-core interference from a scan is the TLB
	// shootdown. Set it non-zero to model single-core deployments.
	WalkPerPage sim.Duration
	// Access is the base cost of one DRAM access through the MMU.
	Access sim.Duration
}

// DefaultCosts returns the calibrated default cost model (see DESIGN.md
// §5 for the calibration targets).
func DefaultCosts() Costs {
	return Costs{
		Trap:              12 * sim.Microsecond,
		PTEUpdate:         20 * sim.Nanosecond,
		TLBMiss:           100 * sim.Nanosecond,
		TLBFlush:          20 * sim.Microsecond,
		TLBInvalidatePage: 100 * sim.Nanosecond,
		WalkPerPage:       0,
		Access:            80 * sim.Nanosecond,
	}
}

// SectorSize is the tracking unit of the paper's §7 finer-granularity
// variant: a page table whose pages are SectorSize bytes, charged
// SectorCosts, is Mondrian-style sector protection.
const SectorSize = 256

// SectorCosts returns the cost model of Mondrian-style fine-grained
// protection hardware (§7): a 1 µs trap on the first write to a clean
// sector, a DRAM access, and no TLB or page-table-entry costs, because the
// hardware reports sector dirtiness directly.
func SectorCosts() Costs {
	return Costs{
		Trap:   sim.Microsecond,
		Access: 80 * sim.Nanosecond,
	}
}

// entry is one page-table entry.
type entry struct {
	present        bool
	writeProtected bool
	dirty          bool
}

// FaultHandler is invoked when a write hits a write-protected page. The
// handler is expected to resolve the fault (typically by calling Unprotect
// on the faulting page, possibly after cleaning some other page); the MMU
// then retries the write. If the page is still protected after the handler
// returns, the write fails.
type FaultHandler func(page PageID)

// DirtyNotifier is invoked when a write transitions a page's dirty bit
// from clear to set. It models the paper's §5.4 hardware extension: an
// MMU that checks the dirty bit before setting it and signals the OS, so
// dirty pages can be counted without write-protection traps. The notifier
// runs synchronously with the store (as a hardware-raised interrupt
// would) but carries no trap cost in the common case.
type DirtyNotifier func(page PageID)

// Stats counts MMU events since construction.
type Stats struct {
	Reads            uint64
	Writes           uint64
	Faults           uint64
	TLBHits          uint64
	TLBMisses        uint64
	TLBFlushes       uint64
	TLBInvalidations uint64
	Walks            uint64
	PTEUpdates       uint64
}

// PageTable is a software page table plus TLB for a fixed number of pages.
// It is not safe for concurrent use.
type PageTable struct {
	clock    *sim.Clock
	costs    Costs
	entries  []entry
	tlb      *tlb
	handler  FaultHandler
	notifier DirtyNotifier
	stats    Stats
}

// NewPageTable creates a page table for numPages pages, all initially
// present, writable, and clean. tlbEntries bounds the TLB; 0 selects the
// default size (1536 entries, roughly a modern second-level DTLB).
func NewPageTable(clock *sim.Clock, costs Costs, numPages int, tlbEntries int) *PageTable {
	if numPages <= 0 {
		panic(fmt.Sprintf("mmu: NewPageTable with numPages=%d", numPages))
	}
	return newPageTable(clock, costs, make([]entry, numPages), &tlb{slots: make([]tlbEntry, numPages)}, tlbEntries)
}

// Recycle returns a page table that reads as NewPageTable(clock, costs,
// pt.NumPages(), tlbEntries) would, built on pt's entries and TLB slots;
// the TLB empties in O(1), its generation passing every slot's stamp.
// pt panics on any page access or TLB flush from then on.
func (pt *PageTable) Recycle(clock *sim.Clock, costs Costs, tlbEntries int) *PageTable {
	t := &tlb{slots: pt.tlb.slots, gen: pt.tlb.gen, fifo: pt.tlb.fifo[:0]}
	nt := newPageTable(clock, costs, pt.entries, t, tlbEntries)
	pt.entries, pt.tlb = nil, nil
	return nt
}

func newPageTable(clock *sim.Clock, costs Costs, entries []entry, t *tlb, tlbEntries int) *PageTable {
	if tlbEntries <= 0 {
		tlbEntries = 1536
	}
	t.capacity, t.gen = tlbEntries, t.gen+1
	for i := range entries {
		entries[i] = entry{present: true}
	}
	return &PageTable{clock: clock, costs: costs, entries: entries, tlb: t}
}

// mustLive panics if pt's tables went to a reboot (Recycle).
func (pt *PageTable) mustLive() {
	if pt.tlb == nil {
		panic("mmu: use of a page table retired by a reboot (Recycle)")
	}
}

// NumPages returns the number of pages the table covers.
func (pt *PageTable) NumPages() int { return len(pt.entries) }

// Costs returns the cost model the table charges.
func (pt *PageTable) Costs() Costs { return pt.costs }

// SetFaultHandler registers the write-protection fault handler.
func (pt *PageTable) SetFaultHandler(h FaultHandler) { pt.handler = h }

// SetDirtyNotifier registers the §5.4 hardware dirty-transition signal.
func (pt *PageTable) SetDirtyNotifier(n DirtyNotifier) { pt.notifier = n }

// Stats returns a snapshot of the event counters.
func (pt *PageTable) Stats() Stats { return pt.stats }

func (pt *PageTable) check(page PageID) {
	if int(page) >= len(pt.entries) {
		panic(pt.badPage(page))
	}
}

// badPage is check's panic message, out of line so that check inlines.
//
//go:noinline
func (pt *PageTable) badPage(page PageID) string {
	pt.mustLive()
	return fmt.Sprintf("mmu: page %d out of range [0,%d)", page, len(pt.entries))
}

// Protect write-protects a page and invalidates its TLB entry, as required
// before the page's contents may be copied out (paper §5.1 step 6).
func (pt *PageTable) Protect(page PageID) {
	pt.check(page)
	pt.entries[page].writeProtected = true
	pt.stats.PTEUpdates++
	pt.clock.Advance(pt.costs.PTEUpdate)
	pt.invalidatePage(page)
}

// Unprotect clears a page's write protection and invalidates its TLB entry
// so the next access observes the new permission.
func (pt *PageTable) Unprotect(page PageID) {
	pt.check(page)
	pt.entries[page].writeProtected = false
	pt.stats.PTEUpdates++
	pt.clock.Advance(pt.costs.PTEUpdate)
	pt.invalidatePage(page)
}

// IsProtected reports whether a page is currently write-protected. It is a
// metadata query and charges no time.
func (pt *PageTable) IsProtected(page PageID) bool {
	pt.check(page)
	return pt.entries[page].writeProtected
}

// IsDirty reports the page's page-table dirty bit without charging time.
func (pt *PageTable) IsDirty(page PageID) bool {
	pt.check(page)
	return pt.entries[page].dirty
}

func (pt *PageTable) invalidatePage(page PageID) {
	if pt.tlb.invalidate(page) {
		pt.stats.TLBInvalidations++
		pt.clock.Advance(pt.costs.TLBInvalidatePage)
	}
}

// translate performs the TLB lookup / fill for page and returns the cached
// translation.
func (pt *PageTable) translate(page PageID) *tlbEntry {
	if te := pt.tlb.lookup(page); te != nil {
		pt.stats.TLBHits++
		return te
	}
	pt.stats.TLBMisses++
	pt.clock.Advance(pt.costs.TLBMiss)
	e := &pt.entries[page]
	return pt.tlb.fill(page, e.writeProtected)
}

// Read models a load from the page: it fills the TLB as needed.
func (pt *PageTable) Read(page PageID) {
	pt.check(page)
	pt.stats.Reads++
	pt.clock.Advance(pt.costs.Access)
	pt.translate(page)
}

// Write models a store to the page. If the page is write-protected the
// registered fault handler runs first and the store retries; a store to a
// page that remains protected (or with no handler registered) returns
// ErrProtected. On success the page-table dirty bit is set unless the
// cached translation already propagated it (the stale-dirty-bit model —
// see the package comment).
func (pt *PageTable) Write(page PageID) error {
	pt.check(page)
	pt.stats.Writes++
	pt.clock.Advance(pt.costs.Access)

	te := pt.translate(page)
	if te.writeProtected {
		pt.stats.Faults++
		pt.clock.Advance(pt.costs.Trap)
		if pt.handler == nil {
			return ErrProtected
		}
		pt.handler(page)
		// Retry: the handler should have unprotected the page (and, in
		// doing so, invalidated its TLB entry), so re-translate.
		te = pt.translate(page)
		if te.writeProtected {
			return ErrProtected
		}
	}
	if !te.dirtyPropagated {
		// Hardware sets the PTE dirty bit on the first write through a
		// translation whose D bit is not yet cached as set.
		te.dirtyPropagated = true
		if !pt.entries[page].dirty {
			pt.entries[page].dirty = true
			if pt.notifier != nil {
				pt.notifier(page)
			}
		}
	}
	return nil
}

// ErrProtected is returned by Write when a write-protection fault cannot
// be resolved.
var ErrProtected = fmt.Errorf("mmu: write to protected page not resolved by fault handler")

// FlushTLB invalidates every cached translation. After a flush, the next
// write to any page goes through a page walk and re-sets the PTE dirty
// bit, so a subsequent scan sees fresh information.
func (pt *PageTable) FlushTLB() {
	pt.mustLive()
	pt.stats.TLBFlushes++
	pt.clock.Advance(pt.costs.TLBFlush)
	pt.tlb.flush()
}

// CheckAndClearDirtyPages reads and clears the dirty bits of just the
// given pages, appending to dst the index in pages of each updated one.
// This is the scan Viyojit actually performs each epoch: clean pages are
// write-protected and cannot have been dirtied without a fault, so only
// the known-to-be-dirty pages need checking (paper §1: "periodically
// checking and clearing the page table dirty bits for known-to-be-dirty
// pages"). If flushTLB is true the TLB is flushed first, so the bits read
// are precise; without it, pages written through still-cached
// translations since the last scan are missed (paper §5.2 and §6.3).
//
// The walk charges WalkPerPage per checked page plus one PTEUpdate per
// cleared bit.
func (pt *PageTable) CheckAndClearDirtyPages(pages []PageID, dst []int, flushTLB bool) []int {
	if flushTLB {
		pt.FlushTLB()
	}
	pt.stats.Walks++
	pt.clock.Advance(pt.costs.WalkPerPage * sim.Duration(len(pages)))
	cleared := 0
	for i, p := range pages {
		pt.check(p)
		if pt.entries[p].dirty {
			dst = append(dst, i)
			pt.entries[p].dirty = false
			cleared++
		}
	}
	if cleared > 0 {
		pt.stats.PTEUpdates += uint64(cleared)
		pt.clock.Advance(pt.costs.PTEUpdate * sim.Duration(cleared))
	}
	return dst
}

// ClearDirty clears one page's dirty bit (used when a page is written out
// individually rather than via an epoch scan) and invalidates its TLB
// entry so future writes re-set the bit.
func (pt *PageTable) ClearDirty(page PageID) {
	pt.check(page)
	if pt.entries[page].dirty {
		pt.entries[page].dirty = false
		pt.stats.PTEUpdates++
		pt.clock.Advance(pt.costs.PTEUpdate)
	}
	pt.invalidatePage(page)
}
