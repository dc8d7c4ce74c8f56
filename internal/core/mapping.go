package core

import (
	"fmt"
	"math"
	"sort"

	"viyojit/internal/mmu"
)

// Mapping is a named, page-aligned range of the managed NV-DRAM region —
// the handle Viyojit's mmap-like API returns (paper §4.3). Reads and
// writes through a mapping go through the manager's fault path, so dirty
// tracking and budgeting apply transparently.
type Mapping struct {
	mgr  *Manager
	name string
	base int64 // byte offset of the first page
	size int64 // requested size in bytes
	live bool
}

// Name returns the name the mapping was created with.
func (mp *Mapping) Name() string { return mp.name }

// Size returns the mapping's size in bytes.
func (mp *Mapping) Size() int64 { return mp.size }

// Base returns the mapping's byte offset within the region (exposed for
// tooling; applications address relative to the mapping).
func (mp *Mapping) Base() int64 { return mp.base }

func (mp *Mapping) checkAccess(off int64, n int) error {
	if !mp.live {
		return fmt.Errorf("core: access to unmapped mapping %q", mp.name)
	}
	if off < 0 || int64(n) < 0 || off+int64(n) > mp.size {
		return fmt.Errorf("core: mapping %q: range [%d,%d) outside size %d", mp.name, off, off+int64(n), mp.size)
	}
	return nil
}

// WriteAt stores p at offset off within the mapping. First writes to a
// page trap into the manager, which may first clean a victim page if the
// dirty budget is exhausted.
func (mp *Mapping) WriteAt(p []byte, off int64) error {
	if err := mp.checkAccess(off, len(p)); err != nil {
		return err
	}
	return mp.mgr.region.WriteAt(p, mp.base+off)
}

// ReadAt fills p from offset off within the mapping. Reads are always at
// DRAM latency; Viyojit never read-protects pages.
func (mp *Mapping) ReadAt(p []byte, off int64) error {
	if err := mp.checkAccess(off, len(p)); err != nil {
		return err
	}
	return mp.mgr.region.ReadAt(p, mp.base+off)
}

// TelemetryWritable reports whether a write to [off, off+n) of the
// mapping could proceed right now without blocking: no page in the
// range is mid-clean (a write would stall on the in-flight IO), writes
// are not ladder-blocked, and admitting the range's not-yet-dirty pages
// stays within the effective dirty budget (so the fault path would not
// force a synchronous clean). While an admission waits for room, the
// range may not take the last free page either: the recorder logs the
// clean that frees it, and an append there would re-dirty the ring and
// keep the waiter blocked for good. This is the admission gate for the
// black-box flight recorder, which must degrade to sampling rather
// than ever stall the goroutine feeding it. Like the rest of the
// manager's bookkeeping it must be called from the simulation
// goroutine.
func (mp *Mapping) TelemetryWritable(off, n int64) bool {
	if mp == nil || !mp.live || off < 0 || n <= 0 || off+n > mp.size {
		return false
	}
	m := mp.mgr
	ps := int64(m.region.PageSize())
	first := mmu.PageID((mp.base + off) / ps)
	last := mmu.PageID((mp.base + off + n - 1) / ps)
	need := 0
	for p := first; p <= last; p++ {
		if dp := m.dirty.get(p); dp != nil {
			if dp.cleaning {
				return false
			}
			continue // already dirty: writing costs nothing
		}
		need++
	}
	if need == 0 {
		return true
	}
	if m.writesBlocked() {
		return false
	}
	if m.budgetWaiters > 0 {
		need++
	}
	return m.dirty.len()+need <= m.effectiveBudget()
}

// pageRange returns the half-open page range [first, last) the mapping
// occupies.
func (mp *Mapping) pageRange() (mmu.PageID, mmu.PageID) {
	ps := int64(mp.mgr.region.PageSize())
	first := mmu.PageID(mp.base / ps)
	pages := (mp.size + ps - 1) / ps
	return first, first + mmu.PageID(pages)
}

// freeRange is a free page-aligned extent in the region allocator.
type freeRange struct {
	startPage int64
	pages     int64
}

// Map allocates a named, page-aligned mapping of size bytes from the
// region, first-fit. The pages were write-protected at manager startup
// (or re-protected when a previous mapping was unmapped), so the first
// write to each page traps as the design requires.
func (m *Manager) Map(name string, size int64) (*Mapping, error) {
	m.mustLive()
	if size <= 0 {
		return nil, fmt.Errorf("core: Map %q with size %d", name, size)
	}
	ps := int64(m.region.PageSize())
	pages := (size + ps - 1) / ps
	m.initAllocator()
	for i, fr := range m.free {
		if fr.pages < pages {
			continue
		}
		base := fr.startPage * ps
		if fr.pages == pages {
			m.free = append(m.free[:i], m.free[i+1:]...)
		} else {
			m.free[i] = freeRange{startPage: fr.startPage + pages, pages: fr.pages - pages}
		}
		mp := &Mapping{mgr: m, name: name, base: base, size: size, live: true}
		m.mappings = append(m.mappings, mp)
		return mp, nil
	}
	return nil, fmt.Errorf("core: Map %q: no contiguous %d pages free in region of %d pages", name, pages, m.region.NumPages())
}

// Unmap persists and releases a mapping: every dirty page in its range is
// cleaned to the SSD (munmap of a persistent region must not lose data),
// the pages are re-protected for the next tenant of the address range,
// and the extent returns to the allocator.
func (m *Manager) Unmap(mp *Mapping) error {
	if mp == nil || mp.mgr != m {
		return fmt.Errorf("core: Unmap of foreign mapping")
	}
	if !mp.live {
		return fmt.Errorf("core: double Unmap of mapping %q", mp.name)
	}
	first, last := mp.pageRange()
	m.drain(first, last, math.MaxInt, m.st.unmapCleans, "Unmap")
	mp.live = false
	for i, cur := range m.mappings {
		if cur == mp {
			m.mappings = append(m.mappings[:i], m.mappings[i+1:]...)
			break
		}
	}
	ps := int64(m.region.PageSize())
	m.freeExtent(int64(first), (mp.size+ps-1)/ps)
	return nil
}

// Mappings returns the live mappings (for tooling and the power-failure
// checker).
func (m *Manager) Mappings() []*Mapping {
	out := make([]*Mapping, len(m.mappings))
	copy(out, m.mappings)
	return out
}

// initAllocator lazily seeds the free list with the whole region.
func (m *Manager) initAllocator() {
	if m.allocInit {
		return
	}
	m.allocInit = true
	m.free = append(m.free[:0], freeRange{startPage: 0, pages: int64(m.region.NumPages())})
}

// freeExtent returns a page extent to the allocator, coalescing
// neighbours.
func (m *Manager) freeExtent(startPage, pages int64) {
	m.free = append(m.free, freeRange{startPage: startPage, pages: pages})
	sort.Slice(m.free, func(i, j int) bool { return m.free[i].startPage < m.free[j].startPage })
	merged := m.free[:0]
	for _, fr := range m.free {
		if n := len(merged); n > 0 && merged[n-1].startPage+merged[n-1].pages == fr.startPage {
			merged[n-1].pages += fr.pages
		} else {
			merged = append(merged, fr)
		}
	}
	m.free = merged
}
