package experiments

import (
	"fmt"

	"viyojit/internal/mmu"
	"viyojit/internal/nvdram"
	"viyojit/internal/sim"
	"viyojit/internal/ssd"
)

// baselineManager is the comparison system in the paper's evaluation:
// state-of-the-art battery-backed DRAM with the battery provisioned for
// the *entire* NV-DRAM capacity. No pages are ever write-protected, no
// traps occur, nothing is proactively copied. It remembers which pages
// have ever been written (what a power-fail flush would write out) but
// imposes no bound and no write-path overhead beyond the raw MMU access
// cost.
type baselineManager struct {
	clock  *sim.Clock
	events *sim.Queue
	region *nvdram.Region

	everDirty map[mmu.PageID]struct{}

	// mmap-like allocator, mirroring the Viyojit manager's API so the
	// same workload code drives both systems.
	nextPage int64
}

// newBaselineManager creates a baseline manager over region and dev.
// Unlike the Viyojit manager it leaves every page writable.
func newBaselineManager(clock *sim.Clock, events *sim.Queue, region *nvdram.Region, dev *ssd.SSD) (*baselineManager, error) {
	if dev.Config().PageSize != region.PageSize() {
		return nil, fmt.Errorf("baseline: SSD page size %d != region page size %d", dev.Config().PageSize, region.PageSize())
	}
	return &baselineManager{
		clock:     clock,
		events:    events,
		region:    region,
		everDirty: make(map[mmu.PageID]struct{}),
	}, nil
}

// baselineMapping is a named range of the baseline region.
type baselineMapping struct {
	mgr  *baselineManager
	name string
	base int64
	size int64
}

// Map allocates a page-aligned mapping (bump allocation; the baseline
// never frees because its experiments don't unmap mid-run).
func (m *baselineManager) Map(name string, size int64) (*baselineMapping, error) {
	if size <= 0 {
		return nil, fmt.Errorf("baseline: Map %q with size %d", name, size)
	}
	ps := int64(m.region.PageSize())
	pages := (size + ps - 1) / ps
	if (m.nextPage+pages)*ps > m.region.Size() {
		return nil, fmt.Errorf("baseline: Map %q: region exhausted", name)
	}
	mp := &baselineMapping{mgr: m, name: name, base: m.nextPage * ps, size: size}
	m.nextPage += pages
	return mp, nil
}

// Size returns the mapping's size in bytes.
func (mp *baselineMapping) Size() int64 { return mp.size }

// WriteAt stores p at off. There is no protection and no budget; the only
// bookkeeping is remembering that the touched pages will need flushing on
// power failure.
func (mp *baselineMapping) WriteAt(p []byte, off int64) error {
	if off < 0 || off+int64(len(p)) > mp.size {
		return fmt.Errorf("baseline: mapping %q: range [%d,%d) outside size %d", mp.name, off, off+int64(len(p)), mp.size)
	}
	abs := mp.base + off
	first := mp.mgr.region.PageOf(abs)
	last := mp.mgr.region.PageOf(abs + int64(len(p)) - 1)
	for page := first; page <= last; page++ {
		mp.mgr.everDirty[page] = struct{}{}
	}
	return mp.mgr.region.WriteAt(p, abs)
}

// ReadAt fills p from off.
func (mp *baselineMapping) ReadAt(p []byte, off int64) error {
	if off < 0 || off+int64(len(p)) > mp.size {
		return fmt.Errorf("baseline: mapping %q: range [%d,%d) outside size %d", mp.name, off, off+int64(len(p)), mp.size)
	}
	return mp.mgr.region.ReadAt(p, mp.base+off)
}

// Pump delivers due events (IO completions).
func (m *baselineManager) Pump() { m.events.RunUntil(m.clock, m.clock.Now()) }

// DirtyCount returns the number of pages that would need flushing on a
// power failure right now.
func (m *baselineManager) DirtyCount() int { return len(m.everDirty) }
