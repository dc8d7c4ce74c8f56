// Package baseline implements the comparison system in the paper's
// evaluation: state-of-the-art battery-backed DRAM with the battery
// provisioned for the *entire* NV-DRAM capacity. No pages are ever
// write-protected, no traps occur, nothing is proactively copied — on
// power failure the whole region (every page ever written) is flushed,
// which is exactly what the full battery pays for.
package baseline

import (
	"fmt"

	"viyojit/internal/mmu"
	"viyojit/internal/nvdram"
	"viyojit/internal/power"
	"viyojit/internal/sim"
	"viyojit/internal/ssd"
)

// Manager is the full-battery NV-DRAM manager. It tracks which pages have
// ever been written (so the power-fail flush knows what to write out) but
// imposes no bound and no write-path overhead beyond the raw MMU access
// cost.
type Manager struct {
	clock  *sim.Clock
	events *sim.Queue
	region *nvdram.Region
	dev    *ssd.SSD

	everDirty map[mmu.PageID]struct{}

	// mmap-like allocator, mirroring the Viyojit manager's API so the
	// same workload code drives both systems.
	nextPage int64
}

// NewManager creates a baseline manager over region and dev. Unlike the
// Viyojit manager it leaves every page writable.
func NewManager(clock *sim.Clock, events *sim.Queue, region *nvdram.Region, dev *ssd.SSD) (*Manager, error) {
	if dev.Config().PageSize != region.PageSize() {
		return nil, fmt.Errorf("baseline: SSD page size %d != region page size %d", dev.Config().PageSize, region.PageSize())
	}
	m := &Manager{
		clock:     clock,
		events:    events,
		region:    region,
		dev:       dev,
		everDirty: make(map[mmu.PageID]struct{}),
	}
	// Track written pages through the dirty bits: scan lazily at flush
	// time is not enough because epoch-less scans would miss cleared
	// bits, so record on each write via the fault-free path below.
	return m, nil
}

// Region returns the managed region.
func (m *Manager) Region() *nvdram.Region { return m.region }

// SSD returns the backing device.
func (m *Manager) SSD() *ssd.SSD { return m.dev }

// Mapping is a named range of the baseline region.
type Mapping struct {
	mgr  *Manager
	name string
	base int64
	size int64
}

// Map allocates a page-aligned mapping (bump allocation; the baseline
// never frees because its experiments don't unmap mid-run).
func (m *Manager) Map(name string, size int64) (*Mapping, error) {
	if size <= 0 {
		return nil, fmt.Errorf("baseline: Map %q with size %d", name, size)
	}
	ps := int64(m.region.PageSize())
	pages := (size + ps - 1) / ps
	if (m.nextPage+pages)*ps > m.region.Size() {
		return nil, fmt.Errorf("baseline: Map %q: region exhausted", name)
	}
	mp := &Mapping{mgr: m, name: name, base: m.nextPage * ps, size: size}
	m.nextPage += pages
	return mp, nil
}

// Name returns the mapping's name.
func (mp *Mapping) Name() string { return mp.name }

// Size returns the mapping's size in bytes.
func (mp *Mapping) Size() int64 { return mp.size }

// WriteAt stores p at off. There is no protection and no budget; the only
// bookkeeping is remembering that the touched pages will need flushing on
// power failure.
func (mp *Mapping) WriteAt(p []byte, off int64) error {
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
func (mp *Mapping) ReadAt(p []byte, off int64) error {
	if off < 0 || off+int64(len(p)) > mp.size {
		return fmt.Errorf("baseline: mapping %q: range [%d,%d) outside size %d", mp.name, off, off+int64(len(p)), mp.size)
	}
	return mp.mgr.region.ReadAt(p, mp.base+off)
}

// Pump delivers due events (IO completions).
func (m *Manager) Pump() { m.events.RunUntil(m.clock, m.clock.Now()) }

// DirtyCount returns the number of pages that would need flushing on a
// power failure right now.
func (m *Manager) DirtyCount() int { return len(m.everDirty) }

// PowerFailReport mirrors core.PowerFailReport for the baseline flush.
type PowerFailReport struct {
	PagesFlushed          int
	FlushTime             sim.Duration
	EnergyUsedJoules      float64
	EnergyAvailableJoules float64
	Survived              bool
}

// PowerFail flushes every written page — the whole point of the full
// battery — and reports whether availableJoules covered it.
func (m *Manager) PowerFail(pm power.Model, availableJoules float64) PowerFailReport {
	start := m.clock.Now()
	batch := make(map[mmu.PageID][]byte, len(m.everDirty))
	for page := range m.everDirty {
		// RawPage: the DRAM-side copy DMAs concurrently with the device
		// stream (see core's power-fail path); WriteBatch copies.
		batch[page] = m.region.RawPage(page)
	}
	n := len(batch)
	m.dev.WriteBatch(batch)
	ft := m.clock.Now().Sub(start)
	used := pm.FlushWatts(m.region.Size()) * ft.Seconds()
	return PowerFailReport{
		PagesFlushed:          n,
		FlushTime:             ft,
		EnergyUsedJoules:      used,
		EnergyAvailableJoules: availableJoules,
		Survived:              used <= availableJoules,
	}
}

// FullBatteryJoules returns the energy a baseline deployment must
// provision: enough to flush the entire region (paper §2.2's coupling of
// battery and DRAM capacity).
func (m *Manager) FullBatteryJoules(pm power.Model) float64 {
	return pm.FlushEnergyJoules(m.region.Size(), m.dev.Config().WriteBandwidth, m.region.Size())
}

// VerifyDurability checks that the SSD holds the latest contents of every
// page, as core.Manager.VerifyDurability does.
func (m *Manager) VerifyDurability() error {
	for p := 0; p < m.region.NumPages(); p++ {
		page := mmu.PageID(p)
		if err := m.region.CheckRestorable(m.dev, page); err != nil {
			return fmt.Errorf("baseline: %w", err)
		}
	}
	return nil
}
