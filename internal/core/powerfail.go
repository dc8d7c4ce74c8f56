package core

import (
	"fmt"

	"viyojit/internal/mmu"
	"viyojit/internal/power"
	"viyojit/internal/sim"
)

// PowerFailReport describes what happened during a simulated power-loss
// flush.
type PowerFailReport struct {
	// DirtyAtFailure is the dirty-set size when power was lost.
	DirtyAtFailure int
	// PagesFlushed is the number of pages written during the
	// battery-powered flush (in-flight IOs completing plus the rest of
	// the dirty set).
	PagesFlushed int
	// FlushTime is how long the flush ran.
	FlushTime sim.Duration
	// EnergyUsedJoules is the energy the flush consumed given the power
	// model.
	EnergyUsedJoules float64
	// EnergyAvailableJoules is what the battery could supply when the
	// failure hit.
	EnergyAvailableJoules float64
	// EnergyAtCompletionJoules is the battery's effective energy
	// re-sampled after the flush finished. A battery capacity change
	// that lands while the flush is in flight (cell dropout, scheduled
	// ageing step) makes this smaller than EnergyAvailableJoules; the
	// survival verdict uses the smaller of the two. With a fixed energy
	// source the fields are equal.
	EnergyAtCompletionJoules float64
	// Survived reports whether the flush finished within the available
	// energy — the durability guarantee.
	Survived bool
}

// PowerFail simulates a power-loss event: the epoch task stops, every
// dirty page is flushed to the SSD on battery power, and the report says
// whether the provisioned energy covered the flush. availableJoules is
// the battery's effective energy at the instant of failure; pm is the
// power model used to convert flush time into energy.
//
// After PowerFail returns the manager is stopped (as the server would
// be); verify durability with VerifyDurability and rebuild state with the
// recovery package.
func (m *Manager) PowerFail(pm power.Model, availableJoules float64) PowerFailReport {
	return m.PowerFailWith(pm, func() float64 { return availableJoules })
}

// PowerFailWith is PowerFail against a live energy source: available is
// sampled when the failure hits and again after the flush completes, so
// a battery that shrinks mid-flush (an ageing step or cell dropout whose
// event fires during the virtual time the flush occupies) cannot yield a
// false success. The verdict charges the flush against the smaller of
// the two samples — the conservative reading of "did the battery cover
// it".
func (m *Manager) PowerFailWith(pm power.Model, available func() float64) PowerFailReport {
	m.mustLive()
	report := PowerFailReport{
		DirtyAtFailure:        m.dirty.len(),
		EnergyAvailableJoules: available(),
	}
	m.events.Cancel(m.epochEvent)
	m.closed = true

	start := m.clock.Now()
	sp := m.tr.Begin("core.powerfail_flush", start)
	defer func() {
		code := "ok"
		if !report.Survived {
			code = "error"
		}
		m.tr.Finish(sp, m.clock.Now(), code)
	}()
	// In-flight cleans complete first (their IOs are already on the
	// wire); the remainder of the dirty set streams out as one
	// sequential backup write at full device bandwidth.
	m.dev.WaitIdle()
	pt := m.region.PageTable()
	for _, page := range m.dirty.list() {
		pt.Protect(page) // no further mutation during the backup
	}
	// RawPage, not CopyPage: during the streaming backup the DRAM-side
	// copy is DMA that overlaps the (5× slower) device transfer, so no
	// serial copy time is charged. WriteBatch copies the bytes before
	// returning.
	m.dev.WriteBatch(m.dirty.list(), m.region.RawPage)
	for m.dirty.len() > 0 {
		page := m.dirty.list()[m.dirty.len()-1]
		m.dirty.remove(page)
		pt.ClearDirty(page)
	}
	m.noteDirtyLevel()
	m.noteDrainProgress()
	// Deliver any events whose time has come during the flush — a
	// scheduled battery ageing step, for example — before re-sampling
	// the energy, so the completion check sees the battery as it is now,
	// not as it was when power failed.
	m.events.RunUntil(m.clock, m.clock.Now())
	report.EnergyAtCompletionJoules = available()

	report.PagesFlushed = report.DirtyAtFailure
	report.FlushTime = m.clock.Now().Sub(start)
	watts := pm.FlushWatts(m.region.Size())
	report.EnergyUsedJoules = watts * report.FlushTime.Seconds()
	covered := report.EnergyAvailableJoules
	if report.EnergyAtCompletionJoules < covered {
		covered = report.EnergyAtCompletionJoules
	}
	report.Survived = report.EnergyUsedJoules <= covered
	return report
}

// VerifyDurability checks, byte for byte, that the SSD holds the latest
// contents of every page of the region: a page must either be durable on
// the SSD with identical contents, or never have been written (still all
// zero). It returns nil if the NV-DRAM contents would be fully
// recoverable, and a descriptive error naming the first divergent page
// otherwise.
func (m *Manager) VerifyDurability() error {
	m.mustLive()
	for p := 0; p < m.region.NumPages(); p++ {
		page := mmu.PageID(p)
		if err := m.region.CheckRestorable(m.dev, page); err != nil {
			return fmt.Errorf("core: %w", err)
		}
	}
	return nil
}
