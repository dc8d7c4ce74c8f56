package core

// Scrub repair support. When the scrubber (internal/scrub) finds a
// durable page whose SSD copy fails checksum verification but whose
// NV-DRAM copy is authoritative (the page is clean: DRAM == what the SSD
// *should* hold), the fix is a forced re-clean — re-dirty the page and
// push it back through the normal clean path so the standard completion
// handling, retry/backoff, and durability bookkeeping all apply. The
// re-dirty is the write fault's admission step (admitPage): admitting the
// page may force other cleans first, so `dirty ≤ budget` holds at every
// step even while repairing.

import (
	"errors"
	"fmt"

	"viyojit/internal/mmu"
)

var (
	// ErrRepairClosed means the manager was closed; the caller should
	// quarantine instead.
	ErrRepairClosed = errors.New("core: cannot repair through a closed manager")
	// ErrRepairBlocked means the ladder has writes blocked
	// (EmergencyFlush/ReadOnly); repair must wait or quarantine.
	ErrRepairBlocked = errors.New("core: writes blocked; cannot re-dirty for repair")
	// ErrRepairNoSource means the page is outside the managed region, so
	// there is no authoritative DRAM copy to repair from.
	ErrRepairNoSource = errors.New("core: page outside the region; no authoritative copy")
)

// RepairPage re-persists page from its authoritative NV-DRAM copy. A
// page already dirty just has its clean kicked (its corruption window
// closes when the in-flight or next clean lands); a clean page is
// re-dirtied through budget-enforced admission — forcing other cleans
// first if the set is at budget — and submitted immediately. The repair
// write goes through startClean, so injected faults, retries, and stats
// behave exactly as for any other clean.
func (m *Manager) RepairPage(page mmu.PageID) error {
	if m.closed {
		return ErrRepairClosed
	}
	if m.writesBlocked() {
		return ErrRepairBlocked
	}
	if int(page) >= m.region.NumPages() {
		return fmt.Errorf("%w: page %d, region has %d pages", ErrRepairNoSource, page, m.region.NumPages())
	}
	if dp := m.dirty.get(page); dp != nil {
		// The latest contents are already queued to become durable; an
		// in-flight or fresh clean overwrites the corrupt image.
		if !dp.cleaning {
			m.st.repairCleans.Inc()
			m.startClean(page)
		}
		return nil
	}

	// The repair must never push the dirty set past what the battery
	// covers.
	if !m.admitPage(page, byRepair) {
		if m.closed {
			return ErrRepairClosed
		}
		return ErrRepairBlocked
	}
	m.startClean(page)
	return nil
}

// IsDirty reports whether page is in the dirty set (its latest contents
// not yet durable). The scrubber uses it to pick the repair source: a
// dirty page's SSD copy is expected to be stale, so a checksum mismatch
// there is not yet corruption of record.
func (m *Manager) IsDirty(page mmu.PageID) bool {
	return m.dirty.get(page) != nil
}

// Closed reports whether the manager has been detached (Close called).
func (m *Manager) Closed() bool { return m.closed }

// EnterDegraded escalates to the Degraded rung on an external signal —
// the health monitor's response to scrub detections. The manager's own
// error-streak entry and streak/quiet heal paths apply unchanged;
// escalation above Degraded remains the policy's explicit call.
func (m *Manager) EnterDegraded() {
	if m.state == StateHealthy {
		m.setState(StateDegraded)
		m.healthyStreak = 0
		m.st.degradedEnters.Inc()
	}
}
