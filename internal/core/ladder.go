// Degradation ladder: the four-rung health state machine the health
// monitor drives the manager through when the SSD or battery can no
// longer sustain normal operation.
//
//	Healthy → Degraded → EmergencyFlush → ReadOnly
//
// Healthy and Degraded are the manager's own territory: consecutive
// clean errors enter Degraded (extra cleaning headroom, see epochTick)
// and either a success streak or a quiet period heals it. The top two
// rungs are escalations an external policy — internal/health's monitor,
// or an operator — commands explicitly:
//
//   - EmergencyFlush blocks all writes (every page is re-protected, so
//     stores fail with mmu.ErrProtected) and drains the entire dirty set
//     to the SSD with a bounded number of attempts per page. It is the
//     response to a battery that can no longer cover even the drained
//     dirty set, or to an SSD erroring so persistently that shrinking
//     exposure to zero is the only safe posture.
//   - ReadOnly is the terminal fallback for an effectively dead SSD:
//     writes stay blocked forever, but everything already flushed
//     remains durable and readable — the ladder never un-persists data.
//
// Recovery is explicit too: Resume de-escalates back below
// EmergencyFlush once the policy's hysteresis is satisfied.
package core

import (
	"fmt"

	"viyojit/internal/mmu"
)

// HealthState is the manager's rung on the degradation ladder. Higher
// values are worse; comparisons like state >= StateDegraded are
// meaningful.
type HealthState int

const (
	// StateHealthy is normal operation.
	StateHealthy HealthState = iota
	// StateDegraded means recent cleans failed; the epoch task keeps
	// extra dirty-set headroom (see degradeAfterErrors).
	StateDegraded
	// StateEmergencyFlush means writes are blocked while the dirty set
	// is force-drained to the SSD.
	StateEmergencyFlush
	// StateReadOnly means the SSD is considered dead: writes are blocked
	// permanently (until an explicit Resume after repair); reads and
	// already-durable data are unaffected.
	StateReadOnly
)

// String returns the rung name.
func (s HealthState) String() string {
	switch s {
	case StateHealthy:
		return "Healthy"
	case StateDegraded:
		return "Degraded"
	case StateEmergencyFlush:
		return "EmergencyFlush"
	case StateReadOnly:
		return "ReadOnly"
	default:
		return fmt.Sprintf("HealthState(%d)", int(s))
	}
}

// HealthState returns the manager's current rung on the ladder.
func (m *Manager) HealthState() HealthState { return m.state }

// writesBlocked reports whether the ladder has writes blocked (the top
// two rungs).
func (m *Manager) writesBlocked() bool { return m.state >= StateEmergencyFlush }

// WritesBlocked reports whether stores to the region currently fail with
// mmu.ErrProtected because the ladder blocked them.
func (m *Manager) WritesBlocked() bool { return m.writesBlocked() }

// blockWrites re-protects every page so any store traps and — with the
// fault handler refusing to unprotect while writesBlocked (software
// mode) or no handler registered (hardware-assist mode) — fails with
// mmu.ErrProtected. Protect is idempotent, so already-protected clean
// and mid-clean pages are unaffected.
func (m *Manager) blockWrites() {
	pt := m.region.PageTable()
	for p := 0; p < m.region.NumPages(); p++ {
		pt.Protect(mmu.PageID(p))
	}
}

// unblockWrites restores the protection state normal operation expects:
// in software mode only dirty, not-in-flight pages are writable (clean
// pages stay protected so their first write traps); in hardware-assist
// mode nothing is protected.
func (m *Manager) unblockWrites() {
	pt := m.region.PageTable()
	if m.cfg.HardwareAssist {
		for p := 0; p < m.region.NumPages(); p++ {
			pt.Unprotect(mmu.PageID(p))
		}
		return
	}
	for _, page := range m.dirty.list() {
		if !m.dirty.get(page).cleaning {
			pt.Unprotect(page)
		}
	}
}

// EnterEmergencyFlush escalates to the EmergencyFlush rung: writes are
// blocked and the whole dirty set is drained with at most
// emergencyMaxAttempts SSD writes per page. It returns the number
// of pages still dirty afterwards — 0 means everything is durable and
// the caller may Resume; non-zero means the SSD refused even the bounded
// drain and the caller decides between RetryDrain and EnterReadOnly.
// Calling it while already at or above EmergencyFlush just re-runs the
// drain.
func (m *Manager) EnterEmergencyFlush() int {
	if m.state < StateEmergencyFlush {
		m.setState(StateEmergencyFlush)
		m.st.emergencyEnters.Inc()
		m.blockWrites()
	}
	return m.emergencyDrain()
}

// RetryDrain re-runs the bounded emergency drain (each page's attempt
// budget is reset). It is only meaningful at the EmergencyFlush rung;
// elsewhere it reports the dirty count unchanged.
func (m *Manager) RetryDrain() int {
	if m.state != StateEmergencyFlush {
		return m.dirty.len()
	}
	return m.emergencyDrain()
}

// emergencyDrain submits every dirty page to the SSD, giving each page
// up to emergencyMaxAttempts tries, and blocks (in virtual time) until
// the set is empty or every remaining page has exhausted its attempts.
// The clean-completion failure path suppresses both the unprotect and
// the auto-retry while writes are blocked (see clean.complete), so
// attempt accounting stays with the drain.
func (m *Manager) emergencyDrain() int {
	for _, page := range m.dirty.list() {
		if dp := m.dirty.get(page); !dp.cleaning {
			dp.attempts = 0
		}
	}
	m.drain(0, mmu.PageID(m.region.NumPages()), emergencyMaxAttempts, m.st.emergencyCleans, "emergency drain")
	return m.dirty.len()
}

// EnterReadOnly escalates to the terminal ReadOnly rung: writes are
// blocked (idempotently — the usual path arrives here from
// EmergencyFlush, where they already are) and stay blocked until an
// explicit Resume. Nothing already durable is touched.
func (m *Manager) EnterReadOnly() {
	if m.state == StateReadOnly {
		return
	}
	if m.state < StateEmergencyFlush {
		m.blockWrites()
	}
	m.setState(StateReadOnly)
	m.st.readOnlyEnters.Inc()
}

// Resume de-escalates from a write-blocking rung back down to Healthy or
// Degraded — the health policy calls it once its recovery hysteresis is
// satisfied (drain finished and the device answers again, or the SSD was
// replaced). Writes unblock and the error streaks reset so the lower
// rungs start fresh. Resuming *to* a write-blocking rung is rejected.
func (m *Manager) Resume(to HealthState) error {
	if to >= StateEmergencyFlush {
		return fmt.Errorf("core: cannot resume to write-blocking state %v", to)
	}
	if m.state < StateEmergencyFlush {
		m.setState(to)
		return nil
	}
	m.setState(to)
	m.errorStreak = 0
	m.healthyStreak = 0
	m.st.resumes.Inc()
	m.unblockWrites()
	m.checkInvariant()
	return nil
}
