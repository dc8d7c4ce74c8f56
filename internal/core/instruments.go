package core

import (
	"slices"

	"viyojit/internal/mmu"
	"viyojit/internal/obs"
	"viyojit/internal/sim"
)

// instruments is the manager's registry-backed metric storage. Every
// counter the old Stats struct held as a plain field now lives on an
// atomic obs instrument, so Stats() — and a registry Snapshot — can be
// read from any goroutine while the serving goroutine mutates. The exported
// Stats shape is unchanged; it is reconstructed from atomic loads.
type instruments struct {
	faults          *obs.Counter
	pagesDirtied    *obs.Counter
	forcedCleans    *obs.Counter
	proactiveCleans *obs.Counter
	wakesTick       *obs.Counter // copier runs that started a clean, by who woke it
	wakesAhead      *obs.Counter
	wakesHit        *obs.Counter
	unmapCleans     *obs.Counter
	retuneCleans    *obs.Counter
	cleansCompleted *obs.Counter
	cleanErrors     *obs.Counter
	cleanRetries    *obs.Counter
	degradedEnters  *obs.Counter
	degradedEpochs  *obs.Counter
	repairRedirties *obs.Counter
	repairCleans    *obs.Counter
	emergencyEnters *obs.Counter
	emergencyCleans *obs.Counter
	readOnlyEnters  *obs.Counter
	resumes         *obs.Counter
	writesBlocked   *obs.Counter
	budgetGrows     *obs.Counter
	budgetShrinks   *obs.Counter
	drainsCompleted *obs.Counter
	epochs          *obs.Counter
	skippedEpochs   *obs.Counter
	faultWaitNS     *obs.Counter

	dirtyPages  *obs.Gauge // current dirty-set size (budget occupancy)
	dirtyBudget *obs.Gauge // operative bound (drain ratchet while draining)
	maxDirty    *obs.Gauge // high-water mark of the dirty set
	healthState *obs.Gauge // ladder rung ordinal (HealthState)
	pressure    *obs.Gauge // EWMA pressure estimate, milli-pages

	cleanStall   *obs.Histogram // time fault/notify handlers blocked on cleans
	cleanLatency *obs.Histogram // submit→durable latency of completed cleans
}

func newInstruments(r *obs.Registry) instruments {
	return instruments{
		faults:          r.Counter("core_faults_total"),
		pagesDirtied:    r.Counter("core_pages_dirtied_total"),
		forcedCleans:    r.Counter("core_forced_cleans_total"),
		proactiveCleans: r.Counter("core_proactive_cleans_total"),
		wakesTick:       r.Counter("core_copier_wakes_tick_total"),
		wakesAhead:      r.Counter("core_copier_wakes_ahead_total"),
		wakesHit:        r.Counter("core_copier_wakes_budget_hit_total"),
		unmapCleans:     r.Counter("core_unmap_cleans_total"),
		retuneCleans:    r.Counter("core_retune_cleans_total"),
		cleansCompleted: r.Counter("core_cleans_completed_total"),
		cleanErrors:     r.Counter("core_clean_errors_total"),
		cleanRetries:    r.Counter("core_clean_retries_total"),
		degradedEnters:  r.Counter("core_degraded_enters_total"),
		degradedEpochs:  r.Counter("core_degraded_epochs_total"),
		repairRedirties: r.Counter("core_repair_redirties_total"),
		repairCleans:    r.Counter("core_repair_cleans_total"),
		emergencyEnters: r.Counter("core_emergency_enters_total"),
		emergencyCleans: r.Counter("core_emergency_cleans_total"),
		readOnlyEnters:  r.Counter("core_readonly_enters_total"),
		resumes:         r.Counter("core_resumes_total"),
		writesBlocked:   r.Counter("core_writes_blocked_total"),
		budgetGrows:     r.Counter("core_budget_grows_total"),
		budgetShrinks:   r.Counter("core_budget_shrinks_total"),
		drainsCompleted: r.Counter("core_drains_completed_total"),
		epochs:          r.Counter("core_epochs_total"),
		skippedEpochs:   r.Counter("core_skipped_epochs_total"),
		faultWaitNS:     r.Counter("core_fault_wait_ns_total"),
		dirtyPages:      r.Gauge("core_dirty_pages"),
		dirtyBudget:     r.Gauge("core_dirty_budget_pages"),
		maxDirty:        r.Gauge("core_max_dirty_pages"),
		healthState:     r.Gauge("core_health_state"),
		pressure:        r.Gauge("core_pressure_millipages"),
		cleanStall:      r.Histogram("core_clean_stall_ns"),
		cleanLatency:    r.Histogram("core_clean_latency_ns"),
	}
}

// Stats returns a snapshot of the counters. Safe to call from any
// goroutine: every field is an atomic load.
func (m *Manager) Stats() Stats {
	return Stats{
		Faults:           m.st.faults.Value(),
		PagesDirtied:     m.st.pagesDirtied.Value(),
		ForcedCleans:     m.st.forcedCleans.Value(),
		ProactiveCleans:  m.st.proactiveCleans.Value(),
		CopierWakesTick:  m.st.wakesTick.Value(),
		CopierWakesAhead: m.st.wakesAhead.Value(),
		CopierWakesHit:   m.st.wakesHit.Value(),
		UnmapCleans:      m.st.unmapCleans.Value(),
		RetuneCleans:     m.st.retuneCleans.Value(),
		CleansCompleted:  m.st.cleansCompleted.Value(),
		CleanErrors:      m.st.cleanErrors.Value(),
		CleanRetries:     m.st.cleanRetries.Value(),
		DegradedEnters:   m.st.degradedEnters.Value(),
		DegradedEpochs:   m.st.degradedEpochs.Value(),
		RepairRedirties:  m.st.repairRedirties.Value(),
		RepairCleans:     m.st.repairCleans.Value(),
		EmergencyEnters:  m.st.emergencyEnters.Value(),
		EmergencyCleans:  m.st.emergencyCleans.Value(),
		ReadOnlyEnters:   m.st.readOnlyEnters.Value(),
		Resumes:          m.st.resumes.Value(),
		WritesBlocked:    m.st.writesBlocked.Value(),
		BudgetGrows:      m.st.budgetGrows.Value(),
		BudgetShrinks:    m.st.budgetShrinks.Value(),
		DrainsCompleted:  m.st.drainsCompleted.Value(),
		Epochs:           m.st.epochs.Value(),
		SkippedEpochs:    m.st.skippedEpochs.Value(),
		MaxDirtyObserved: int(m.st.maxDirty.Value()),
		FaultWaitTotal:   sim.Duration(m.st.faultWaitNS.Value()),
	}
}

// noteDirtyLevel publishes the dirty-set size after a mutation; the
// high-water mark ratchets with it.
func (m *Manager) noteDirtyLevel() {
	n := int64(m.dirty.len())
	m.st.dirtyPages.Set(n)
	m.st.maxDirty.SetMax(n)
}

// noteBudgetLevel publishes the operative bound after a retune or a
// drain-ratchet move.
func (m *Manager) noteBudgetLevel() {
	m.st.dirtyBudget.Set(int64(m.effectiveBudget()))
}

// noteFaultWait charges the time a fault/notify handler spent blocked on
// cleans; actual stalls (non-zero waits) also land in the clean-stall
// histogram — the paper's tail-latency mechanism made directly visible.
func (m *Manager) noteFaultWait(wait sim.Duration) {
	m.st.faultWaitNS.Add(uint64(wait))
	if wait > 0 {
		m.st.cleanStall.Record(wait)
	}
}

// setState moves the ladder rung and mirrors it onto the health gauge.
func (m *Manager) setState(s HealthState) {
	m.state = s
	m.st.healthState.Set(int64(s))
}

// drainOrder returns the dirty set's page IDs in ascending order — the
// submission order of every drain (FlushAll, the emergency drain and
// Unmap, all through Manager.drain), which completion times, span order
// and exports all follow. A drain asks on every event it steps; while
// every dirty page is already in flight there is nothing to submit and
// the answer is nil, so the set is listed and sorted only after a
// completion has left a page behind.
func (m *Manager) drainOrder() []mmu.PageID {
	if m.dirty.len() == m.inflight {
		return nil
	}
	pages := slices.Clone(m.dirty.list())
	slices.Sort(pages)
	return pages
}
