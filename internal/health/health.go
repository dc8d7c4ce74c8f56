// Package health closes the provisioning loop the paper leaves open: it
// continuously re-derives the dirty budget from the *live* battery and
// SSD, and drives the manager through the degradation ladder when either
// input decays past what normal operation can absorb.
//
// The paper derives the budget once, at install time, from battery
// joules × power model × SSD write bandwidth. Both inputs are runtime
// signals in deployment: batteries age and derate (paper §2.2), and SSD
// write bandwidth degrades with wear. A Monitor samples them on the sim
// clock every Interval:
//
//   - battery effective joules (after depth-of-discharge and derating),
//   - the SSD's wear-modelled bandwidth (ssd.EffectiveWriteBandwidth)
//     scaled by the *measured* per-IO goodput relative to what the model
//     predicts — so a device slower or flakier than its spec sheet
//     shrinks the budget even before its wear counters say it should,
//   - the manager's clean-error streak.
//
// From those it recomputes the budget (growth applies immediately,
// shrink is the manager's staged drain) and escalates or recovers on the
// ladder: a battery that cannot cover even one page, or an SSD erroring
// persistently, triggers EmergencyFlush; repeated failed drains mark the
// device dead and fall back to ReadOnly; sustained good samples Resume
// under hysteresis.
package health

import (
	"fmt"
	"math"

	"viyojit/internal/battery"
	"viyojit/internal/core"
	"viyojit/internal/obs"
	"viyojit/internal/power"
	"viyojit/internal/sim"
)

// EnergySource is the telemetry channel the monitor derives the budget
// from: Sample returns the usable-energy estimate in joules at virtual
// time at. *sensor.Fused implements it; when none is configured the
// monitor falls back to reading the battery model directly (trusting a
// single gauge).
type EnergySource interface {
	Sample(at sim.Time) float64
}

// §5.1's two fixed inputs to the budget: the conservative fraction of
// the SSD's write bandwidth a flush is assumed to reach, and the flush
// time reserved before the remaining energy is converted into pages (per-IO
// latency, protection changes, scheduling slack). viyojit.New, the
// monitor, the crash sweeps and provision -age/-wear all derive with
// these.
const (
	Derating     = 0.8
	FlushReserve = 500 * sim.Microsecond
)

// Config tunes the monitor. Zero values select the documented defaults.
type Config struct {
	// Interval is the sampling period on the sim clock; 0 selects 2 ms
	// (a couple of manager epochs).
	Interval sim.Duration
	// MaxSnapshots bounds the observability ring; 0 selects 1024.
	MaxSnapshots int
	// Obs is the observability registry the monitor mirrors its
	// counters and live inputs (battery energy, bandwidth estimate,
	// derived budget) onto. nil disables the mirror.
	Obs *obs.Registry
	// Energy is the fault-tolerant telemetry the budget is derived
	// from (viyojit.System passes the fused sensor). nil reads the
	// battery model directly — a single unguarded gauge.
	Energy EnergySource
}

func (c Config) withDefaults() Config {
	if c.Interval == 0 {
		c.Interval = 2 * sim.Millisecond
	}
	if c.MaxSnapshots == 0 {
		c.MaxSnapshots = 1024
	}
	return c
}

// The ladder's escalation and recovery thresholds.
const (
	// emergencyErrorStreak is the clean-error streak at a sample that
	// escalates to EmergencyFlush: twice the manager's Degraded threshold.
	emergencyErrorStreak = 6
	// drainAttempts is how many consecutive samples an emergency drain
	// may fail to empty the dirty set before the SSD is declared dead and
	// the ladder drops to ReadOnly.
	drainAttempts = 2
	// recoverTicks is the resume hysteresis: consecutive good samples
	// (drain complete, budget positive, no fresh errors) required at
	// EmergencyFlush before writes unblock.
	recoverTicks = 2
	// scrubQuarantineEmergency is the quarantined-page count (corrupt with
	// no good copy to repair from) that escalates to EmergencyFlush: a
	// device accumulating unrepairable corruption is lying about acked
	// writes, and shrinking exposure to zero is the only safe posture.
	scrubQuarantineEmergency = 8
)

// Snapshot is one monitor sample — what the monitor saw and what it did.
type Snapshot struct {
	At sim.Time
	// State is the ladder rung after this sample's actions.
	State core.HealthState
	// EffectiveJoules is the usable-energy estimate the budget was
	// derived from at the sample: the fused sensor estimate when an
	// EnergySource is configured, the raw battery model otherwise.
	EffectiveJoules float64
	// TrueJoules is the battery model's actual usable energy at the
	// sample — ground truth the telemetry estimate is audited against.
	// Equal to EffectiveJoules when no EnergySource is configured.
	TrueJoules float64
	// BandwidthEstimate is the derated bytes/sec used for the budget.
	BandwidthEstimate int64
	// MeasuredBandwidth is the raw per-IO goodput from the SSD's
	// measurement window (0 with too few samples).
	MeasuredBandwidth int64
	// WearCycles is the SSD's accumulated full-capacity write passes.
	WearCycles float64
	// Budget is the derived dirty budget in pages.
	Budget int
	// Dirty and Draining mirror the manager at the sample.
	Dirty    int
	Draining bool
	// ErrorStreak is the manager's consecutive clean failures.
	ErrorStreak int
	// ScrubDetections is the scrubber's cumulative corruption
	// detections at the sample (0 with no scrubber attached).
	ScrubDetections uint64
	// ScrubQuarantined is the scrubber's current quarantine size.
	ScrubQuarantined int
}

// Stats counts monitor activity.
type Stats struct {
	Ticks            uint64
	Retunes          uint64 // budget values pushed to the manager
	EmergencyEnters  uint64
	DrainFailures    uint64
	ReadOnlyFalls    uint64
	Recoveries       uint64
	ScrubDegrades    uint64 // Degraded entries driven by fresh scrub detections
	ScrubEmergencies uint64 // EmergencyFlush escalations driven by quarantine growth
	// MeasurementResets counts poisoned-measurement-window resets on
	// the non-emergency path: the measured-scaled budget collapsed
	// below one page while the device showed no live errors and the
	// wear model still supported writing, so the stale window (filled
	// by a past fault burst, possibly before the first good sample)
	// was discarded instead of being allowed to drive a spurious
	// emergency.
	MeasurementResets uint64
}

// ScrubStatus is the scrubber-side signal surface the monitor samples —
// implemented by *scrub.Scrubber. Detections are cumulative; the
// quarantine size is current.
type ScrubStatus interface {
	ScrubErrors() (detections uint64, quarantined int)
}

// Monitor periodically re-derives the dirty budget and operates the
// degradation ladder. It is single-goroutine like the rest of the
// simulation.
type Monitor struct {
	events *sim.Queue
	batt   *battery.Battery
	mgr    *core.Manager
	pm     power.Model
	cfg    Config

	drainFails    int
	recoverStreak int
	// snapshots is the sample ring: it grows to MaxSnapshots, then each
	// sample overwrites the oldest, at snapHead.
	snapshots []Snapshot
	snapHead  int
	event     *sim.Event
	fireFn    func(sim.Time) // m.fire, bound once
	closed    bool
	stats     Stats

	scrub           ScrubStatus // nil = no scrub signal
	lastDetections  uint64      // detections seen at the previous sample
	lastQuarantined int         // quarantine size at the previous sample

	// Registry mirror (nil-safe; Stats stays the source of truth).
	st instruments
}

type instruments struct {
	ticks             *obs.Counter
	retunes           *obs.Counter
	emergencyEnters   *obs.Counter
	drainFailures     *obs.Counter
	readOnlyFalls     *obs.Counter
	recoveries        *obs.Counter
	scrubDegrades     *obs.Counter
	scrubEmergencies  *obs.Counter
	measurementResets *obs.Counter

	effectiveMillijoules *obs.Gauge
	bandwidthEstimate    *obs.Gauge
	derivedBudget        *obs.Gauge
	budgetMillijoules    *obs.Gauge
}

func newInstruments(r *obs.Registry) instruments {
	if r == nil {
		return instruments{}
	}
	return instruments{
		ticks:                r.Counter("health_ticks_total"),
		retunes:              r.Counter("health_retunes_total"),
		emergencyEnters:      r.Counter("health_emergency_enters_total"),
		drainFailures:        r.Counter("health_drain_failures_total"),
		readOnlyFalls:        r.Counter("health_readonly_falls_total"),
		recoveries:           r.Counter("health_recoveries_total"),
		scrubDegrades:        r.Counter("health_scrub_degrades_total"),
		scrubEmergencies:     r.Counter("health_scrub_emergencies_total"),
		measurementResets:    r.Counter("health_measurement_resets_total"),
		effectiveMillijoules: r.Gauge("battery_effective_millijoules"),
		bandwidthEstimate:    r.Gauge("health_bandwidth_estimate_bytes"),
		derivedBudget:        r.Gauge("health_derived_budget_pages"),
		budgetMillijoules:    r.Gauge("health_budget_millijoules"),
	}
}

// AttachScrub wires a scrubber's error signal into the monitor's ladder
// decisions: fresh detections between samples enter Degraded, and a
// quarantine past scrubQuarantineEmergency escalates to EmergencyFlush.
// Passing nil detaches.
func (m *Monitor) AttachScrub(s ScrubStatus) {
	m.scrub = s
	m.lastDetections = 0
	if s != nil {
		m.lastDetections, _ = s.ScrubErrors()
	}
}

// NewMonitor wires a monitor over an already-running manager and battery
// and arms its first tick one Interval from now.
func NewMonitor(events *sim.Queue, clock *sim.Clock, batt *battery.Battery, mgr *core.Manager, pm power.Model, cfg Config) (*Monitor, error) {
	cfg = cfg.withDefaults()
	if cfg.Interval <= 0 {
		return nil, fmt.Errorf("health: interval %v must be positive", cfg.Interval)
	}
	m := &Monitor{
		events: events,
		batt:   batt,
		mgr:    mgr,
		pm:     pm,
		cfg:    cfg,
		st:     newInstruments(cfg.Obs),
	}
	m.fireFn = m.fire
	m.event = events.Schedule(clock.Now().Add(cfg.Interval), m.fireFn)
	return m, nil
}

// Retire ends old, the closed monitor of a system a reboot retires, and
// gives m, if it has recorded nothing yet, old's snapshot ring emptied,
// so the reboot's history fills the capacity old's grew to. old reports
// no snapshots from then on.
func (m *Monitor) Retire(old *Monitor) {
	if len(m.snapshots) == 0 && old.closed {
		m.snapshots = old.snapshots[:0]
	}
	old.snapshots, old.snapHead = nil, 0
}

// Close disarms the monitor.
func (m *Monitor) Close() {
	if m.closed {
		return
	}
	m.closed = true
	m.events.Cancel(m.event)
}

// Stats returns a snapshot of the counters.
func (m *Monitor) Stats() Stats { return m.stats }

// Snapshots returns the recorded sample ring, oldest first.
func (m *Monitor) Snapshots() []Snapshot {
	out := make([]Snapshot, 0, len(m.snapshots))
	return append(append(out, m.snapshots[m.snapHead:]...), m.snapshots[:m.snapHead]...)
}

// fire runs one monitor tick and re-arms the monitor's event.
func (m *Monitor) fire(t sim.Time) {
	if m.closed {
		return
	}
	m.tick(t)
	m.events.Rearm(m.event, t.Add(m.cfg.Interval), m.fireFn)
}

// BudgetPages is the §5.1 formula, the one forward derivation of the
// dirty budget: reserve the fixed flush overhead, convert the remaining
// runtime into bytes at the (already derated) bandwidth, cap at the
// region size. viyojit.New, the monitor, the crash sweeps and
// provision -age/-wear all derive the budget through it; JoulesForBudget
// is its exact inverse.
func BudgetPages(pm power.Model, effectiveJoules float64, bandwidth, dramBytes int64, pageSize int, overhead sim.Duration) int {
	if bandwidth <= 0 || pageSize <= 0 {
		return 0
	}
	// A poisoned energy input (NaN from broken sensor math, Inf from an
	// overflowed integrator, a negative residual) must collapse to the
	// safe answer — zero pages — not propagate: NaN in particular would
	// sail through the ordered comparisons below (every one is false)
	// and emerge as a garbage page count.
	if math.IsNaN(effectiveJoules) || math.IsInf(effectiveJoules, 0) || effectiveJoules <= 0 {
		return 0
	}
	watts := pm.FlushWatts(dramBytes)
	if math.IsNaN(watts) || watts <= 0 {
		return 0
	}
	seconds := effectiveJoules/watts - overhead.Seconds()
	if math.IsNaN(seconds) || seconds <= 0 {
		return 0
	}
	// The epsilon absorbs float round-off when the energy came from
	// JoulesForBudget: a few ulps of x, so relative once x is large.
	x := seconds * float64(bandwidth) / float64(pageSize)
	pages := int(x + max(1e-9, x*1e-12))
	return min(pages, int(dramBytes/int64(pageSize)))
}

// JoulesForBudget is BudgetPages' inverse: the effective energy that
// backs exactly pages dirty pages, overhead reserved. The transfer time
// stays a float (a Duration would truncate it to whole nanoseconds and
// back one page fewer), so BudgetPages(JoulesForBudget(n)) == n for every
// n up to the region's page count.
func JoulesForBudget(pm power.Model, pages int, bandwidth, dramBytes int64, pageSize int, overhead sim.Duration) float64 {
	seconds := float64(pages)*float64(pageSize)/float64(bandwidth) + overhead.Seconds()
	return pm.FlushWatts(dramBytes) * seconds
}

// FollowBattery installs the battery→budget hooks, the only ones: before
// a shrink applies, the dirty set drains synchronously to what the
// projected energy covers (the safe shrink, so "dirty ≤ pages the battery
// can flush" holds through the step-down); after any change the budget is
// retuned to what the new energy covers. pagesFor is the joules→pages
// conversion, floored at one page here (a battery backing nothing is the
// ladder's to handle, not the budget's). reg, when non-nil, publishes the
// battery's energy the moment it changes instead of at the next tick.
func FollowBattery(batt *battery.Battery, mgr *core.Manager, reg *obs.Registry, pagesFor func(joules float64) int) {
	batt.OnShrink(func(_ *battery.Battery, projected float64) {
		_ = mgr.SetDirtyBudgetSync(max(pagesFor(projected), 1))
	})
	// Milli-joules keep the gauge integral.
	effective := reg.Gauge("battery_effective_millijoules")
	effective.Set(int64(batt.EffectiveJoules() * 1000))
	batt.OnChange(func(b *battery.Battery) {
		effective.Set(int64(b.EffectiveJoules() * 1000))
		_ = mgr.SetDirtyBudget(max(pagesFor(b.EffectiveJoules()), 1))
	})
}

// bandwidthEstimate is the monitor's live bandwidth input: the SSD's
// wear-modelled sustained bandwidth, scaled down further when the
// *measured* per-IO goodput falls short of what the device model
// predicts for page-sized IOs. The relative comparison matters: even a
// healthy device measures far below its sustained bandwidth on 4 KiB
// IOs (per-IO latency dominates), so the measured figure only bites as
// a ratio against that expectation — a device erroring or stalling
// measures slow relative to its own spec and the budget shrinks before
// the wear counters say it should.
func (m *Monitor) bandwidthEstimate() (estimate, measured int64) {
	dev := m.mgr.SSD()
	eff := dev.EffectiveWriteBandwidth()
	measured = dev.MeasuredWriteBandwidth()
	scaled := float64(eff)
	if measured > 0 {
		devCfg := dev.Config()
		perIO := devCfg.PerIOLatency.Seconds() + float64(devCfg.PageSize)/float64(eff)
		expected := float64(devCfg.PageSize) / perIO
		if ratio := float64(measured) / expected; ratio < 1 {
			scaled *= ratio
		}
	}
	return int64(scaled * Derating), measured
}

// tick is one monitor sample: derive the budget, retune or escalate,
// and record a snapshot.
func (m *Monitor) tick(at sim.Time) {
	m.stats.Ticks++
	m.st.ticks.Inc()
	trueJoules := m.batt.EffectiveJoules()
	joules := trueJoules
	if m.cfg.Energy != nil {
		// Budget from fused conservative telemetry, never a single
		// gauge: the sensor may under-report (costing budget pages) but
		// never over-reports beyond its configured bound, so dirty ≤
		// budget keeps implying flush-within-true-energy even when a
		// gauge lies.
		joules = m.cfg.Energy.Sample(at)
	}
	// A tick inside a safe-shrink drain budgets for the energy the
	// shrink leaves, never for the charge about to go: otherwise its
	// retune would end the drain above what the shrunk battery covers.
	joules = min(joules, m.batt.ProjectedJoules())
	bw, measured := m.bandwidthEstimate()
	region := m.mgr.Region()
	budget := BudgetPages(m.pm, joules, bw, region.Size(), region.PageSize(), FlushReserve)
	m.st.effectiveMillijoules.Set(int64(trueJoules * 1000))
	m.st.budgetMillijoules.Set(int64(joules * 1000))
	m.st.bandwidthEstimate.Set(bw)

	// Poisoned-measurement-window guard: a fault burst — possibly
	// striking before the first good sample — can leave the window
	// full of zero-goodput entries whose ratio drives the measured
	// budget to 0 pages long after the device recovered. If the device
	// shows no live errors and the wear model alone still supports at
	// least one page, the window is stale evidence: discard it (the
	// same ResetMeasurement pattern the emergency-recovery gate uses)
	// and derive this tick's budget from the wear model, instead of
	// letting a dead window drive a spurious emergency. Only on the
	// lower rungs — the emergency path has its own wear-model gate.
	if hs := m.mgr.HealthState(); budget < 1 && measured > 0 && m.mgr.ErrorStreak() == 0 &&
		(hs == core.StateHealthy || hs == core.StateDegraded) {
		wearBW := int64(float64(m.mgr.SSD().EffectiveWriteBandwidth()) * Derating)
		if wearBudget := BudgetPages(m.pm, joules, wearBW, region.Size(), region.PageSize(), FlushReserve); wearBudget >= 1 {
			m.mgr.SSD().ResetMeasurement()
			m.stats.MeasurementResets++
			m.st.measurementResets.Inc()
			budget, bw = wearBudget, wearBW
		}
	}
	m.st.derivedBudget.Set(int64(budget))

	// Sample the scrub signal every tick so the fresh-detection delta
	// stays aligned with the sampling period whatever rung we're on.
	var scrubDetections uint64
	var freshDetections uint64
	var quarantined int
	quarantineGrew := false
	if m.scrub != nil {
		scrubDetections, quarantined = m.scrub.ScrubErrors()
		freshDetections = scrubDetections - m.lastDetections
		m.lastDetections = scrubDetections
		quarantineGrew = quarantined > m.lastQuarantined
		m.lastQuarantined = quarantined
	}

	switch m.mgr.HealthState() {
	case core.StateReadOnly:
		// Terminal without operator intervention (SSD replacement would
		// come with an explicit Resume); keep observing.

	case core.StateEmergencyFlush:
		remaining := m.mgr.RetryDrain()
		if remaining > 0 {
			m.stats.DrainFailures++
			m.st.drainFailures.Inc()
			m.drainFails++
			if m.drainFails >= drainAttempts {
				m.mgr.EnterReadOnly()
				m.stats.ReadOnlyFalls++
				m.st.readOnlyFalls.Inc()
			}
			m.recoverStreak = 0
			break
		}
		// Drained. Resume only once the inputs support writing again,
		// and only after recoverTicks consecutive good samples. The
		// recovery gate judges the budget on the wear-model bandwidth,
		// not the measured one: the measurement window is full of the
		// outage's zero-goodput samples, and with writes blocked no new
		// samples can displace them — the completed drain is the direct
		// evidence the device writes again.
		wearBW := int64(float64(m.mgr.SSD().EffectiveWriteBandwidth()) * Derating)
		recoveryBudget := BudgetPages(m.pm, joules, wearBW, region.Size(), region.PageSize(), FlushReserve)
		if recoveryBudget >= 1 && m.mgr.ErrorStreak() == 0 {
			m.recoverStreak++
			if m.recoverStreak >= recoverTicks {
				// Come back at Degraded, not Healthy: the lower rungs'
				// own hysteresis decides when the device is trusted
				// again. Restart measurement so the next ticks derive
				// the budget from fresh samples, not the outage's.
				m.mgr.SSD().ResetMeasurement()
				_ = m.mgr.Resume(core.StateDegraded)
				m.stats.Recoveries++
				m.st.recoveries.Inc()
				m.drainFails = 0
				m.recoverStreak = 0
				m.retune(recoveryBudget)
			}
		} else {
			m.recoverStreak = 0
		}

	default: // Healthy, Degraded
		scrubEmergency := quarantined >= scrubQuarantineEmergency && quarantineGrew
		if m.mgr.ErrorStreak() >= emergencyErrorStreak || (budget < 1 && m.mgr.DirtyCount() > 0) ||
			scrubEmergency {
			if scrubEmergency {
				m.stats.ScrubEmergencies++
				m.st.scrubEmergencies.Inc()
			}
			m.drainFails = 0
			m.recoverStreak = 0
			m.stats.EmergencyEnters++
			m.st.emergencyEnters.Inc()
			if m.mgr.EnterEmergencyFlush() > 0 {
				m.stats.DrainFailures++
				m.st.drainFailures.Inc()
				m.drainFails++
			}
			break
		}
		if freshDetections > 0 && m.mgr.HealthState() == core.StateHealthy {
			// The scrubber caught the device silently corrupting data —
			// any detection costs it its clean bill of health: take the Degraded rung's extra cleaning headroom while the
			// usual success-streak/quiet-period hysteresis decides when
			// it is trusted again.
			m.mgr.EnterDegraded()
			m.stats.ScrubDegrades++
			m.st.scrubDegrades.Inc()
		}
		if budget >= 1 {
			m.retune(budget)
		}
	}

	m.record(Snapshot{
		At:                at,
		State:             m.mgr.HealthState(),
		EffectiveJoules:   joules,
		TrueJoules:        trueJoules,
		BandwidthEstimate: bw,
		MeasuredBandwidth: measured,
		WearCycles:        m.mgr.SSD().WearCycles(),
		Budget:            budget,
		Dirty:             m.mgr.DirtyCount(),
		Draining:          m.mgr.Draining(),
		ErrorStreak:       m.mgr.ErrorStreak(),
		ScrubDetections:   scrubDetections,
		ScrubQuarantined:  quarantined,
	})
}

func (m *Monitor) retune(budget int) {
	if budget == m.mgr.DirtyBudget() {
		return
	}
	if err := m.mgr.SetDirtyBudget(budget); err == nil {
		m.stats.Retunes++
		m.st.retunes.Inc()
	}
}

func (m *Monitor) record(s Snapshot) {
	if len(m.snapshots) < m.cfg.MaxSnapshots {
		m.snapshots = append(m.snapshots, s)
		return
	}
	m.snapshots[m.snapHead] = s
	m.snapHead = (m.snapHead + 1) % len(m.snapshots)
}
