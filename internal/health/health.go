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
	"errors"
	"fmt"
	"math"

	"viyojit/internal/battery"
	"viyojit/internal/core"
	"viyojit/internal/obs"
	"viyojit/internal/power"
	"viyojit/internal/sim"
)

// ErrConfig is the sentinel every monitor configuration-validation
// error wraps; test with errors.Is. A faulty sensor or operator input
// must be rejected here — NaN or Inf reaching BudgetPages would poison
// the budget math silently.
var ErrConfig = errors.New("health: invalid config")

// EnergySource is the telemetry channel the monitor derives the budget
// from: Sample returns the usable-energy estimate in joules at virtual
// time at. *sensor.Fused implements it; when none is configured the
// monitor falls back to reading the battery model directly (trusting a
// single gauge).
type EnergySource interface {
	Sample(at sim.Time) float64
}

// Config tunes the monitor. Zero values select the documented defaults.
type Config struct {
	// Interval is the sampling period on the sim clock; 0 selects 2 ms
	// (a couple of manager epochs).
	Interval sim.Duration
	// BandwidthDerating is the conservative fraction applied to the
	// bandwidth estimate before converting joules to pages (§5.1 calls
	// for a conservative estimate); 0 selects 0.8.
	BandwidthDerating float64
	// FlushOverhead is the fixed flush-time allowance reserved before
	// converting energy into pages (per-IO latency, protection changes,
	// scheduling slack); 0 selects 500 µs.
	FlushOverhead sim.Duration
	// EmergencyErrorStreak is the clean-error streak at a sample that
	// escalates to EmergencyFlush; 0 selects 6 (twice the default
	// Degraded threshold).
	EmergencyErrorStreak int
	// DrainAttempts is how many consecutive samples an emergency drain
	// may fail to empty the dirty set before the SSD is declared dead
	// and the ladder drops to ReadOnly; 0 selects 2.
	DrainAttempts int
	// RecoverTicks is the resume hysteresis: consecutive good samples
	// (drain complete, budget positive, no fresh errors) required at
	// EmergencyFlush before writes unblock; 0 selects 2.
	RecoverTicks int
	// MaxSnapshots bounds the observability ring; 0 selects 1024.
	MaxSnapshots int
	// ScrubDegradeDetections is the number of fresh scrub corruption
	// detections between samples that enters Degraded (extra cleaning
	// headroom while the device proves itself); 0 selects 1 — any
	// detection costs the device its clean bill of health.
	ScrubDegradeDetections int
	// ScrubQuarantineEmergency is the quarantined-page count (corrupt
	// with no good copy to repair from) that escalates to
	// EmergencyFlush: a device accumulating unrepairable corruption is
	// lying about acked writes, and shrinking exposure to zero is the
	// only safe posture. 0 selects 8.
	ScrubQuarantineEmergency int
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
	if c.BandwidthDerating == 0 {
		c.BandwidthDerating = 0.8
	}
	if c.FlushOverhead == 0 {
		c.FlushOverhead = 500 * sim.Microsecond
	}
	if c.EmergencyErrorStreak == 0 {
		c.EmergencyErrorStreak = 6
	}
	if c.DrainAttempts == 0 {
		c.DrainAttempts = 2
	}
	if c.RecoverTicks == 0 {
		c.RecoverTicks = 2
	}
	if c.MaxSnapshots == 0 {
		c.MaxSnapshots = 1024
	}
	if c.ScrubDegradeDetections == 0 {
		c.ScrubDegradeDetections = 1
	}
	if c.ScrubQuarantineEmergency == 0 {
		c.ScrubQuarantineEmergency = 8
	}
	return c
}

func (c Config) validate() error {
	if c.Interval <= 0 {
		return fmt.Errorf("%w: interval %v must be positive", ErrConfig, c.Interval)
	}
	// NaN fails every ordered comparison, so the range check below
	// would wave it through; reject explicitly.
	if math.IsNaN(c.BandwidthDerating) || c.BandwidthDerating <= 0 || c.BandwidthDerating > 1 {
		return fmt.Errorf("%w: bandwidth derating %v outside (0,1]", ErrConfig, c.BandwidthDerating)
	}
	if c.FlushOverhead < 0 {
		return fmt.Errorf("%w: flush overhead %v must be non-negative", ErrConfig, c.FlushOverhead)
	}
	return nil
}

// Policy is the runtime-tunable subset of Config: how conservatively
// the monitor converts its live inputs into a budget. Operators adjust
// it without restarting the monitor.
type Policy struct {
	// BandwidthDerating as in Config.BandwidthDerating.
	BandwidthDerating float64
	// FlushOverhead as in Config.FlushOverhead.
	FlushOverhead sim.Duration
}

// SetPolicy replaces the monitor's derivation knobs; the next tick uses
// them. Zero fields keep their current values.
func (m *Monitor) SetPolicy(p Policy) error {
	next := m.cfg
	if p.BandwidthDerating != 0 {
		next.BandwidthDerating = p.BandwidthDerating
	}
	if p.FlushOverhead != 0 {
		next.FlushOverhead = p.FlushOverhead
	}
	if err := next.validate(); err != nil {
		return err
	}
	m.cfg = next
	return nil
}

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

	lastBudget    int
	drainFails    int
	recoverStreak int
	snapshots     []Snapshot
	event         *sim.Event
	fireFn        func(sim.Time) // m.fire, bound once
	closed        bool
	stats         Stats

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
// quarantine past ScrubQuarantineEmergency escalates to EmergencyFlush.
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
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	m := &Monitor{
		events:     events,
		batt:       batt,
		mgr:        mgr,
		pm:         pm,
		cfg:        cfg,
		lastBudget: mgr.DirtyBudget(),
		st:         newInstruments(cfg.Obs),
	}
	m.fireFn = m.fire
	m.event = events.Schedule(clock.Now().Add(cfg.Interval), m.fireFn)
	return m, nil
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
	out := make([]Snapshot, len(m.snapshots))
	copy(out, m.snapshots)
	return out
}

// LastBudget returns the most recent budget the monitor derived.
func (m *Monitor) LastBudget() int { return m.lastBudget }

// fire runs one monitor tick and re-arms the monitor's event.
func (m *Monitor) fire(t sim.Time) {
	if m.closed {
		return
	}
	m.tick(t)
	m.events.Rearm(m.event, t.Add(m.cfg.Interval), m.fireFn)
}

// BudgetPages converts effective battery joules into a dirty budget the
// same way viyojit.New does at construction: reserve the fixed flush
// overhead, convert the remaining runtime into bytes at the (already
// derated) bandwidth, cap at the region size. Exposed so provisioning
// tools (cmd/battery-calc) print exactly the trajectory the monitor
// computes at runtime.
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
	// The epsilon absorbs float round-off when the energy was computed
	// for an exact page count (JoulesForPages round-trips).
	pages := int(seconds*float64(bandwidth)/float64(pageSize) + 1e-9)
	if max := int(dramBytes / int64(pageSize)); pages > max {
		pages = max
	}
	return pages
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
	return int64(scaled * m.cfg.BandwidthDerating), measured
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
	bw, measured := m.bandwidthEstimate()
	region := m.mgr.Region()
	budget := BudgetPages(m.pm, joules, bw, region.Size(), region.PageSize(), m.cfg.FlushOverhead)
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
		wearBW := int64(float64(m.mgr.SSD().EffectiveWriteBandwidth()) * m.cfg.BandwidthDerating)
		if wearBudget := BudgetPages(m.pm, joules, wearBW, region.Size(), region.PageSize(), m.cfg.FlushOverhead); wearBudget >= 1 {
			m.mgr.SSD().ResetMeasurement()
			m.stats.MeasurementResets++
			m.st.measurementResets.Inc()
			budget, bw = wearBudget, wearBW
		}
	}
	m.lastBudget = budget
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
			if m.drainFails >= m.cfg.DrainAttempts {
				m.mgr.EnterReadOnly()
				m.stats.ReadOnlyFalls++
				m.st.readOnlyFalls.Inc()
			}
			m.recoverStreak = 0
			break
		}
		// Drained. Resume only once the inputs support writing again,
		// and only after RecoverTicks consecutive good samples. The
		// recovery gate judges the budget on the wear-model bandwidth,
		// not the measured one: the measurement window is full of the
		// outage's zero-goodput samples, and with writes blocked no new
		// samples can displace them — the completed drain is the direct
		// evidence the device writes again.
		wearBW := int64(float64(m.mgr.SSD().EffectiveWriteBandwidth()) * m.cfg.BandwidthDerating)
		recoveryBudget := BudgetPages(m.pm, joules, wearBW, region.Size(), region.PageSize(), m.cfg.FlushOverhead)
		if recoveryBudget >= 1 && m.mgr.ErrorStreak() == 0 {
			m.recoverStreak++
			if m.recoverStreak >= m.cfg.RecoverTicks {
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
		scrubEmergency := quarantined >= m.cfg.ScrubQuarantineEmergency && quarantineGrew
		if m.mgr.ErrorStreak() >= m.cfg.EmergencyErrorStreak || (budget < 1 && m.mgr.DirtyCount() > 0) ||
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
		if freshDetections >= uint64(m.cfg.ScrubDegradeDetections) && m.mgr.HealthState() == core.StateHealthy {
			// The scrubber caught the device silently corrupting data:
			// take the Degraded rung's extra cleaning headroom while the
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
	m.snapshots = append(m.snapshots, s)
	if len(m.snapshots) > m.cfg.MaxSnapshots {
		m.snapshots = m.snapshots[len(m.snapshots)-m.cfg.MaxSnapshots:]
	}
}
