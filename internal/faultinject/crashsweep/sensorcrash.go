package crashsweep

// sensorcrash.go is the lying-fuel-gauge mode of the live-traffic sweep:
// RunSensor power-fails a live serve.Server mid-traffic with the dirty
// budget derived from the fault-tolerant telemetry chain
// (internal/sensor fused over two gauges) instead of a trusted battery
// read, while seeded sensor-fault injectors corrupt the gauges under
// fire: the voltage gauge suffers the full fault menu including lying up
// to 50% high, the coulomb counter suffers dropouts.
//
// Each crashed run proves, against the battery model as ground truth:
//
//  1. the fused estimate never over-reported true energy — at the crash
//     instant and at every monitor sample of the run;
//  2. dirty ≤ the fused-derived budget at every sample (modulo a staged
//     drain in progress), and dirty at the crash instant is within both
//     the manager's effective budget and the page count the TRUE
//     remaining energy can flush;
//  3. the battery flush completes within true energy (the gauge lied;
//     the physics didn't) and leaves the SSD byte-equal to NV-DRAM;
//  4. every injected fault episode was detected within its class's
//     bound (MTTD): rate-gate classes within a couple of samples of
//     onset, dropouts within the staleness window plus slack;
//  5. the recovered stack still answers every client's retry stream
//     exactly once (the shared oracle, unchanged).
//
// A stuck gauge is exempt from the MTTD audit here: the battery model
// holds constant during serving, so a gauge frozen at the true value is
// observationally honest — and harmless by the same argument.

import (
	"viyojit"
	"viyojit/internal/faultinject"
	"viyojit/internal/health"
	"viyojit/internal/power"
	"viyojit/internal/sensor"
	"viyojit/internal/sim"
)

// SensorSweepConfig parameterises the lying-gauge sweep.
type SensorSweepConfig struct {
	// Serve is the underlying live-traffic sweep configuration.
	Serve ServeConfig
	// Lie, Stuck and Drift are the voltage gauge's per-sample
	// episode-start probabilities. All-zero selects the default menu,
	// which also injects spikes and dropouts; setting any one replaces
	// the whole menu.
	Lie, Stuck, Drift float64
	// LieMagnitude caps the lying gauge's fractional over-report;
	// 0 selects 0.5 — a gauge reading up to 50% high.
	LieMagnitude float64
}

const (
	// gaugeInterval is the telemetry/health sampling period: well inside
	// a manager epoch, so budget reactions land between cleans.
	gaugeInterval = 50 * sim.Microsecond
	// gaugeStaleAfter is the fused layer's staleness window, as
	// viyojit.New derives it from the monitor interval.
	gaugeStaleAfter = gaugeInterval * 5 / 2
	// coulombDropout is the coulomb counter's dropout probability. The
	// coulomb gauge never lies in this sweep: the safety argument needs
	// one estimator that is honest-or-silent, and the solo-margin bound
	// covers the window where it is silent.
	coulombDropout = 0.005
)

// defaultGaugeMenu is the voltage gauge's fault menu when the config
// names none.
var defaultGaugeMenu = faultinject.SensorConfig{
	LieProb: 0.03, SpikeProb: 0.02, StuckProb: 0.01, DriftProb: 0.01, DropoutProb: 0.01,
}

// TelemetryEvidence is what the gauges add to a sweep's result. Episode
// and detection tallies are evidence the sweep exercised each fault
// class, not just that nothing failed.
type TelemetryEvidence struct {
	// Episodes counts injected fault episodes per class name across all
	// runs; Detections counts fused-layer rejections per reason.
	Episodes   map[string]int
	Detections map[string]int
	// MaxMTTD is the worst observed detection latency per audited class.
	MaxMTTD map[string]sim.Duration
	// MinFusedFraction is the lowest fused/true ratio seen at any
	// monitor sample — how deep the conservative under-report cut.
	// Starts at 1 (no sample below truth observed yet).
	MinFusedFraction float64
	// EmergencyEnters totals health-monitor emergency escalations
	// across runs; the provisioning here leaves no legitimate reason
	// for one, so the acceptance test pins it to zero.
	EmergencyEnters uint64
	// Retunes totals budget moves the monitor pushed — evidence the
	// budget actually tracked the fused estimate.
	Retunes uint64
	// SoloSamples / BlindSamples total the fused layer's degraded
	// sampling modes across runs.
	SoloSamples  uint64
	BlindSamples uint64
}

// SensorSweepResult summarises a lying-gauge sweep.
type SensorSweepResult struct {
	ServeResult
	TelemetryEvidence
}

// telemetry is the chain under test on one pre-crash stack: the
// System's own battery, fused sensor and health monitor, and the two
// injectors corrupting its gauges. A nil *telemetry is a run without
// injectors: every method is a no-op.
type telemetry struct {
	sys  *viyojit.System
	vInj *faultinject.SensorInjector
	cInj *faultinject.SensorInjector
}

// attachTelemetry attaches the seeded injectors to the gauges of a
// freshly built stack (nil if the mode has none). mode.config provisioned
// the battery so that the monitor's budget derivation lands on twice the
// serving budget when the telemetry is honest: the sweep then watches
// the budget dip below that exactly when the fusion turns conservative.
// viyojit.New took one honest baseline sample before this, so every
// estimator has an accepted anchor and a lie-from-the-first-tick is a
// rise, not a baseline.
//
// salt is the run index and salts the injector streams: each armed run
// explores its own fault schedule (runs crash early, so an unsalted
// schedule would make every run replay the same first few episodes).
// Still deterministic — a pure function of (config seed, run index).
func attachTelemetry(st *serveRun, salt uint64) *telemetry {
	cfg := st.mode.gauges
	if cfg == nil {
		return nil
	}
	t := &telemetry{sys: st.sys}
	salt *= 0x9E3779B97F4A7C15
	t.cInj = faultinject.NewSensorInjector(faultinject.SensorConfig{
		Seed:        cfg.Serve.Seed ^ 0xC001_0111 ^ salt,
		DropoutProb: coulombDropout,
	})
	menu := defaultGaugeMenu
	if cfg.Lie != 0 || cfg.Stuck != 0 || cfg.Drift != 0 {
		menu = faultinject.SensorConfig{LieProb: cfg.Lie, StuckProb: cfg.Stuck, DriftProb: cfg.Drift}
	}
	menu.Seed = cfg.Serve.Seed ^ 0x7017_A6E5 ^ salt
	menu.LieMagnitude = cfg.LieMagnitude
	if menu.LieMagnitude == 0 {
		menu.LieMagnitude = 0.5
	}
	t.vInj = faultinject.NewSensorInjector(menu)
	st.sys.Sensor().Estimator(0).SetCorruptor(t.cInj)
	st.sys.Sensor().Estimator(1).SetCorruptor(t.vInj)
	return t
}

// close stops the monitor's sampling (idempotent): the audited trail
// ends where the run did.
func (t *telemetry) close() {
	if t != nil {
		t.sys.Health().Close()
	}
}

// atCrash is the hard bound at the crash instant beyond the manager's
// effective budget: dirty within what the TRUE remaining energy can
// flush — the guarantee the whole telemetry chain exists to preserve
// against a gauge lying high — by the product's own joules-to-pages
// conversion at the device's full bandwidth. The flush that follows runs
// on the physical battery either way; the lying gauge has no say there.
func (t *telemetry) atCrash(fail failFunc) {
	if t == nil {
		return
	}
	trueJ, region, dev := t.sys.Battery().EffectiveJoules(), t.sys.Manager().Region(), t.sys.SSD()
	cover := health.BudgetPages(power.Default(), trueJ, dev.EffectiveWriteBandwidth(), region.Size(), region.PageSize(), health.FlushReserve)
	if dirty := t.sys.DirtyCount(); dirty > cover {
		fail("dirty %d exceeds the %d pages true energy %.4f J can flush", dirty, cover, trueJ)
	}
}

const fusedEps = 1 + 1e-9

// audit checks one armed run, crashed or not: the conservatism
// invariants over the whole recorded trail, then each gauge's episodes
// against their MTTD bounds; the run's tallies are added to res.
func (t *telemetry) audit(res *TelemetryEvidence, fail failFunc) {
	if t == nil {
		return
	}
	gauges, mon := t.sys.Sensor(), t.sys.Health()
	trueJ := t.sys.Battery().EffectiveJoules()
	if fused := gauges.EffectiveJoules(); fused > trueJ*fusedEps {
		fail("fused %v over-reports true %v at crash instant", fused, trueJ)
	}
	for _, s := range mon.Snapshots() {
		if s.EffectiveJoules > s.TrueJoules*fusedEps {
			fail("sample at %v: fused %v over-reports true %v", s.At, s.EffectiveJoules, s.TrueJoules)
		}
		if s.Dirty > s.Budget && !s.Draining {
			fail("sample at %v: dirty %d exceeds fused-derived budget %d with no drain staged",
				s.At, s.Dirty, s.Budget)
		}
		if s.TrueJoules > 0 {
			if frac := s.EffectiveJoules / s.TrueJoules; frac < res.MinFusedFraction {
				res.MinFusedFraction = frac
			}
		}
	}
	hs := mon.Stats()
	res.EmergencyEnters += hs.EmergencyEnters
	res.Retunes += hs.Retunes
	fs := gauges.Stats()
	res.SoloSamples += fs.SoloSamples
	res.BlindSamples += fs.BlindSamples
	res.Detections[string(sensor.DetectBounds)] += int(fs.BoundsRejects)
	res.Detections[string(sensor.DetectRate)] += int(fs.RateRejects)
	res.Detections[string(sensor.DetectStale)] += int(fs.StaleDropouts)
	res.Detections[string(sensor.DetectDisagree)] += int(fs.Disagreements)
	t.auditMTTD("voltage", t.vInj, res, fail)
	t.auditMTTD("coulomb", t.cInj, res, fail)
}

// auditMTTD verifies every audited episode produced a detection for its
// estimator within the class bound. Bounds, with I the sample interval:
//
//	lie/spike: onset is a rise past the rate gate — caught at the onset
//	           sample itself; allow Start+2I for slack.
//	drift:     the reading equals truth at onset and rises from the
//	           next sample; allow Start+3I.
//	dropout:   silent by design for the staleness grace; the watchdog
//	           must fire by Start+StaleAfter+3I.
//	stuck:     exempt — truth is constant during serving, so a frozen
//	           gauge reads correctly (see the file comment).
//
// Episodes whose deadline lies beyond the last sample the run got to
// take (the crash preempted detection) are skipped, as are lies and
// spikes with sub-float-noise magnitudes.
func (t *telemetry) auditMTTD(name string, inj *faultinject.SensorInjector, res *TelemetryEvidence, fail failFunc) {
	const interval, staleAfter = gaugeInterval, gaugeStaleAfter
	dets := t.sys.Sensor().Detections()
	lastSample := t.sys.Sensor().LastSampleAt()
	firstDetAfter := func(start sim.Time) (sim.Time, bool) {
		for _, d := range dets {
			if d.Estimator == name && d.At >= start {
				return d.At, true
			}
		}
		return 0, false
	}
	for _, ep := range inj.Episodes() {
		res.Episodes[ep.Class.String()]++
		var deadline sim.Time
		switch ep.Class {
		case faultinject.SensorStuck:
			continue
		case faultinject.SensorLieHigh, faultinject.SensorSpike:
			if ep.Magnitude < 1e-6 {
				continue
			}
			deadline = ep.Start.Add(2 * interval)
		case faultinject.SensorDrift:
			deadline = ep.Start.Add(3 * interval)
		case faultinject.SensorDropout:
			deadline = ep.Start.Add(staleAfter + 3*interval)
		}
		if deadline > lastSample {
			continue // crash preempted the detection window
		}
		at, ok := firstDetAfter(ep.Start)
		if !ok || at > deadline {
			got := "none"
			if ok {
				got = at.Sub(ep.Start).String()
			}
			fail("%s %s episode at %v undetected within %v (first detection: %s)",
				name, ep.Class, ep.Start, deadline.Sub(ep.Start), got)
			continue
		}
		mttd := at.Sub(ep.Start)
		if prev, seen := res.MaxMTTD[ep.Class.String()]; !seen || mttd > prev {
			res.MaxMTTD[ep.Class.String()] = mttd
		}
	}
}

// RunSensor executes the lying-gauge live-traffic sweep, on the slow
// device. The calibration run has the injectors attached, so what the
// monitor does about them is part of the step space.
func RunSensor(cfg SensorSweepConfig) (SensorSweepResult, error) {
	sw := newSweep(mode{ServeConfig: cfg.Serve, writeBW: slowDevice, gauges: &cfg})
	err := sw.run()
	return SensorSweepResult{ServeResult: sw.res, TelemetryEvidence: sw.gauge}, err
}
