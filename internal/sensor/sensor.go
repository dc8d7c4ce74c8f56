// Package sensor is the fault-tolerant energy-telemetry layer between
// the physical battery model and every budget consumer.
//
// Viyojit's safety argument — dirty pages ≤ what the battery can flush
// — is only as good as the energy number it is derived from. Real fuel
// gauges are not ground truth: coulomb counters drift, voltage-curve
// SoC estimators quantise and go stale, I2C links drop out, and a
// gauge that lies 30% high silently converts "flush within energy"
// into data loss. This package interposes redundant estimators and a
// conservative fusion policy so the budget chain consumes a defensible
// estimate instead of a single raw register read:
//
//   - two redundant estimators (coulomb-counting integrator and
//     voltage-curve SoC), each reading the simulated battery plus an
//     optional injected error channel (see faultinject.SensorInjector);
//   - per-estimator plausibility gating: physical bounds against the
//     nameplate capacity and a rate-of-change gate (energy cannot rise
//     mid-discharge);
//   - a staleness watchdog on the sim clock that declares an estimator
//     dropped out after StaleAfter without a successful read;
//   - cross-estimator disagreement handling that falls back to the
//     conservative lower bound and re-trusts a suspect only after
//     three consecutive agreeing samples (hysteresis);
//   - a 0.65 safety margin when redundancy is lost, and a
//     worst-case discharge decay when the sensor is flying blind.
//
// The fused estimate may under-report true joules (costing budget
// pages, never data) but never over-reports beyond the configured
// bound: with an honest estimator usable, fused ≤ true; with only a
// lying gauge left, fused ≤ true·(1+lie)·0.65.
package sensor

import (
	"math"

	"viyojit/internal/sim"
)

// Reading is one raw sample from an estimator. OK=false models a
// dropout (bus timeout, gauge reset): no value was produced at all.
type Reading struct {
	// Value is the estimated usable energy in joules.
	Value float64
	// OK reports whether the gauge answered at all.
	OK bool
}

// Corruptor injects sensor-level faults between the physical model and
// the estimator output. truth is the exact value the healthy gauge
// would have produced; the returned Reading is what the (possibly
// faulty) gauge actually reports. Implementations must be
// deterministic in (at, truth) given their own seeded state.
// faultinject.SensorInjector is the production implementation.
type Corruptor interface {
	Corrupt(at sim.Time, truth float64) Reading
}

// Estimator is one redundant gauge: a named channel that derives a
// joule estimate from the physical model and passes it through an
// optional fault corruptor.
type Estimator struct {
	name     string
	truth    func() float64
	quantum  float64
	corr     Corruptor
	reads    uint64
	dropouts uint64
}

// NewCoulombCounter models a coulomb-counting integrator: in the sim
// it tracks the battery's usable energy exactly (the integration error
// a real counter accrues is injected via the Corruptor, not modelled
// analytically). truth must return the current true usable joules.
func NewCoulombCounter(name string, truth func() float64) *Estimator {
	return &Estimator{name: name, truth: truth}
}

// NewVoltageSoC models a voltage-curve state-of-charge estimator:
// the battery voltage is read against a discharge curve whose table
// resolution quantises the answer. quantum is the joule granularity;
// readings are rounded DOWN to the nearest quantum so the
// quantisation error is conservative. quantum 0 reads exactly.
func NewVoltageSoC(name string, truth func() float64, quantum float64) *Estimator {
	if !(quantum >= 0) || math.IsInf(quantum, 0) { // also rejects NaN
		quantum = 0
	}
	return &Estimator{name: name, truth: truth, quantum: quantum}
}

// Name returns the estimator's channel name (used in detections and
// obs metric labels).
func (e *Estimator) Name() string { return e.name }

// SetCorruptor installs the fault-injection channel. nil restores a
// healthy gauge.
func (e *Estimator) SetCorruptor(c Corruptor) { e.corr = c }

// Read samples the gauge at virtual time at.
func (e *Estimator) Read(at sim.Time) Reading {
	v := e.truth()
	if e.quantum > 0 && !math.IsNaN(v) && !math.IsInf(v, 0) {
		v = math.Floor(v/e.quantum) * e.quantum
	}
	r := Reading{Value: v, OK: true}
	if e.corr != nil {
		r = e.corr.Corrupt(at, v)
	}
	e.reads++
	if !r.OK {
		e.dropouts++
	}
	return r
}

// Reads returns how many samples were taken and how many of those were
// dropouts (no reading produced).
func (e *Estimator) Reads() (total, dropouts uint64) { return e.reads, e.dropouts }
