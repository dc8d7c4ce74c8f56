// Package battery models the server-integrated Li-ion battery that makes
// DRAM non-volatile, including the real-world deratings §2.2 of the paper
// enumerates: depth-of-discharge limits for lifetime, ageing, and ambient
// derating. Its effective energy is what the dirty budget — the number
// of pages that may be dirty in NV-DRAM at once — is derived from
// (health.BudgetPages), and it supports runtime capacity changes (battery
// cell failures, §8) so the budget can be retuned without stopping the
// server.
package battery

import (
	"errors"
	"fmt"
	"math"

	"viyojit/internal/power"
)

// ErrInvalid is the sentinel every battery input-validation error
// wraps; test with errors.Is. Capacity mutations arrive from runtime
// control paths (operator tooling, telemetry-driven retuning), so a
// NaN or Inf slipping through here would poison every budget derived
// downstream — ordered comparisons alone wave NaN through, which is
// why each guard rejects non-finite values explicitly.
var ErrInvalid = errors.New("battery: invalid input")

// finitePositive reports whether v is a usable capacity-like value:
// finite and strictly positive. NaN fails (every comparison with NaN
// is false, so `v > 0` alone would not reject it via the complement
// check `v <= 0`).
func finitePositive(v float64) bool {
	return !math.IsNaN(v) && !math.IsInf(v, 0) && v > 0
}

// Config describes a provisioned battery.
type Config struct {
	// CapacityJoules is the nameplate capacity.
	CapacityJoules float64
	// DepthOfDischarge is the usable fraction per discharge cycle.
	// Datacenter batteries are typically not discharged below 50 % so
	// they last 3–4 years (paper §2.2); 0 selects 0.5.
	DepthOfDischarge float64
	// Derating is a further multiplicative usable fraction covering
	// ageing, temperature, and humidity variation. 0 selects 1.0 (new
	// battery, nominal conditions).
	Derating float64
}

func (c Config) withDefaults() Config {
	if c.DepthOfDischarge == 0 {
		c.DepthOfDischarge = 0.5
	}
	if c.Derating == 0 {
		c.Derating = 1.0
	}
	return c
}

func (c Config) validate() error {
	if !finitePositive(c.CapacityJoules) {
		return fmt.Errorf("%w: capacity %v J must be positive and finite", ErrInvalid, c.CapacityJoules)
	}
	if !finitePositive(c.DepthOfDischarge) || c.DepthOfDischarge > 1 {
		return fmt.Errorf("%w: depth of discharge %v outside (0,1]", ErrInvalid, c.DepthOfDischarge)
	}
	if !finitePositive(c.Derating) || c.Derating > 1 {
		return fmt.Errorf("%w: derating %v outside (0,1]", ErrInvalid, c.Derating)
	}
	return nil
}

// Battery is a provisioned battery whose effective capacity can change at
// runtime. It is not safe for concurrent use.
type Battery struct {
	cfg       Config
	nameplate float64 // current nameplate capacity (declines with ageing)
	onChange  []func(*Battery)
	onShrink  []func(*Battery, float64)
	shrinkTo  float64 // effective joules a pending shrink leaves; 0 = none pending
}

// New creates a battery from cfg.
func New(cfg Config) (*Battery, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	return &Battery{cfg: cfg, nameplate: cfg.CapacityJoules}, nil
}

// MustNew is New that panics on error, for tests and examples with
// literal configurations.
func MustNew(cfg Config) *Battery {
	b, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return b
}

// Config returns the battery as it stands now — aged nameplate, depth of
// discharge, current derating — so a reboot can come up on the pack that
// survived instead of the one that was installed.
func (b *Battery) Config() Config {
	cfg := b.cfg
	cfg.CapacityJoules = b.nameplate
	return cfg
}

// NameplateJoules returns the current (possibly aged) nameplate capacity.
func (b *Battery) NameplateJoules() float64 { return b.nameplate }

// EffectiveJoules returns the energy actually available for a backup
// flush after depth-of-discharge and derating.
func (b *Battery) EffectiveJoules() float64 {
	return b.nameplate * b.cfg.DepthOfDischarge * b.cfg.Derating
}

// ProjectedJoules returns the effective energy the battery holds once
// any pending change applies: while shrink observers run, the projected
// capacity they were handed; otherwise EffectiveJoules. Anything that
// derives a budget inside a safe-shrink drain reads this, so it cannot
// budget for charge that is about to go.
func (b *Battery) ProjectedJoules() float64 {
	if b.shrinkTo > 0 {
		return b.shrinkTo
	}
	return b.EffectiveJoules()
}

// OnChange registers a callback invoked after any capacity change. The
// Viyojit manager uses it to retune the dirty budget at runtime (§8).
func (b *Battery) OnChange(fn func(*Battery)) {
	b.onChange = append(b.onChange, fn)
}

// OnShrink registers a callback invoked immediately BEFORE a capacity
// change that would reduce the effective joules, with the projected new
// effective capacity. It is the safe-shrink hook: the Viyojit manager
// drains the dirty set down to what the projected capacity covers while
// the battery still holds its current charge, so "dirty ≤ pages the
// battery can flush" is never violated, even transiently, by a capacity
// step-down. Growth-only changes skip these observers.
func (b *Battery) OnShrink(fn func(b *Battery, projectedEffectiveJoules float64)) {
	b.onShrink = append(b.onShrink, fn)
}

func (b *Battery) notify() {
	for _, fn := range b.onChange {
		fn(b)
	}
}

// prepare runs the shrink observers if the pending change reduces the
// effective capacity.
func (b *Battery) prepare(projected float64) {
	if projected >= b.EffectiveJoules() {
		return
	}
	outer := b.shrinkTo
	b.shrinkTo = projected
	for _, fn := range b.onShrink {
		fn(b, projected)
	}
	b.shrinkTo = outer
}

// SetCapacityJoules replaces the nameplate capacity — modelling cell
// failures, replacement, or capacity reallocation between co-located
// tenants — and notifies observers. Shrink observers run before the
// change applies (see OnShrink). Non-positive, NaN, and infinite
// capacities are rejected with an error wrapping ErrInvalid.
func (b *Battery) SetCapacityJoules(j float64) error {
	if !finitePositive(j) {
		return fmt.Errorf("%w: capacity %v J must be positive and finite", ErrInvalid, j)
	}
	b.prepare(j * b.cfg.DepthOfDischarge * b.cfg.Derating)
	b.nameplate = j
	b.notify()
	return nil
}

// SetDerating replaces the runtime derating factor — modelling ambient
// temperature excursions or measured voltage sag that reduce (or, back
// in range, restore) the usable fraction of the pack — and notifies
// observers. Shrink observers run before a reducing change applies.
// Unlike Age this is reversible: raising the derating back restores the
// effective capacity. Values outside (0,1], NaN, and Inf are rejected
// with an error wrapping ErrInvalid (NaN would pass a bare range check
// — both ordered comparisons are false — then scale every future
// EffectiveJoules to NaN).
func (b *Battery) SetDerating(d float64) error {
	if !finitePositive(d) || d > 1 {
		return fmt.Errorf("%w: derating %v outside (0,1]", ErrInvalid, d)
	}
	b.prepare(b.nameplate * b.cfg.DepthOfDischarge * d)
	b.cfg.Derating = d
	b.notify()
	return nil
}

// Derating returns the current runtime derating factor.
func (b *Battery) Derating() float64 { return b.cfg.Derating }

// Age reduces the nameplate capacity by the given fraction (0 ≤ f < 1)
// and notifies observers. Shrink observers run before the change applies.
func (b *Battery) Age(fraction float64) error {
	if math.IsNaN(fraction) || fraction < 0 || fraction >= 1 {
		return fmt.Errorf("%w: ageing fraction %v outside [0,1)", ErrInvalid, fraction)
	}
	b.prepare(b.nameplate * (1 - fraction) * b.cfg.DepthOfDischarge * b.cfg.Derating)
	b.nameplate *= 1 - fraction
	b.notify()
	return nil
}

// JoulesForPages returns the energy to stream nPages to the SSD, with no
// flush-overhead reserve and the transfer truncated to whole nanoseconds.
// The budget's inverse is health.JoulesForBudget; this one remains
// because the repo benchmark provisions every workload with it, which is
// why its tight budget starts at 900 of the 901 pages asked for.
func JoulesForPages(m power.Model, nPages int, writeBandwidth, dramBytes int64, pageSize int) float64 {
	return m.FlushEnergyJoules(int64(nPages)*int64(pageSize), writeBandwidth, dramBytes)
}

// ProvisionFor returns a battery Config whose *effective* capacity (after
// depth-of-discharge dod and derating) covers flushing flushBytes. It is
// the sizing helper behind cmd/battery-calc.
func ProvisionFor(m power.Model, flushBytes, writeBandwidth, dramBytes int64, dod, derating float64) Config {
	return Provision(m.FlushEnergyJoules(flushBytes, writeBandwidth, dramBytes), dod, derating)
}

// Provision returns a battery Config whose effective capacity is
// effective joules; a zero dod or derating selects its default.
func Provision(effective, dod, derating float64) Config {
	c := Config{DepthOfDischarge: dod, Derating: derating}.withDefaults()
	c.CapacityJoules = effective / (c.DepthOfDischarge * c.Derating)
	return c
}
