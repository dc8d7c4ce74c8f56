package sensor

import (
	"errors"
	"fmt"
	"math"

	"viyojit/internal/obs"
	"viyojit/internal/sim"
)

// ErrConfig is the sentinel every fusion configuration-validation
// error wraps; test with errors.Is.
var ErrConfig = errors.New("sensor: invalid config")

// DetectReason classifies why the fusion layer distrusted a sample.
type DetectReason string

const (
	// DetectBounds: reading outside physical bounds (NaN, Inf,
	// negative, or above nameplate capacity).
	DetectBounds DetectReason = "bounds"
	// DetectRate: reading rose beyond numeric noise — catches
	// lying-high onsets, spikes, and upward drift.
	DetectRate DetectReason = "rate"
	// DetectStale: no successful reading for longer than StaleAfter —
	// catches dropouts and hung gauges.
	DetectStale DetectReason = "stale"
	// DetectDisagree: estimators diverged by more than
	// disagreeFraction; the higher one is suspected.
	DetectDisagree DetectReason = "disagree"
)

// Detection is one distrust event, recorded for MTTD auditing.
type Detection struct {
	At        sim.Time
	Estimator string
	Reason    DetectReason
}

// The fusion policy's fixed thresholds.
const (
	// disagreeFraction is the relative divergence between estimators
	// above which the higher one is suspected.
	disagreeFraction = 0.10
	// trustTicks is how many consecutive agreeing samples a suspect
	// estimator must produce before it is re-trusted, and how many
	// consecutive rate-gated rises (with cross-estimator agreement) are
	// read as a genuine capacity restore.
	trustTicks = 3
	// soloFraction is the safety margin applied when redundancy is lost:
	// with exactly one usable estimator the fused estimate is its value
	// times this fraction, so even a gauge lying 50% high yields
	// fused ≤ 0.975 × true.
	soloFraction = 0.65
)

// Config tunes the fusion policy. The zero value selects safe
// defaults for every field.
//
// The rate gate rejects any rise beyond numeric noise: a battery-backed
// DRAM battery does not charge mid-discharge. Genuine capacity restores
// are re-trusted via the hysteresis path (all live estimators
// persistently agreeing on the higher level). Falls are always accepted
// instantly — the safe direction.
type Config struct {
	// MaxDischargeWatts is the worst-case decline assumed while the
	// sensor is blind (zero usable estimators): the fused estimate
	// decays from its last value at this rate until a gauge returns.
	// 0 selects 50 W, several times a typical flush draw.
	MaxDischargeWatts float64
	// StaleAfter is how long an estimator may go without a successful
	// reading before the watchdog declares it dropped out. While
	// within the window its last accepted value is held. 0 selects
	// 5 ms (2.5 monitor intervals at the default 2 ms).
	StaleAfter sim.Duration
	// MaxDetections bounds the detection ring kept for MTTD audits.
	// 0 selects 4096; past the cap detections are counted, not stored.
	MaxDetections int
	// Obs is the registry fusion metrics are published on; nil
	// publishes nothing.
	Obs *obs.Registry
}

func (c Config) withDefaults() Config {
	if c.MaxDischargeWatts == 0 {
		c.MaxDischargeWatts = 50
	}
	if c.StaleAfter == 0 {
		c.StaleAfter = 5 * sim.Millisecond
	}
	if c.MaxDetections == 0 {
		c.MaxDetections = 4096
	}
	return c
}

func (c Config) validate() error {
	bad := func(field string, v float64) error {
		return fmt.Errorf("%w: %s %v must be finite and non-negative", ErrConfig, field, v)
	}
	if math.IsNaN(c.MaxDischargeWatts) || math.IsInf(c.MaxDischargeWatts, 0) || c.MaxDischargeWatts < 0 {
		return bad("MaxDischargeWatts", c.MaxDischargeWatts)
	}
	if c.StaleAfter < 0 {
		return fmt.Errorf("%w: StaleAfter %v must be non-negative", ErrConfig, c.StaleAfter)
	}
	return nil
}

// Stats are the fusion layer's counters.
type Stats struct {
	// Samples counts Sample calls.
	Samples uint64
	// BoundsRejects / RateRejects count per-estimator gate trips.
	BoundsRejects uint64
	RateRejects   uint64
	// StaleDropouts counts estimator-samples lost to the staleness
	// watchdog (past the StaleAfter grace window).
	StaleDropouts uint64
	// Disagreements counts samples where cross-estimator divergence
	// exceeded disagreeFraction.
	Disagreements uint64
	// Retrusts counts suspects restored to trust after trustTicks
	// agreeing samples, plus hysteresis-accepted capacity rises.
	Retrusts uint64
	// SoloSamples / BlindSamples count samples taken with exactly one
	// / zero usable estimators.
	SoloSamples  uint64
	BlindSamples uint64
	// Detections counts every distrust event (also ring-recorded up
	// to MaxDetections).
	Detections uint64
}

// estState is the fusion layer's per-estimator trust state.
type estState struct {
	lastOKAt    sim.Time
	hasOK       bool
	accepted    float64
	acceptedAt  sim.Time
	hasAccepted bool
	suspect     bool
	agreeStreak int
	riseStreak  int
	lastRaw     Reading
	rateHeld    bool // this sample's raw was rate-rejected and held
}

// Fused is the conservative fusion of redundant energy estimators.
// It is not goroutine-safe: like the rest of the sim it runs on the
// single event-dispatch goroutine.
type Fused struct {
	cfg  Config
	cap  func() float64 // physical upper bound (nameplate · DoD · derating ceiling); nil = unbounded
	ests []*Estimator
	st   []estState
	// usable and vals are Sample's per-call lists (which estimators speak
	// this sample, and with what value), kept here so a sample allocates
	// nothing; each holds at most one entry per estimator.
	usable []int
	vals   []float64

	lastFused float64
	lastAt    sim.Time
	haveFused bool

	detections []Detection
	stats      Stats
	ins        fusedInstruments
}

// New builds a fused sensor over the given estimators. capBound, when
// non-nil, is the physical upper bound readings are gated against
// (typically the battery's nameplate-derived ceiling); estimators must
// be non-empty.
func New(cfg Config, capBound func() float64, ests ...*Estimator) (*Fused, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if len(ests) == 0 {
		return nil, fmt.Errorf("%w: need at least one estimator", ErrConfig)
	}
	f := &Fused{cfg: cfg, cap: capBound, ests: ests, st: make([]estState, len(ests)),
		usable: make([]int, 0, len(ests)), vals: make([]float64, 0, len(ests))}
	f.ins.attach(cfg.Obs, ests)
	return f, nil
}

// Estimator returns the i'th estimator (for installing corruptors).
func (f *Fused) Estimator(i int) *Estimator { return f.ests[i] }

// EffectiveJoules returns the last fused estimate without taking a new
// sample. Callers that own the clock should prefer Sample; this is the
// drop-in for code paths that previously read battery.EffectiveJoules.
// Returns 0 before the first Sample.
func (f *Fused) EffectiveJoules() float64 { return f.lastFused }

// LastSampleAt returns the virtual time of the last Sample.
func (f *Fused) LastSampleAt() sim.Time { return f.lastAt }

// Stats returns a copy of the fusion counters.
func (f *Fused) Stats() Stats { return f.stats }

// Detections returns the recorded distrust events, oldest first.
func (f *Fused) Detections() []Detection {
	out := make([]Detection, len(f.detections))
	copy(out, f.detections)
	return out
}

func (f *Fused) detect(at sim.Time, est string, reason DetectReason) {
	f.stats.Detections++
	if len(f.detections) < f.cfg.MaxDetections {
		f.detections = append(f.detections, Detection{At: at, Estimator: est, Reason: reason})
	}
	f.ins.detect(reason)
}

// riseEps is the numeric slack the rate gate tolerates, so exact
// re-reads of the same value never trip it.
func riseEps(v float64) float64 { return 1e-9 + 1e-9*math.Abs(v) }

// Sample reads every estimator at virtual time at, applies the gates,
// fuses, and returns the new conservative estimate.
func (f *Fused) Sample(at sim.Time) float64 {
	f.stats.Samples++

	usable, vals := f.usable[:0], f.vals[:0]
	live := 0 // estimators that produced an OK raw this sample

	for i, e := range f.ests {
		s := &f.st[i]
		s.rateHeld = false
		r := e.Read(at)
		s.lastRaw = r
		if r.OK {
			s.lastOKAt = at
			s.hasOK = true
			live++
		}

		// holdAccepted: within the staleness grace window the last
		// accepted value still speaks for this estimator.
		holdAccepted := func() bool {
			return s.hasAccepted && at.Sub(s.acceptedAt) <= f.cfg.StaleAfter
		}
		// held is the accepted value decayed at the worst-case
		// discharge rate for the time it has been stale: a held value
		// is old information, and the pack may have discharged the
		// whole while — extrapolating down is the only direction that
		// keeps "fused never over-reports" when EVERY usable input is
		// a held one.
		held := func() float64 {
			v := s.accepted - f.cfg.MaxDischargeWatts*at.Sub(s.acceptedAt).Seconds()
			if v < 0 {
				v = 0
			}
			return v
		}

		if !r.OK {
			if !s.hasOK || at.Sub(s.lastOKAt) > f.cfg.StaleAfter {
				f.stats.StaleDropouts++
				f.detect(at, e.Name(), DetectStale)
				s.riseStreak = 0
				continue
			}
			if holdAccepted() {
				usable = append(usable, i)
				vals = append(vals, held())
			}
			continue
		}

		v := r.Value
		if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 ||
			(f.cap != nil && v > f.cap()*(1+1e-9)+riseEps(f.cap())) {
			f.stats.BoundsRejects++
			f.detect(at, e.Name(), DetectBounds)
			s.suspect = true
			s.agreeStreak = 0
			s.riseStreak = 0
			if holdAccepted() {
				usable = append(usable, i)
				vals = append(vals, held())
			}
			continue
		}

		if s.hasAccepted {
			if v > s.accepted+riseEps(s.accepted) {
				f.stats.RateRejects++
				f.detect(at, e.Name(), DetectRate)
				s.riseStreak++
				s.rateHeld = true
				// Hold the last accepted (lower, safe) value — but only
				// within the staleness window: a gauge pinned high
				// forever is dead, and past StaleAfter it stops speaking
				// so fusion degrades to the solo margin instead of
				// dragging an ever-decaying ghost value around.
				if holdAccepted() {
					usable = append(usable, i)
					vals = append(vals, held())
				}
				continue
			}
		}
		s.riseStreak = 0
		s.accepted = v
		s.acceptedAt = at
		s.hasAccepted = true
		usable = append(usable, i)
		vals = append(vals, v)
	}

	f.maybeAcceptRise(at, usable, vals, live)
	fused := f.fuse(at, usable, vals)

	if f.cap != nil {
		if c := f.cap(); fused > c {
			fused = c
		}
	}
	if fused < 0 || math.IsNaN(fused) {
		fused = 0
	}
	f.lastFused = fused
	f.lastAt = at
	f.haveFused = true
	f.ins.sample(f, usable)
	return fused
}

// maybeAcceptRise implements hysteretic re-trust of a genuine capacity
// restore: the rate gate pins every estimator to its last accepted
// value forever, so a real upward step (derating
// lifted, capacity re-provisioned) needs an escape hatch. A rise is
// believed only when EVERY live estimator has been rate-gated on a
// rise for trustTicks consecutive samples AND their raw readings
// mutually agree within disagreeFraction (redundant confirmation). A
// single surviving estimator has no witness, so it must persist twice
// as long — and still lands under the soloFraction margin.
func (f *Fused) maybeAcceptRise(at sim.Time, usable []int, vals []float64, live int) {
	if live == 0 {
		return
	}
	held := 0
	need := trustTicks
	if live == 1 {
		need = 2 * trustTicks
	}
	lo, hi := math.Inf(1), math.Inf(-1)
	for i := range f.ests {
		s := &f.st[i]
		if !s.lastRaw.OK {
			continue
		}
		if !s.rateHeld || s.riseStreak < need {
			return
		}
		held++
		if s.lastRaw.Value < lo {
			lo = s.lastRaw.Value
		}
		if s.lastRaw.Value > hi {
			hi = s.lastRaw.Value
		}
	}
	if held == 0 {
		return
	}
	if held > 1 && hi > 0 && (hi-lo)/hi > disagreeFraction {
		return
	}
	// Believe the rise: promote every live estimator's raw to accepted
	// and refresh the fused inputs.
	for i := range f.ests {
		s := &f.st[i]
		if !s.lastRaw.OK {
			continue
		}
		s.accepted = s.lastRaw.Value
		s.acceptedAt = at
		s.riseStreak = 0
		s.rateHeld = false
		for j, ui := range usable {
			if ui == i {
				vals[j] = s.accepted
			}
		}
	}
	f.stats.Retrusts++
}

func (f *Fused) fuse(at sim.Time, usable []int, vals []float64) float64 {
	switch len(usable) {
	case 0:
		// Blind: decay the last estimate at the worst-case discharge
		// rate. Conservative as long as true capacity is not collapsing
		// faster than MaxDischargeWatts while every gauge is dark.
		f.stats.BlindSamples++
		if !f.haveFused {
			return 0
		}
		dec := f.lastFused - f.cfg.MaxDischargeWatts*at.Sub(f.lastAt).Seconds()
		if dec < 0 {
			dec = 0
		}
		return dec
	case 1:
		f.stats.SoloSamples++
		return vals[0] * soloFraction
	}

	minV, maxV, maxIdx := vals[0], vals[0], usable[0]
	for j := 1; j < len(vals); j++ {
		if vals[j] < minV {
			minV = vals[j]
		}
		if vals[j] > maxV {
			maxV = vals[j]
			maxIdx = usable[j]
		}
	}
	if maxV > 0 && (maxV-minV)/maxV > disagreeFraction {
		f.stats.Disagreements++
		s := &f.st[maxIdx]
		if !s.suspect {
			s.suspect = true
		}
		s.agreeStreak = 0
		f.detect(at, f.ests[maxIdx].Name(), DetectDisagree)
	} else {
		for _, i := range usable {
			s := &f.st[i]
			if s.suspect {
				s.agreeStreak++
				if s.agreeStreak >= trustTicks {
					s.suspect = false
					s.agreeStreak = 0
					f.stats.Retrusts++
				}
			}
		}
	}
	return minV
}

// Suspect reports whether estimator i is currently distrusted.
func (f *Fused) Suspect(i int) bool { return f.st[i].suspect }

// fusedInstruments mirrors fusion state onto an obs.Registry. All
// methods are nil-safe: a Fused built without Obs skips publication.
type fusedInstruments struct {
	fusedMilli *obs.Gauge
	usableEst  *obs.Gauge
	samples    *obs.Counter
	solo       *obs.Counter
	blind      *obs.Counter
	retrusts   *obs.Counter
	byReason   map[DetectReason]*obs.Counter
	estMilli   []*obs.Gauge
	estSuspect []*obs.Gauge
}

func (ins *fusedInstruments) attach(reg *obs.Registry, ests []*Estimator) {
	if reg == nil {
		return
	}
	ins.fusedMilli = reg.Gauge("sensor_fused_millijoules")
	ins.usableEst = reg.Gauge("sensor_usable_estimators")
	ins.samples = reg.Counter("sensor_samples_total")
	ins.solo = reg.Counter("sensor_solo_samples_total")
	ins.blind = reg.Counter("sensor_blind_samples_total")
	ins.retrusts = reg.Counter("sensor_retrusts_total")
	ins.byReason = map[DetectReason]*obs.Counter{
		DetectBounds:   reg.Counter("sensor_rejects_bounds_total"),
		DetectRate:     reg.Counter("sensor_rejects_rate_total"),
		DetectStale:    reg.Counter("sensor_rejects_stale_total"),
		DetectDisagree: reg.Counter("sensor_rejects_disagree_total"),
	}
	for _, e := range ests {
		ins.estMilli = append(ins.estMilli, reg.Gauge("sensor_est_"+e.Name()+"_millijoules"))
		ins.estSuspect = append(ins.estSuspect, reg.Gauge("sensor_est_"+e.Name()+"_suspect"))
	}
}

func (ins *fusedInstruments) detect(reason DetectReason) {
	if ins.byReason == nil {
		return
	}
	if c, ok := ins.byReason[reason]; ok {
		c.Inc()
	}
}

func (ins *fusedInstruments) sample(f *Fused, usable []int) {
	if ins.fusedMilli == nil {
		return
	}
	ins.fusedMilli.Set(int64(f.lastFused * 1000))
	ins.usableEst.Set(int64(len(usable)))
	ins.samples.Inc()
	switch len(usable) {
	case 0:
		ins.blind.Inc()
	case 1:
		ins.solo.Inc()
	}
	ins.retrusts.Add(f.stats.Retrusts - ins.retrusts.Value())
	for i := range f.ests {
		s := &f.st[i]
		if s.hasAccepted {
			ins.estMilli[i].Set(int64(s.accepted * 1000))
		}
		if s.suspect {
			ins.estSuspect[i].Set(1)
		} else {
			ins.estSuspect[i].Set(0)
		}
	}
}
