package sensor

import (
	"errors"
	"math"
	"testing"

	"viyojit/internal/obs"
	"viyojit/internal/sim"
)

const tick = 100 * sim.Microsecond

// corruptFn adapts a closure to Corruptor for hand-built fault shapes.
type corruptFn func(at sim.Time, truth float64) Reading

func (f corruptFn) Corrupt(at sim.Time, truth float64) Reading { return f(at, truth) }

// testRig is a fused sensor over a mutable truth value with two
// estimators, sampled on a hand-advanced clock.
type testRig struct {
	truth float64
	cap   float64
	f     *Fused
	now   sim.Time
}

func newTestRig(t *testing.T, cfg Config) *testRig {
	t.Helper()
	r := &testRig{truth: 100, cap: 400}
	var err error
	r.f, err = New(cfg, func() float64 { return r.cap },
		NewCoulombCounter("coulomb", func() float64 { return r.truth }),
		NewVoltageSoC("voltage", func() float64 { return r.truth }, 0))
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func (r *testRig) sample() float64 {
	r.now = r.now.Add(tick)
	return r.f.Sample(r.now)
}

func TestHealthyFusionIsExactlyTruth(t *testing.T) {
	r := newTestRig(t, Config{})
	for i := 0; i < 50; i++ {
		r.truth *= 0.98 // discharging
		if got := r.sample(); got != r.truth {
			t.Fatalf("sample %d: fused %v != truth %v with healthy gauges", i, got, r.truth)
		}
	}
	if st := r.f.Stats(); st.Detections != 0 || st.SoloSamples != 0 || st.BlindSamples != 0 {
		t.Fatalf("healthy run produced distrust: %+v", st)
	}
}

func TestVoltageQuantumRoundsDown(t *testing.T) {
	truth := 103.7
	e := NewVoltageSoC("v", func() float64 { return truth }, 5)
	if got := e.Read(0).Value; got != 100 {
		t.Fatalf("quantised reading %v, want 100", got)
	}
	// Quantisation under-reports — the conservative direction — so the
	// min-fusion with an exact coulomb counter picks it.
	f, err := New(Config{}, nil,
		NewCoulombCounter("c", func() float64 { return truth }), e)
	if err != nil {
		t.Fatal(err)
	}
	if got := f.Sample(sim.Time(tick)); got != 100 {
		t.Fatalf("fused %v, want quantised lower bound 100", got)
	}
}

func TestBoundsGateRejectsGarbage(t *testing.T) {
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), -3, 1e9} {
		r := newTestRig(t, Config{})
		r.sample() // healthy baseline
		val := bad
		r.f.Estimator(1).SetCorruptor(corruptFn(func(sim.Time, float64) Reading {
			return Reading{Value: val, OK: true}
		}))
		got := r.sample()
		// The rejected gauge's held value decays conservatively, so the
		// fused estimate may sit a hair under truth — never over.
		if got > r.truth || got < r.truth-0.1 {
			t.Fatalf("garbage %v leaked: fused %v, want ≈ truth %v from below", bad, got, r.truth)
		}
		if r.f.Stats().BoundsRejects == 0 {
			t.Fatalf("garbage %v not bounds-rejected", bad)
		}
		det := r.f.Detections()
		if len(det) == 0 || det[len(det)-1].Reason != DetectBounds || det[len(det)-1].Estimator != "voltage" {
			t.Fatalf("garbage %v: detections %v, want bounds on voltage", bad, det)
		}
	}
}

func TestRateGateCatchesLyingHighOnset(t *testing.T) {
	r := newTestRig(t, Config{})
	r.sample() // baseline accepted
	r.f.Estimator(1).SetCorruptor(corruptFn(func(_ sim.Time, truth float64) Reading {
		return Reading{Value: truth * 1.5, OK: true} // lying 50% high
	}))
	for i := 0; i < 10; i++ {
		// The liar's held value decays conservatively while rate-gated,
		// so fused tracks truth from a hair below — never above.
		if got := r.sample(); got > r.truth || got < r.truth-0.1 {
			t.Fatalf("sample %d under a lying gauge: fused %v, want ≈ truth %v from below", i, got, r.truth)
		}
	}
	if r.f.Stats().RateRejects == 0 {
		t.Fatal("lying-high onset not rate-rejected")
	}
	// MTTD: the first detection lands on the first sample after onset.
	if det := r.f.Detections()[0]; det.At != sim.Time(2*tick) || det.Reason != DetectRate {
		t.Fatalf("first detection %+v, want rate at t=%v", det, sim.Time(2*tick))
	}
}

func TestDisagreeSuspectsHigherWithoutBaseline(t *testing.T) {
	r := newTestRig(t, Config{})
	// Lying from the very first sample: no baseline, so the rate gate
	// has nothing to compare against — the disagreement gate must catch
	// it and the min-fusion must keep the honest value.
	r.f.Estimator(1).SetCorruptor(corruptFn(func(_ sim.Time, truth float64) Reading {
		return Reading{Value: truth * 1.4, OK: true}
	}))
	if got := r.sample(); got != r.truth {
		t.Fatalf("fused %v, want honest truth %v", got, r.truth)
	}
	if r.f.Stats().Disagreements == 0 {
		t.Fatal("40% divergence not flagged")
	}
	if !r.f.Suspect(1) {
		t.Fatal("the higher estimator was not suspected")
	}
	if r.f.Suspect(0) {
		t.Fatal("the honest lower estimator was suspected")
	}
}

func TestSuspectRetrustHysteresis(t *testing.T) {
	r := newTestRig(t, Config{})
	var lying bool
	r.f.Estimator(1).SetCorruptor(corruptFn(func(_ sim.Time, truth float64) Reading {
		if lying {
			return Reading{Value: truth * 1.4, OK: true}
		}
		return Reading{Value: truth, OK: true}
	}))
	lying = true
	r.sample()
	if !r.f.Suspect(1) {
		t.Fatal("liar not suspected")
	}
	lying = false
	// One or two agreeing samples are not enough.
	r.sample()
	r.sample()
	if !r.f.Suspect(1) {
		t.Fatal("re-trusted after 2 agreeing samples, want 3 (hysteresis)")
	}
	r.sample()
	if r.f.Suspect(1) {
		t.Fatal("not re-trusted after trustTicks agreeing samples")
	}
	if r.f.Stats().Retrusts == 0 {
		t.Fatal("retrust not counted")
	}
}

func TestStuckGaugeDetectedUnderDecliningTruth(t *testing.T) {
	r := newTestRig(t, Config{})
	r.sample()
	// Freeze the voltage gauge at the current truth, then discharge.
	frozen := r.truth
	r.f.Estimator(1).SetCorruptor(corruptFn(func(sim.Time, float64) Reading {
		return Reading{Value: frozen, OK: true}
	}))
	onset := r.now
	samples := 0
	for r.truth > frozen*0.80 {
		r.truth *= 0.97 // ~3% per sample
		got := r.sample()
		samples++
		if got > r.truth+1e-9 {
			t.Fatalf("fused %v over-reports declining truth %v under a stuck gauge", got, r.truth)
		}
	}
	var det *Detection
	for _, d := range r.f.Detections() {
		if d.Reason == DetectDisagree && d.Estimator == "voltage" {
			det = &d
			break
		}
	}
	if det == nil {
		t.Fatalf("stuck gauge never flagged after %d samples of divergence", samples)
	}
	// MTTD bound: divergence crosses 10% after ~4 samples of 3% decay;
	// allow one extra sampling period.
	if maxAt := onset.Add(5 * tick); det.At > maxAt {
		t.Fatalf("stuck MTTD %v past bound %v", det.At.Sub(onset), sim.Duration(5*tick))
	}
}

func TestDropoutGraceStaleAndRecovery(t *testing.T) {
	r := newTestRig(t, Config{StaleAfter: 3 * tick})
	r.sample()
	var dark bool
	r.f.Estimator(1).SetCorruptor(corruptFn(func(_ sim.Time, truth float64) Reading {
		if dark {
			return Reading{}
		}
		return Reading{Value: truth, OK: true}
	}))
	dark = true
	// Within the grace window the held value keeps redundancy: no solo.
	r.sample()
	if st := r.f.Stats(); st.SoloSamples != 0 || st.StaleDropouts != 0 {
		t.Fatalf("grace window violated: %+v", st)
	}
	// Past StaleAfter the watchdog fires and fusion degrades to solo
	// (honest gauge × soloFraction).
	for i := 0; i < 4; i++ {
		r.sample()
	}
	st := r.f.Stats()
	if st.StaleDropouts == 0 {
		t.Fatal("watchdog never declared the dark gauge stale")
	}
	if st.SoloSamples == 0 {
		t.Fatal("fusion never degraded to solo")
	}
	if got, want := r.f.EffectiveJoules(), r.truth*soloFraction; math.Abs(got-want) > 1e-9 {
		t.Fatalf("solo fused %v, want %v (soloFraction margin)", got, want)
	}
	// Gauge returns: full redundancy and the exact value come back.
	dark = false
	if got := r.sample(); got != r.truth {
		t.Fatalf("fused %v after dropout cleared, want truth %v", got, r.truth)
	}
}

func TestBlindDecayIsMonotoneAndRecovers(t *testing.T) {
	r := newTestRig(t, Config{StaleAfter: tick, MaxDischargeWatts: 100})
	r.sample()
	var dark bool
	for i := 0; i < 2; i++ {
		r.f.Estimator(i).SetCorruptor(corruptFn(func(_ sim.Time, truth float64) Reading {
			if dark {
				return Reading{}
			}
			return Reading{Value: truth, OK: true}
		}))
	}
	dark = true
	prev := r.f.EffectiveJoules()
	sawBlind := false
	for i := 0; i < 10; i++ {
		got := r.sample()
		if got > prev {
			t.Fatalf("blind estimate rose %v -> %v", prev, got)
		}
		prev = got
		if r.f.Stats().BlindSamples > 0 {
			sawBlind = true
		}
	}
	if !sawBlind {
		t.Fatal("never went blind with both gauges dark")
	}
	if prev >= r.truth {
		t.Fatal("blind decay did not bite")
	}
	dark = false
	if got := r.sample(); got != r.truth {
		t.Fatalf("fused %v after gauges returned, want truth %v", got, r.truth)
	}
}

func TestSoloLiarBoundedBySoloFraction(t *testing.T) {
	truth := 100.0
	liar := NewCoulombCounter("liar", func() float64 { return truth })
	// From the first sample, so the lie IS the baseline: the worst case.
	liar.SetCorruptor(corruptFn(func(_ sim.Time, tr float64) Reading {
		return Reading{Value: tr * 1.5, OK: true}
	}))
	f, err := New(Config{}, nil, liar)
	if err != nil {
		t.Fatal(err)
	}
	got := f.Sample(sim.Time(tick))
	bound := truth * 1.5 * soloFraction // (1+lie) × soloFraction = 0.975 × truth
	if math.Abs(got-bound) > 1e-9 {
		t.Fatalf("solo liar fused %v, want %v", got, bound)
	}
	if got > truth {
		t.Fatalf("solo 50%%-liar over-reports truth: %v > %v", got, truth)
	}
}

func TestCapacityRestoreRetrustedAfterPersistentAgreement(t *testing.T) {
	r := newTestRig(t, Config{})
	r.sample()
	r.truth = 150 // genuine capacity restore (derating lifted)
	var acceptedAt sim.Time
	for i := 0; i < 10; i++ {
		got := r.sample()
		if got > r.truth+1e-9 {
			t.Fatalf("fused %v above truth %v", got, r.truth)
		}
		if got == r.truth && acceptedAt == 0 {
			acceptedAt = r.now
		}
	}
	if acceptedAt == 0 {
		t.Fatal("genuine capacity restore never re-trusted")
	}
	if r.f.Stats().Retrusts == 0 {
		t.Fatal("rise retrust not counted")
	}
	// Before acceptance the rise must have been held down for at least
	// trustTicks samples of rate-gating.
	if r.f.Stats().RateRejects < 2*trustTicks { // two estimators × trustTicks
		t.Fatalf("RateRejects %d, want ≥ 6 before the rise was believed", r.f.Stats().RateRejects)
	}
}

func TestConfigValidation(t *testing.T) {
	truthFn := func() float64 { return 1 }
	est := NewCoulombCounter("c", truthFn)
	cases := []Config{
		{MaxDischargeWatts: math.NaN()},
		{MaxDischargeWatts: -1},
		{MaxDischargeWatts: math.Inf(1)},
		{StaleAfter: -sim.Millisecond},
	}
	for i, cfg := range cases {
		if _, err := New(cfg, nil, est); !errors.Is(err, ErrConfig) {
			t.Fatalf("case %d (%+v): err %v, want ErrConfig", i, cfg, err)
		}
	}
	if _, err := New(Config{}, nil); !errors.Is(err, ErrConfig) {
		t.Fatal("zero estimators accepted")
	}
}

func TestDetectionRingBounded(t *testing.T) {
	r := newTestRig(t, Config{MaxDetections: 4, StaleAfter: tick})
	r.f.Estimator(1).SetCorruptor(corruptFn(func(sim.Time, float64) Reading { return Reading{} }))
	for i := 0; i < 50; i++ {
		r.sample()
	}
	if got := len(r.f.Detections()); got > 4 {
		t.Fatalf("detection ring grew to %d past cap 4", got)
	}
	if st := r.f.Stats(); st.Detections <= 4 {
		t.Fatalf("Detections counter %d should keep counting past the ring cap", st.Detections)
	}
}

func TestObsInstrumentsPublished(t *testing.T) {
	reg := obs.NewRegistry()
	truth := 42.0
	f, err := New(Config{Obs: reg}, nil,
		NewCoulombCounter("coulomb", func() float64 { return truth }),
		NewVoltageSoC("voltage", func() float64 { return truth }, 0))
	if err != nil {
		t.Fatal(err)
	}
	f.Sample(sim.Time(tick))
	if got := reg.Gauge("sensor_fused_millijoules").Value(); got != 42000 {
		t.Fatalf("sensor_fused_millijoules = %d, want 42000", got)
	}
	if got := reg.Gauge("sensor_usable_estimators").Value(); got != 2 {
		t.Fatalf("sensor_usable_estimators = %d, want 2", got)
	}
	if got := reg.Counter("sensor_samples_total").Value(); got != 1 {
		t.Fatalf("sensor_samples_total = %d, want 1", got)
	}
}

// A sample reuses the fusion layer's own lists: the health monitor's tick
// pays nothing for reading the gauges.
func TestSampleZeroAlloc(t *testing.T) {
	r := newTestRig(t, Config{})
	r.sample()
	if allocs := testing.AllocsPerRun(200, func() { r.sample() }); allocs != 0 {
		t.Fatalf("a healthy sample allocates %.0f times, want 0", allocs)
	}
	if got := r.f.Stats().Samples; got < 201 {
		t.Fatalf("%d samples taken", got)
	}
}
