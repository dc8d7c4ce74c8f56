package sensor_test

// The conservative-fusion property, driven by arbitrary seeded fault
// schedules from the production injector (external test package: the
// injector lives in faultinject, which imports sensor).
//
// Invariant under ANY fault schedule on the redundant estimator while
// the primary one stays honest-or-dropped-out: the fused estimate never
// exceeds true joules (plus float slack) — under-reporting is allowed
// (it costs budget pages), over-reporting never happens. And once the
// faults clear, the estimate recovers to exact truth within a couple of
// samples (the hysteresis delays re-TRUST, not re-USE: a suspect's
// value still participates in the min-fusion, so accuracy returns
// immediately while trust returns on the trustTicks schedule).

import (
	"testing"

	"viyojit/internal/faultinject"
	"viyojit/internal/sensor"
	"viyojit/internal/sim"
)

const fuzzTick = 100 * sim.Microsecond

// runFusionProperty drives a two-estimator fused sensor for steps
// samples: estimator 0 suffers only dropouts (redundancy loss),
// estimator 1 the full fault menu with per-sample probabilities from
// probs (stuck, drift, spike, dropout, lie). Truth declines 20 W — as
// a discharging pack does — and MaxDischargeWatts is set above that,
// so the conservative bound must hold at every sample including blind
// ones.
func runFusionProperty(t *testing.T, seed uint64, probs [5]float64, steps int) {
	t.Helper()
	truth := 100.0
	cap := 400.0
	est0 := sensor.NewCoulombCounter("coulomb", func() float64 { return truth })
	est1 := sensor.NewVoltageSoC("voltage", func() float64 { return truth }, 0)
	drop := faultinject.NewSensorInjector(faultinject.SensorConfig{
		Seed:        seed ^ 0xD0,
		DropoutProb: probs[3] / 2,
	})
	full := faultinject.NewSensorInjector(faultinject.SensorConfig{
		Seed:        seed,
		StuckProb:   probs[0],
		DriftProb:   probs[1],
		SpikeProb:   probs[2],
		DropoutProb: probs[3],
		LieProb:     probs[4],
	})
	est0.SetCorruptor(drop)
	est1.SetCorruptor(full)
	f, err := sensor.New(sensor.Config{
		StaleAfter:        3 * fuzzTick,
		MaxDischargeWatts: 50,
	}, func() float64 { return cap }, est0, est1)
	if err != nil {
		t.Fatal(err)
	}

	now := sim.Time(0)
	sample := func() float64 {
		now = now.Add(fuzzTick)
		// 20 W discharge per 100 µs sample.
		truth -= 20 * sim.Duration(fuzzTick).Seconds()
		if truth < 1 {
			truth = 1
		}
		return f.Sample(now)
	}

	for i := 0; i < steps; i++ {
		got := sample()
		if got > truth*(1+1e-9)+1e-9 {
			t.Fatalf("seed %#x step %d: fused %v over-reports truth %v\nepisodes: %v\nstats: %+v",
				seed, i, got, truth, full.Episodes(), f.Stats())
		}
	}

	// Faults clear: accuracy must return within two samples even though
	// trust (suspect flags) follows the slower trustTicks schedule.
	drop.Disable()
	full.Disable()
	sample()
	if got := sample(); got != truth {
		t.Fatalf("seed %#x: fused %v after faults cleared, want exact truth %v (stats %+v)",
			seed, got, truth, f.Stats())
	}
}

func TestSensorFusionProperty(t *testing.T) {
	for seed := uint64(1); seed <= 25; seed++ {
		probs := [5]float64{0.02, 0.02, 0.03, 0.05, 0.04}
		if seed%3 == 0 {
			probs = [5]float64{0.10, 0.05, 0.05, 0.15, 0.10} // violent schedule
		}
		runFusionProperty(t, seed, probs, 400)
	}
}

func FuzzSensorFusion(f *testing.F) {
	f.Add(uint64(1), byte(5), byte(5), byte(8), byte(13), byte(10), uint16(200))
	f.Add(uint64(0xBAD5EED), byte(26), byte(13), byte(13), byte(38), byte(26), uint16(300))
	f.Add(uint64(42), byte(0), byte(0), byte(0), byte(255), byte(255), uint16(150))
	f.Fuzz(func(t *testing.T, seed uint64, pStuck, pDrift, pSpike, pDrop, pLie byte, steps uint16) {
		n := int(steps)%500 + 10
		probs := [5]float64{
			float64(pStuck) / 255 * 0.2,
			float64(pDrift) / 255 * 0.2,
			float64(pSpike) / 255 * 0.2,
			float64(pDrop) / 255 * 0.2,
			float64(pLie) / 255 * 0.2,
		}
		runFusionProperty(t, seed, probs, n)
	})
}
