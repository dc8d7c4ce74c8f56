package health

// Tests for the monitor's fault-tolerant-telemetry intake (the Energy
// source) and for the poisoned-input hardening around BudgetPages.

import (
	"math"
	"testing"

	"viyojit/internal/battery"
	"viyojit/internal/core"
	"viyojit/internal/faultinject"
	"viyojit/internal/power"
	"viyojit/internal/sensor"
	"viyojit/internal/sim"
	"viyojit/internal/ssd"
)

// fakeEnergy is a swappable EnergySource: tests install fn after the rig
// (and its battery) exist.
type fakeEnergy struct {
	fn func(at sim.Time) float64
}

func (f *fakeEnergy) Sample(at sim.Time) float64 { return f.fn(at) }

// TestMonitorDerivesBudgetFromEnergySource: with an EnergySource
// configured the budget follows the fused estimate, not the battery
// model — and every snapshot records both so the estimate stays
// auditable against ground truth.
func TestMonitorDerivesBudgetFromEnergySource(t *testing.T) {
	src := &fakeEnergy{}
	r := newRig(t, rigOpts{
		pages: 64, budget: 32, targetPages: 32.3,
		// Slow device so the transfer term dominates the fixed overhead
		// and a half-reporting source still covers a nonzero budget.
		ssd:    ssd.Config{WriteBandwidth: 16 << 20},
		health: Config{Energy: src},
	})
	// Honest telemetry first: budget must match the battery-derived one.
	src.fn = func(sim.Time) float64 { return r.batt.EffectiveJoules() }
	r.run(5 * sim.Millisecond)
	if got := r.mgr.DirtyBudget(); got != 32 {
		t.Fatalf("budget %d under honest telemetry, want 32", got)
	}

	// The telemetry turns conservative (fused fell back to a lower
	// bound): the budget shrinks even though the battery is untouched.
	src.fn = func(sim.Time) float64 { return r.batt.EffectiveJoules() / 2 }
	r.run(4 * sim.Millisecond)
	got := r.mgr.DirtyBudget()
	if got >= 32 || got < 1 {
		t.Fatalf("budget %d under half-reporting telemetry, want shrunk into [1,32)", got)
	}

	snaps := r.mon.Snapshots()
	last := snaps[len(snaps)-1]
	wantTrue := r.batt.EffectiveJoules()
	if last.TrueJoules != wantTrue {
		t.Fatalf("snapshot TrueJoules %v, want battery model %v", last.TrueJoules, wantTrue)
	}
	if math.Abs(last.EffectiveJoules-wantTrue/2) > 1e-9 {
		t.Fatalf("snapshot EffectiveJoules %v, want telemetry value %v", last.EffectiveJoules, wantTrue/2)
	}
	if !(last.EffectiveJoules < last.TrueJoules) {
		t.Fatal("conservative estimate not below ground truth in snapshot")
	}
}

// TestHealthyFusedSensorIsNeutral: with healthy gauges, a monitor reading
// the fused sensor (wired as viyojit.New wires it) derives the same
// energy and the same budget at every tick as one reading the battery
// model directly, through an ageing schedule and a capacity step down,
// with the dirty set pressing its budget throughout.
func TestHealthyFusedSensorIsNeutral(t *testing.T) {
	opts := rigOpts{pages: 256, budget: 64, targetPages: 64.3, ssd: ssd.Config{WriteBandwidth: 16 << 20}}
	raw := newRig(t, opts)
	src := &fakeEnergy{}
	opts.health = Config{Energy: src}
	fusedRig := newRig(t, opts)
	b := fusedRig.batt
	fused, err := sensor.New(sensor.Config{}, b.NameplateJoules,
		sensor.NewCoulombCounter("coulomb", b.EffectiveJoules),
		sensor.NewVoltageSoC("voltage", b.EffectiveJoules, 0))
	if err != nil {
		t.Fatal(err)
	}
	fused.Sample(fusedRig.clock.Now())
	src.fn = fused.Sample

	for _, r := range []*rig{raw, fusedRig} {
		if err := battery.ScheduleAging(r.events, r.batt, battery.AgingSchedule{
			Start: sim.Time(3 * sim.Millisecond), Interval: 3 * sim.Millisecond, FractionPerStep: 0.05, Steps: 8,
		}); err != nil {
			t.Fatal(err)
		}
		batt := r.batt
		r.events.Schedule(sim.Time(13*sim.Millisecond), func(sim.Time) {
			if err := batt.SetCapacityJoules(batt.NameplateJoules() * 0.6); err != nil {
				t.Error(err)
			}
		})
	}
	for step := 0; step < 30; step++ {
		for _, r := range []*rig{raw, fusedRig} {
			for p := 0; p < 8; p++ {
				r.writePage(t, (step*8+p)%256, byte(step+1))
			}
			r.run(sim.Millisecond)
		}
	}

	want, got := raw.mon.Snapshots(), fusedRig.mon.Snapshots()
	if len(want) != len(got) || len(want) < 10 {
		t.Fatalf("%d raw ticks vs %d fused ticks, want equal and ≥ 10", len(want), len(got))
	}
	for i := range want {
		if got[i].EffectiveJoules != want[i].EffectiveJoules || got[i].Budget != want[i].Budget {
			t.Fatalf("tick %d at %v: fused %v J → %d pages, raw %v J → %d pages",
				i, want[i].At, got[i].EffectiveJoules, got[i].Budget, want[i].EffectiveJoules, want[i].Budget)
		}
	}
	if first, last := want[0].Budget, want[len(want)-1].Budget; last >= first {
		t.Fatalf("budget %d → %d: the ageing and the step never reached the monitor", first, last)
	}
}

// TestPoisonedWindowResetNotEmergency is the first-sample-edge
// regression: a transient fault burst that lands BEFORE the device has
// banked any good samples leaves the measurement window full of
// zero-goodput entries. Once the device heals (error streak back to
// zero), that stale window must not hold the measured-scaled budget at
// zero and fire a spurious EmergencyFlush the moment a page goes dirty
// — the monitor discards the window (ResetMeasurement) and re-derives
// from the wear model instead.
func TestPoisonedWindowResetNotEmergency(t *testing.T) {
	r := newRig(t, rigOpts{
		pages: 16, budget: 4, targetPages: 4.5,
		health: Config{
			Interval: sim.Millisecond,
			// Keep the streak-based escalation out of the way: this test
			// is about the budget-collapse path only.
			EmergencyErrorStreak: 1000,
		},
	})
	// The very first writes the device ever sees all fail: the window's
	// oldest samples are the burst, with no good history before it.
	inj := faultinject.New(faultinject.Config{})
	inj.FailNextWrites(30)
	r.dev.SetFaultInjector(inj)
	for p := 0; p < 4; p++ {
		r.writePage(t, p, byte(p+1))
	}
	// Ride out the burst until the injector exhausts and the error
	// streak clears. (Dirty pages under budget stay dirty — that is
	// normal operation, not a stuck drain.)
	deadline := r.clock.Now().Add(60 * sim.Millisecond)
	for r.clock.Now() < deadline && r.mgr.ErrorStreak() > 0 {
		r.run(sim.Millisecond)
	}
	if r.mgr.ErrorStreak() != 0 {
		t.Fatalf("device did not heal: streak %d", r.mgr.ErrorStreak())
	}

	// Healed device, poisoned window. New dirtiness must ride the
	// wear-model budget, not trip an emergency.
	r.writePage(t, 5, 0xAA)
	r.run(3 * sim.Millisecond)

	st := r.mon.Stats()
	if st.EmergencyEnters != 0 {
		t.Fatalf("EmergencyEnters = %d after the device healed, want 0 (spurious emergency from stale window)", st.EmergencyEnters)
	}
	if st.MeasurementResets == 0 {
		t.Fatal("poisoned measurement window was never reset")
	}
	if hs := r.mgr.HealthState(); hs != core.StateHealthy && hs != core.StateDegraded {
		t.Fatalf("state %v, want Healthy or Degraded", hs)
	}
	if b := r.mon.LastBudget(); b < 1 {
		t.Fatalf("budget %d after reset, want >= 1", b)
	}
}

func TestBudgetPagesRejectsPoisonedInputs(t *testing.T) {
	pm := power.Default()
	const (
		bw       = int64(100 << 20)
		dram     = int64(64 * 4096)
		pageSize = 4096
		overhead = 500 * sim.Microsecond
	)
	good := BudgetPages(pm, 50, bw, dram, pageSize, overhead)
	if good < 1 {
		t.Fatalf("sanity: healthy inputs gave budget %d", good)
	}
	for _, j := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), -1, 0} {
		if got := BudgetPages(pm, j, bw, dram, pageSize, overhead); got != 0 {
			t.Errorf("BudgetPages(joules=%v) = %d, want 0", j, got)
		}
	}
	if got := BudgetPages(pm, 50, 0, dram, pageSize, overhead); got != 0 {
		t.Errorf("BudgetPages(bandwidth=0) = %d, want 0", got)
	}
	if got := BudgetPages(pm, 50, -5, dram, pageSize, overhead); got != 0 {
		t.Errorf("BudgetPages(bandwidth<0) = %d, want 0", got)
	}
}
