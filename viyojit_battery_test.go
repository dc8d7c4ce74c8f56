package viyojit

import (
	"errors"
	"testing"
	"time"

	"viyojit/internal/core"
	"viyojit/internal/health"
	"viyojit/internal/mmu"
	"viyojit/internal/power"
	"viyojit/internal/sim"
	"viyojit/internal/ssd"
)

// covered is the budget the battery's *true* effective joules back, by
// §5.1's formula at its two fixed inputs: the invariant every capacity
// change must leave standing.
func covered(sys *System) int {
	bw := int64(float64(sys.SSD().Config().WriteBandwidth) * health.Derating)
	return health.BudgetPages(power.Default(), sys.Battery().EffectiveJoules(), bw,
		sys.region.Size(), sys.region.PageSize(), health.FlushReserve)
}

// New installs, and a battery change retunes to, exactly §5.1's budget
// at health.Derating and health.FlushReserve, for default and explicit
// batteries on several region sizes and on both device speeds.
func TestBudgetIsSection51Formula(t *testing.T) {
	for _, size := range []int64{4 << 20, 16 << 20, 64 << 20} {
		for _, joules := range []float64{0, 0.5, 3, 40} {
			for _, bw := range []int64{0, 16 << 20} {
				sys, err := New(Config{NVDRAMSize: size, Battery: BatteryConfig{CapacityJoules: joules},
					SSD: SSDConfig{WriteBandwidth: bw}, DisableHealthMonitor: true})
				if err != nil {
					t.Fatal(err)
				}
				if got, want := sys.DirtyBudget(), covered(sys); got != want {
					t.Errorf("%d MiB, %v J, bw %d: budget %d pages, §5.1 gives %d", size>>20, joules, bw, got, want)
				}
				if err := sys.Battery().Age(0.3); err != nil {
					t.Fatal(err)
				}
				if got, want := sys.DirtyBudget(), max(covered(sys), 1); got != want {
					t.Errorf("%d MiB, %v J, bw %d, aged 30%%: budget %d pages, §5.1 gives %d", size>>20, joules, bw, got, want)
				}
				sys.Close()
			}
		}
	}
}

// §8 with the health monitor on, as Example_batterytuning runs it: the
// dirty set at its budget, then four years of ageing and a failed cell.
// The safe shrink's drain steps the event queue, so monitor ticks fire
// inside it; each must budget for the energy the shrink leaves, or its
// retune ends the drain above the shrunk battery's coverage.
func TestSafeShrinkHoldsWithMonitorOn(t *testing.T) {
	sys, err := New(Config{NVDRAMSize: 32 << 20})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	m, err := sys.Map("heap", 16<<20)
	if err != nil {
		t.Fatal(err)
	}
	for p := 0; p < sys.DirtyBudget()*2; p++ {
		if err := m.WriteAt([]byte{byte(p + 1)}, int64(p%4096)*4096); err != nil {
			t.Fatal(err)
		}
		sys.Pump()
	}
	batt := sys.Battery()
	steps := []struct {
		name  string
		apply func() error
	}{
		{"20% ageing", func() error { return batt.Age(0.20) }},
		{"cell failure", func() error { return batt.SetCapacityJoules(batt.NameplateJoules() / 2) }},
	}
	for _, s := range steps {
		if err := s.apply(); err != nil {
			t.Fatal(err)
		}
		dirty, budget := sys.DirtyCount(), sys.DirtyBudget()
		if dirty > budget || sys.Manager().Draining() || dirty > covered(sys) {
			t.Fatalf("after %s: budget %d pages, dirty %d, draining %v; the battery covers %d",
				s.name, budget, dirty, sys.Manager().Draining(), covered(sys))
		}
	}
	if pf := sys.SimulatePowerFailure(); !pf.Survived {
		t.Fatalf("power failure on the degraded battery: %+v", pf)
	}
	if err := sys.VerifyDurability(); err != nil {
		t.Fatal(err)
	}
}

// Badri et al.'s repeated failure under shrinking energy, as a property:
// seeded sequences of Age / SetCapacityJoules / SetDerating interleaved
// with writes and idle time, monitor and fused sensor on. Every battery
// call returns with the dirty set inside the budget and no drain
// pending, and after every step the dirty set fits what the battery's
// true energy covers. A rise makes the fused sensor distrust its gauges
// for a few samples, and on this sub-joule pack that can take the ladder
// to EmergencyFlush, which refuses writes; those refusals are expected.
func TestBatteryChangesKeepDirtyCovered(t *testing.T) {
	for seed := uint64(1); seed <= 6; seed++ {
		sys, err := New(Config{NVDRAMSize: 32 << 20})
		if err != nil {
			t.Fatal(err)
		}
		m, err := sys.Map("heap", 16<<20)
		if err != nil {
			t.Fatal(err)
		}
		batt := sys.Battery()
		installed := batt.NameplateJoules()
		rng := sim.NewRNG(seed)
		var written, refused int
		for step := 0; step < 60; step++ {
			var call string
			var err error
			switch op := rng.Intn(5); {
			case op <= 1: // a burst of writes
				for i, n := 0, 1+rng.Intn(400); i < n; i++ {
					werr := m.WriteAt([]byte{byte(step)}, rng.Int63n(4096)*4096)
					if werr != nil && writable(sys) {
						t.Fatalf("seed %d step %d: write: %v", seed, step, werr)
					}
					if werr != nil {
						refused++
						break
					}
					written++
					sys.Pump()
				}
			case op == 2:
				sys.AdvanceTime(Duration(rng.Int63n(int64(3 * sim.Millisecond))))
			default:
				// Capacity stays within [0.5, 1.2] of the installed pack and
				// derating within [0.6, 1], so the true energy always backs a
				// few hundred pages.
				switch rng.Intn(3) {
				case 0:
					f := 0.15 * rng.Float64()
					if batt.NameplateJoules()*(1-f) < installed/2 {
						continue
					}
					call, err = "Age", batt.Age(f)
				case 1:
					call, err = "SetCapacityJoules", batt.SetCapacityJoules(installed*(0.5+0.7*rng.Float64()))
				default:
					call, err = "SetDerating", batt.SetDerating(0.6+0.4*rng.Float64())
				}
				if err != nil {
					t.Fatalf("seed %d step %d: %s: %v", seed, step, call, err)
				}
				if d, b := sys.DirtyCount(), sys.DirtyBudget(); d > b || sys.Manager().Draining() {
					t.Fatalf("seed %d step %d: %s returned with dirty %d, budget %d, draining %v",
						seed, step, call, d, b, sys.Manager().Draining())
				}
			}
			if d, c := sys.DirtyCount(), covered(sys); d > c {
				t.Fatalf("seed %d step %d (%s): dirty %d, but %.4f J effective covers %d",
					seed, step, call, d, batt.EffectiveJoules(), c)
			}
		}
		t.Logf("seed %d: %d writes applied, %d bursts refused on the emergency rungs", seed, written, refused)
		sys.Close()
	}
}

// writable reports whether the ladder admits writes: EmergencyFlush and
// ReadOnly refuse them by design.
func writable(sys *System) bool {
	s := sys.HealthState()
	return s == core.StateHealthy || s == core.StateDegraded
}

// failEvery fails every SSD page write transiently: a dead device.
type failEvery struct{}

func (failEvery) WriteFault(mmu.PageID, []byte) ssd.FaultDecision {
	return ssd.FaultDecision{Fault: ssd.FaultTransient}
}

// An SSD that fails every write blocks writes and then ends on the
// ReadOnly rung; a write meanwhile returns mmu.ErrProtected. The write
// used to spin forever: the emergency drain ran nested under clean
// submissions waiting for a device slot and waited for them to complete,
// and the forced clean under the write restarted failed cleans without
// end.
func TestDeadSSDEndsReadOnly(t *testing.T) {
	sys := newTestSystem(t, Config{NVDRAMSize: 4 << 20})
	defer sys.Close()
	m, err := sys.Map("heap", 2<<20)
	if err != nil {
		t.Fatal(err)
	}
	sys.SSD().SetFaultInjector(failEvery{})
	done := make(chan error, 1)
	go func() {
		for p := int64(0); p < m.Size()/4096; p++ {
			if err := m.WriteAt([]byte{1}, p*4096); err != nil {
				done <- err
				return
			}
			sys.Pump()
		}
		done <- nil
	}()
	select {
	case err := <-done:
		if !errors.Is(err, mmu.ErrProtected) {
			t.Fatalf("write on a dead SSD returned %v, want mmu.ErrProtected", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("writes to a region over a dead SSD did not return in 30 s")
	}
	sys.AdvanceTime(100 * sim.Millisecond)
	if s := sys.HealthState(); s != core.StateReadOnly {
		t.Fatalf("ladder at %v after 100 ms on a dead SSD, want ReadOnly", s)
	}
	if err := m.WriteAt([]byte{2}, 0); !errors.Is(err, mmu.ErrProtected) {
		t.Fatalf("write on the ReadOnly rung returned %v, want mmu.ErrProtected", err)
	}
}
