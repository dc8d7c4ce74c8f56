package faultinject

import (
	"testing"

	"viyojit/internal/battery"
	"viyojit/internal/sim"
	"viyojit/internal/ssd"
)

func decisions(inj *Injector, n int) []ssd.FaultDecision {
	out := make([]ssd.FaultDecision, n)
	for i := range out {
		out[i] = inj.WriteFault(0, nil)
	}
	return out
}

func TestInjectorDeterministic(t *testing.T) {
	cfg := Config{Seed: 99, TransientProb: 0.2, TornProb: 0.1, SpikeProb: 0.3}
	a := decisions(New(cfg), 500)
	b := decisions(New(cfg), 500)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("write %d: %+v != %+v for the same seed", i, a[i], b[i])
		}
	}
	faults := 0
	for _, d := range a {
		if d.Fault != ssd.FaultNone || d.ExtraLatency > 0 {
			faults++
		}
	}
	if faults == 0 {
		t.Fatal("500 writes at these probabilities injected nothing")
	}
}

// TestInjectorStableStream: because every write consumes exactly the
// same number of RNG draws regardless of outcome, zeroing one
// probability must not reshuffle the faults another probability injects.
func TestInjectorStableStream(t *testing.T) {
	withSpikes := decisions(New(Config{Seed: 7, TransientProb: 0.1, SpikeProb: 0.5}), 300)
	noSpikes := decisions(New(Config{Seed: 7, TransientProb: 0.1}), 300)
	for i := range withSpikes {
		if (withSpikes[i].Fault == ssd.FaultTransient) != (noSpikes[i].Fault == ssd.FaultTransient) {
			t.Fatalf("write %d: transient fault placement changed when SpikeProb changed", i)
		}
	}
}

func TestInjectorScripted(t *testing.T) {
	inj := New(Config{Seed: 1})
	inj.ScriptAt(2, ssd.FaultDecision{Fault: ssd.FaultTorn})
	inj.FailNextWrites(2) // writes 0 and 1
	want := []ssd.WriteFault{ssd.FaultTransient, ssd.FaultTransient, ssd.FaultTorn, ssd.FaultNone}
	for i, w := range want {
		if d := inj.WriteFault(0, nil); d.Fault != w {
			t.Fatalf("write %d: fault %v, want %v", i, d.Fault, w)
		}
	}
	st := inj.Stats()
	if st.Transients != 2 || st.Torn != 1 {
		t.Fatalf("stats %+v, want 2 transients and 1 torn", st)
	}
}

func TestInjectorMaxFaults(t *testing.T) {
	inj := New(Config{Seed: 5, TransientProb: 1.0, MaxFaults: 3})
	n := 0
	for _, d := range decisions(inj, 50) {
		if d.Fault != ssd.FaultNone {
			n++
		}
	}
	if n != 3 {
		t.Fatalf("injected %d faults, MaxFaults was 3", n)
	}
}

func TestInjectorDisable(t *testing.T) {
	inj := New(Config{Seed: 5, TransientProb: 1.0})
	if d := inj.WriteFault(0, nil); d.Fault != ssd.FaultTransient {
		t.Fatalf("enabled injector at prob 1.0 passed a write through")
	}
	inj.Disable()
	if d := inj.WriteFault(0, nil); d.Fault != ssd.FaultNone {
		t.Fatalf("disabled injector still injected")
	}
	if inj.next != 2 {
		t.Fatalf("writes seen = %d, want 2 (disabled writes still count for script alignment)", inj.next)
	}
	inj.Enable()
	if d := inj.WriteFault(0, nil); d.Fault != ssd.FaultTransient {
		t.Fatalf("re-enabled injector passed a write through")
	}
}

func TestCrasherFiresAtArmedStep(t *testing.T) {
	clock := sim.NewClock()
	q := sim.NewQueue()
	fired := 0
	for i := 0; i < 10; i++ {
		q.Schedule(sim.Time(i+1)*sim.Time(sim.Microsecond), func(sim.Time) { fired++ })
	}
	c := NewCrasher(q)
	c.ArmAt(4)
	cp, crashed := c.Run(func() { q.RunUntil(clock, sim.Time(sim.Second)) })
	if !crashed {
		t.Fatal("armed crash did not fire")
	}
	if cp.Step != 4 {
		t.Fatalf("crashed at step %d, want 4", cp.Step)
	}
	if fired != 3 {
		t.Fatalf("%d events ran before the crash, want 3 (crash fires before event 4 executes)", fired)
	}
	if got, ok := c.Crashed(); !ok || got != cp {
		t.Fatalf("Crashed() = %+v,%v; want %+v,true", got, ok, cp)
	}
	// The queue must still be usable: the crashed event was never popped.
	q.RunUntil(clock, sim.Time(sim.Second))
	if fired != 10 {
		t.Fatalf("post-crash drain ran %d events total, want 10", fired)
	}
}

func TestCrasherDisarmAndCompletion(t *testing.T) {
	clock := sim.NewClock()
	q := sim.NewQueue()
	for i := 0; i < 5; i++ {
		q.Schedule(sim.Time(i+1)*sim.Time(sim.Microsecond), func(sim.Time) {})
	}
	c := NewCrasher(q)
	c.ArmAt(3)
	c.Disarm()
	if _, crashed := c.Run(func() { q.RunUntil(clock, sim.Time(sim.Second)) }); crashed {
		t.Fatal("disarmed crasher fired")
	}
	// Arming a step already in the past crashes on the next event.
	q.Schedule(clock.Now().Add(sim.Microsecond), func(sim.Time) {})
	c.ArmAt(2)
	cp, crashed := c.Run(func() { q.RunUntil(clock, sim.Time(2*sim.Second)) })
	if !crashed {
		t.Fatal("past-step arm did not crash on the next event")
	}
	if cp.Step != 6 {
		t.Fatalf("crashed at step %d, want 6 (the next event after 5 already fired)", cp.Step)
	}
}

func TestCrasherPropagatesForeignPanics(t *testing.T) {
	c := NewCrasher(sim.NewQueue())
	defer func() {
		if r := recover(); r != "real bug" {
			t.Fatalf("recovered %v, want the foreign panic to propagate", r)
		}
	}()
	c.Run(func() { panic("real bug") })
}

func TestScheduleBatterySag(t *testing.T) {
	clock := sim.NewClock()
	q := sim.NewQueue()
	b := battery.MustNew(battery.Config{CapacityJoules: 1000})
	retunes := 0
	b.OnChange(func(*battery.Battery) { retunes++ })
	ScheduleBatterySag(q, b, []SagStep{
		{At: sim.Time(10 * sim.Microsecond), Derating: 0.8},
		{At: sim.Time(20 * sim.Microsecond), CapacityJoules: 500},
	})
	q.RunUntil(clock, sim.Time(15*sim.Microsecond))
	if got := b.EffectiveJoules(); got != 1000*0.5*0.8 {
		t.Fatalf("after derating step: effective %v J, want 400", got)
	}
	q.RunUntil(clock, sim.Time(30*sim.Microsecond))
	if got := b.EffectiveJoules(); got != 500*0.5*0.8 {
		t.Fatalf("after capacity step: effective %v J, want 200", got)
	}
	if retunes != 2 {
		t.Fatalf("observers notified %d times, want 2", retunes)
	}
}

func TestScheduleBatterySagInvalidPanics(t *testing.T) {
	clock := sim.NewClock()
	q := sim.NewQueue()
	b := battery.MustNew(battery.Config{CapacityJoules: 1000})
	ScheduleBatterySag(q, b, []SagStep{{At: sim.Time(sim.Microsecond), Derating: 1.5}})
	defer func() {
		if recover() == nil {
			t.Fatal("invalid sag step did not panic at fire time")
		}
	}()
	q.RunUntil(clock, sim.Time(sim.Second))
}
