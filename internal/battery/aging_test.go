package battery

import (
	"math"
	"testing"

	"viyojit/internal/sim"
)

// The safe-shrink contract: shrink observers run BEFORE the capacity
// mutation, with the projected new effective joules, while the battery
// still reports its old capacity — that ordering is what lets the
// manager drain the dirty set down to the projected coverage before the
// energy actually disappears.
func TestOnShrinkRunsBeforeMutation(t *testing.T) {
	b := MustNew(Config{CapacityJoules: 1000, DepthOfDischarge: 1, Derating: 1})
	var sawCurrent, sawProjected float64
	calls := 0
	b.OnShrink(func(bb *Battery, projected float64) {
		calls++
		sawCurrent = bb.EffectiveJoules()
		sawProjected = projected
	})
	if err := b.SetCapacityJoules(400); err != nil {
		t.Fatal(err)
	}
	if calls != 1 {
		t.Fatalf("shrink observer ran %d times, want 1", calls)
	}
	if sawCurrent != 1000 {
		t.Fatalf("observer saw effective %v during the shrink, want the pre-change 1000", sawCurrent)
	}
	if sawProjected != 400 {
		t.Fatalf("observer projected %v, want 400", sawProjected)
	}
	if b.EffectiveJoules() != 400 {
		t.Fatalf("effective after shrink = %v, want 400", b.EffectiveJoules())
	}
}

func TestOnShrinkSkipsGrowth(t *testing.T) {
	b := MustNew(Config{CapacityJoules: 1000, DepthOfDischarge: 1, Derating: 1})
	shrinks := 0
	changes := 0
	b.OnShrink(func(*Battery, float64) { shrinks++ })
	b.OnChange(func(*Battery) { changes++ })
	if err := b.SetCapacityJoules(2000); err != nil {
		t.Fatal(err)
	}
	if shrinks != 0 {
		t.Fatalf("growth ran %d shrink observers", shrinks)
	}
	if changes != 1 {
		t.Fatalf("growth ran %d change observers, want 1", changes)
	}
}

func TestSetDeratingShrinksAndRestores(t *testing.T) {
	b := MustNew(Config{CapacityJoules: 1000, DepthOfDischarge: 1, Derating: 1})
	var projected []float64
	b.OnShrink(func(_ *Battery, p float64) { projected = append(projected, p) })
	if err := b.SetDerating(0.5); err != nil {
		t.Fatal(err)
	}
	if b.EffectiveJoules() != 500 {
		t.Fatalf("effective after derate = %v, want 500", b.EffectiveJoules())
	}
	// Unlike Age, derating is reversible: raising it restores capacity
	// and must not run shrink observers.
	if err := b.SetDerating(1); err != nil {
		t.Fatal(err)
	}
	if b.EffectiveJoules() != 1000 {
		t.Fatalf("effective after restore = %v, want 1000", b.EffectiveJoules())
	}
	if len(projected) != 1 || projected[0] != 500 {
		t.Fatalf("shrink observers saw %v, want [500]", projected)
	}
	if err := b.SetDerating(1.5); err == nil {
		t.Fatal("derating 1.5 accepted")
	}
}

func TestScheduleAgingSteps(t *testing.T) {
	clock := sim.NewClock()
	events := sim.NewQueue()
	b := MustNew(Config{CapacityJoules: 1000, DepthOfDischarge: 1, Derating: 1})
	if err := ScheduleAging(events, b, AgingSchedule{
		Start:           sim.Time(sim.Millisecond),
		Interval:        sim.Millisecond,
		FractionPerStep: 0.1,
		Steps:           3,
	}); err != nil {
		t.Fatal(err)
	}
	// A driver that jumps the clock far past every step still observes
	// one step per interval: the schedule self-perpetuates at its own
	// scheduled times, and Steps bounds it at 3.
	events.RunUntil(clock, sim.Time(10*sim.Millisecond))
	want := 1000 * 0.9 * 0.9 * 0.9
	if got := b.NameplateJoules(); math.Abs(got-want) > 1e-9 {
		t.Fatalf("nameplate after bounded schedule = %v, want %v", got, want)
	}
}

func TestScheduleAgingRunsShrinkObservers(t *testing.T) {
	clock := sim.NewClock()
	events := sim.NewQueue()
	b := MustNew(Config{CapacityJoules: 1000, DepthOfDischarge: 1, Derating: 1})
	var projected []float64
	b.OnShrink(func(_ *Battery, p float64) { projected = append(projected, p) })
	if err := ScheduleAging(events, b, AgingSchedule{
		Interval:        sim.Millisecond,
		FractionPerStep: 0.5,
		Steps:           2,
	}); err != nil {
		t.Fatal(err)
	}
	events.RunUntil(clock, sim.Time(5*sim.Millisecond))
	if len(projected) != 2 || projected[0] != 500 || projected[1] != 250 {
		t.Fatalf("shrink observers saw %v, want [500 250]", projected)
	}
}

func TestScheduleAgingValidation(t *testing.T) {
	events := sim.NewQueue()
	b := MustNew(Config{CapacityJoules: 1000})
	if err := ScheduleAging(events, b, AgingSchedule{Interval: 0, FractionPerStep: 0.1}); err == nil {
		t.Fatal("zero interval accepted")
	}
	if err := ScheduleAging(events, b, AgingSchedule{Interval: sim.Millisecond, FractionPerStep: 1}); err == nil {
		t.Fatal("fraction 1 accepted")
	}
	if err := ScheduleAging(events, b, AgingSchedule{Interval: sim.Millisecond, FractionPerStep: -0.1}); err == nil {
		t.Fatal("negative fraction accepted")
	}
	if err := ScheduleAging(events, b, AgingSchedule{Interval: sim.Millisecond, FractionPerStep: math.NaN()}); err == nil {
		t.Fatal("NaN fraction accepted")
	}
	if err := ScheduleAging(events, b, AgingSchedule{Interval: sim.Millisecond, FractionPerStep: 0.1, Steps: -1}); err == nil {
		t.Fatal("negative step count accepted")
	}
	if events.Len() != 0 {
		t.Fatalf("a rejected schedule left %d events queued", events.Len())
	}
}

// ProjectedJoules is what a budget derived inside a safe-shrink drain
// reads: the energy the pending shrink leaves while its observers run,
// and EffectiveJoules at every other time, growth included.
func TestProjectedJoulesDuringShrink(t *testing.T) {
	b := MustNew(Config{CapacityJoules: 1000, DepthOfDischarge: 1, Derating: 1})
	var during []float64
	b.OnShrink(func(bb *Battery, _ float64) { during = append(during, bb.ProjectedJoules()) })
	b.OnChange(func(bb *Battery) { during = append(during, bb.ProjectedJoules()) })
	if b.ProjectedJoules() != 1000 {
		t.Fatalf("idle projection %v, want 1000", b.ProjectedJoules())
	}
	if err := b.SetCapacityJoules(400); err != nil {
		t.Fatal(err)
	}
	if err := b.SetDerating(0.5); err != nil {
		t.Fatal(err)
	}
	if err := b.SetDerating(1); err != nil { // growth: no shrink pending
		t.Fatal(err)
	}
	want := []float64{400, 400, 200, 200, 400}
	if len(during) != len(want) {
		t.Fatalf("observers saw %v, want %v", during, want)
	}
	for i := range want {
		if during[i] != want[i] {
			t.Fatalf("observers saw %v, want %v", during, want)
		}
	}
	if b.ProjectedJoules() != b.EffectiveJoules() {
		t.Fatalf("projection %v outlived the shrink (effective %v)", b.ProjectedJoules(), b.EffectiveJoules())
	}
}
