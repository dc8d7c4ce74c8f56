package battery

import (
	"fmt"

	"viyojit/internal/sim"
)

// AgingSchedule describes a gradual capacity decline driven by the
// simulation clock: every Interval of virtual time the nameplate loses
// FractionPerStep of its then-current capacity. It is the runtime signal
// the health monitor closes the loop on — batteries derate continuously
// in deployment, not once at install time (paper §2.2).
type AgingSchedule struct {
	// Start is the virtual time of the first aging step.
	Start sim.Time
	// Interval is the spacing between steps; it must be positive.
	Interval sim.Duration
	// FractionPerStep is the multiplicative capacity loss per step, in
	// [0, 1).
	FractionPerStep float64
	// Steps bounds the schedule; 0 means it runs for the lifetime of
	// the event queue.
	Steps int
}

func (s AgingSchedule) validate() error {
	if s.Interval <= 0 {
		return fmt.Errorf("battery: aging interval %v must be positive", s.Interval)
	}
	if !(s.FractionPerStep >= 0 && s.FractionPerStep < 1) { // NaN fails too
		return fmt.Errorf("battery: aging fraction %v outside [0,1)", s.FractionPerStep)
	}
	if s.Steps < 0 {
		return fmt.Errorf("battery: aging steps %d negative", s.Steps)
	}
	return nil
}

// ScheduleAging arms the schedule on the simulation's shared event queue:
// each step calls b.Age(FractionPerStep), which runs the battery's shrink
// and change observers (budget drain and retune) in order. The schedule
// self-perpetuates off its own scheduled times, so drivers that advance
// the clock in large jumps still observe one step per interval.
func ScheduleAging(events *sim.Queue, b *Battery, s AgingSchedule) error {
	if err := s.validate(); err != nil {
		return err
	}
	var arm func(at sim.Time, remaining int)
	arm = func(at sim.Time, remaining int) {
		events.Schedule(at, func(now sim.Time) {
			if err := b.Age(s.FractionPerStep); err != nil {
				panic(fmt.Sprintf("battery: scheduled aging: %v", err))
			}
			if remaining == 1 {
				return
			}
			next := remaining
			if next > 0 {
				next--
			}
			arm(at.Add(s.Interval), next)
		})
	}
	arm(s.Start, s.Steps)
	return nil
}
