// Package faultinject is the deterministic, seeded fault-injection layer
// for the Viyojit simulation. The paper's value proposition is a
// durability guarantee *under failure* — dirty pages ≤ budget so the
// battery can always flush them — so this package supplies the
// adversarial events the guarantee must survive:
//
//   - SSD write faults: transient errors, torn half-page programs, and
//     latency spikes, injected per-write via ssd.FaultInjector
//     (Injector), from a seeded RNG and/or a scripted schedule keyed by
//     write index.
//   - Battery capacity sag: step-downs of nameplate capacity or derating
//     at arbitrary virtual times (ScheduleBatterySag), which retune the
//     dirty budget through the battery's OnChange observers.
//   - Power failure at any chosen event-queue step (Crasher), the
//     primitive the crash-point sweep in the crashsweep subpackage is
//     built on.
//
// Everything runs on the virtual clock and a sim.RNG: the same seed and
// schedule reproduce the same faults at the same instants, so a failing
// crash point is a replayable artifact, not a flake.
package faultinject

import (
	"fmt"

	"viyojit/internal/battery"
	"viyojit/internal/mmu"
	"viyojit/internal/sim"
	"viyojit/internal/ssd"
)

// Config parameterises the probabilistic side of an Injector. All
// probabilities are per submitted write and independent; zero values
// inject nothing (scripted faults still apply).
type Config struct {
	// Seed feeds the injector's private RNG stream.
	Seed uint64
	// TransientProb is the probability a write fails with
	// ssd.ErrWriteFault.
	TransientProb float64
	// TornProb is the probability a write tears (half the page lands,
	// ssd.ErrTornWrite).
	TornProb float64
	// SpikeProb is the probability a write's completion is delayed by
	// SpikeDelay.
	SpikeProb float64
	// MaxFaults bounds the total number of injected failures (transient
	// + torn); 0 means unbounded. A bound guarantees retry loops
	// converge even at TransientProb 1.0.
	MaxFaults uint64

	// The silent-corruption classes below never surface an error to the
	// host, so they are exempt from MaxFaults (there is no retry loop to
	// starve) and are drawn from a second, independent RNG stream so
	// enabling them leaves existing transient/torn/spike schedules for a
	// given seed bit-identical.

	// LostProb is the probability a write is acked as durable but never
	// persisted (ssd.FaultLost).
	LostProb float64
	// MisdirectedProb is the probability a write is acked for its page
	// but lands on a different durable page (ssd.FaultMisdirected).
	MisdirectedProb float64
	// RotProb is the probability a write's completion is accompanied by
	// an at-rest bit flip on some durable page — silent bit rot, clocked
	// to write activity so rot density scales with runtime. It composes
	// with any other fault on the same write.
	RotProb float64
}

// SpikeDelay is the injected delay of a latency spike: an SSD
// internal-GC stall, ~16x the default per-IO latency.
const SpikeDelay = sim.Millisecond

// Stats counts what an Injector actually injected.
type Stats struct {
	WritesSeen    uint64
	Transients    uint64
	Torn          uint64
	LatencySpikes uint64
	Lost          uint64
	Misdirected   uint64
	Rot           uint64
}

// Injector implements ssd.FaultInjector deterministically: scripted
// one-shot faults (keyed by the 0-based submission index) take
// precedence, then seeded probabilistic faults. It is not safe for
// concurrent use (the simulation is single-goroutine).
type Injector struct {
	cfg      Config
	rng      *sim.RNG // transient/torn/spike stream (3 draws per write)
	silent   *sim.RNG // lost/misdirected/rot stream (5 draws per write)
	next     uint64   // index of the next write to be submitted
	scripted map[uint64]ssd.FaultDecision
	enabled  bool
	stats    Stats
}

// New returns an enabled injector for cfg.
func New(cfg Config) *Injector {
	return &Injector{
		cfg:      cfg,
		rng:      sim.NewRNG(cfg.Seed),
		silent:   sim.NewRNG(cfg.Seed ^ 0x51C4_11E7_C0DE_D00D),
		scripted: make(map[uint64]ssd.FaultDecision),
		enabled:  true,
	}
}

// WriteFault implements ssd.FaultInjector.
func (i *Injector) WriteFault(_ mmu.PageID, _ []byte) ssd.FaultDecision {
	idx := i.next
	i.next++
	if !i.enabled {
		return ssd.FaultDecision{}
	}
	i.stats.WritesSeen++
	if d, ok := i.scripted[idx]; ok {
		delete(i.scripted, idx)
		i.record(d)
		return d
	}
	var d ssd.FaultDecision
	// One RNG draw per probability keeps the stream layout stable: a
	// write consumes the same number of draws whatever it decides, so
	// changing one probability doesn't reshuffle later faults.
	pTransient := i.rng.Float64()
	pTorn := i.rng.Float64()
	pSpike := i.rng.Float64()
	if i.faultBudgetLeft() {
		if pTransient < i.cfg.TransientProb {
			d.Fault = ssd.FaultTransient
		} else if pTorn < i.cfg.TornProb {
			d.Fault = ssd.FaultTorn
		}
	}
	if pSpike < i.cfg.SpikeProb {
		d.ExtraLatency = SpikeDelay
	}
	// Silent classes on their own stream, same fixed-draw discipline:
	// every write consumes 5 draws whatever it decides, so tuning one
	// probability never reshuffles the others' schedules.
	pLost := i.silent.Float64()
	pMisdirect := i.silent.Float64()
	pRot := i.silent.Float64()
	misdirectSeed := i.silent.Uint64()
	rotSeed := i.silent.Uint64()
	if d.Fault == ssd.FaultNone {
		if pLost < i.cfg.LostProb {
			d.Fault = ssd.FaultLost
		} else if pMisdirect < i.cfg.MisdirectedProb {
			d.Fault = ssd.FaultMisdirected
			d.MisdirectSeed = misdirectSeed
		}
	}
	if pRot < i.cfg.RotProb {
		d.Rot = true
		d.RotSeed = rotSeed
	}
	i.record(d)
	return d
}

func (i *Injector) faultBudgetLeft() bool {
	return i.cfg.MaxFaults == 0 || i.stats.Transients+i.stats.Torn < i.cfg.MaxFaults
}

func (i *Injector) record(d ssd.FaultDecision) {
	switch d.Fault {
	case ssd.FaultTransient:
		i.stats.Transients++
	case ssd.FaultTorn:
		i.stats.Torn++
	case ssd.FaultLost:
		i.stats.Lost++
	case ssd.FaultMisdirected:
		i.stats.Misdirected++
	}
	if d.ExtraLatency > 0 {
		i.stats.LatencySpikes++
	}
	if d.Rot {
		i.stats.Rot++
	}
}

// ScriptAt schedules decision d for the write with the given 0-based
// submission index (counted from injector construction). Scripted
// faults fire even when the probabilistic side is all-zero, and count
// against MaxFaults' bookkeeping but not its bound.
func (i *Injector) ScriptAt(writeIndex uint64, d ssd.FaultDecision) {
	i.scripted[writeIndex] = d
}

// FailNextWrites scripts the next n submissions as transient failures —
// the "SSD went away briefly" schedule retry tests use.
func (i *Injector) FailNextWrites(n int) {
	for k := 0; k < n; k++ {
		i.scripted[i.next+uint64(k)] = ssd.FaultDecision{Fault: ssd.FaultTransient}
	}
}

// Disable makes the injector pass every write through unharmed (the
// post-crash flush path disables injection); Enable re-arms it.
func (i *Injector) Disable() { i.enabled = false }

// Enable re-arms a disabled injector.
func (i *Injector) Enable() { i.enabled = true }

// Stats returns what was actually injected.
func (i *Injector) Stats() Stats { return i.stats }

// SagStep is one battery capacity step-down (or restoration) at a
// virtual time.
type SagStep struct {
	At sim.Time
	// CapacityJoules, if positive, replaces the nameplate capacity.
	CapacityJoules float64
	// Derating, if positive, replaces the runtime derating factor
	// (reversible sag: temperature or measured voltage droop).
	Derating float64
}

// ScheduleBatterySag arms one event per step on the simulation's shared
// queue; each fires at its virtual time and applies the step to batt,
// whose OnChange observers (the Viyojit manager's budget retune) then
// run. Invalid steps panic at fire time: a mis-specified fault schedule
// is a bug in the experiment, not a condition to recover.
func ScheduleBatterySag(events *sim.Queue, batt *battery.Battery, steps []SagStep) {
	for _, s := range steps {
		step := s
		events.Schedule(step.At, func(sim.Time) {
			if step.CapacityJoules > 0 {
				if err := batt.SetCapacityJoules(step.CapacityJoules); err != nil {
					panic(fmt.Sprintf("faultinject: battery sag: %v", err))
				}
			}
			if step.Derating > 0 {
				if err := batt.SetDerating(step.Derating); err != nil {
					panic(fmt.Sprintf("faultinject: battery sag: %v", err))
				}
			}
		})
	}
}
