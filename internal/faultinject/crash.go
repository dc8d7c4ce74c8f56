package faultinject

import "viyojit/internal/sim"

// CrashPoint identifies where a scheduled power failure fired: the
// 1-based index of the event-queue step that was about to execute, and
// its virtual time.
type CrashPoint struct {
	Step uint64
	At   sim.Time
}

// crashSignal is the panic payload Crasher uses to unwind the workload
// when the armed step is reached. It is private: any other panic value
// propagates, so real bugs are never swallowed as crashes.
type crashSignal struct{ cp CrashPoint }

// Crasher triggers a simulated power failure at a chosen event-queue
// step. It installs a fire hook on the queue; when the armed step is
// about to execute, the hook panics with a private signal that Run
// recovers, leaving the simulation frozen exactly between two events —
// the instant the power failed. The queue itself stays consistent (the
// hook runs before the event is dequeued), so post-crash machinery
// (battery flush, durability verification) can keep using it after
// Disarm.
type Crasher struct {
	queue   *sim.Queue
	target  uint64
	armed   bool
	crashed bool
	point   CrashPoint
}

// NewCrasher installs a crasher on the queue. Only one crasher (or fire
// hook) per queue is supported.
func NewCrasher(q *sim.Queue) *Crasher {
	c := &Crasher{queue: q}
	q.SetFireHook(c.hook)
	return c
}

func (c *Crasher) hook(step uint64, at sim.Time) {
	if !c.armed || step < c.target {
		return
	}
	c.armed = false
	c.crashed = true
	c.point = CrashPoint{Step: step, At: at}
	panic(crashSignal{cp: c.point})
}

// ArmAt schedules the power failure for the given 1-based event step
// (as counted by the queue's Fired counter since its creation). Arming
// a step already in the past crashes on the next event.
func (c *Crasher) ArmAt(step uint64) {
	c.target = step
	c.armed = true
	c.crashed = false
}

// Disarm cancels a pending crash and detaches nothing: the hook stays
// installed but inert, so the post-crash flush can pump events safely.
func (c *Crasher) Disarm() { c.armed = false }

// Crashed reports whether the last Run ended in the armed crash, and
// where.
func (c *Crasher) Crashed() (CrashPoint, bool) { return c.point, c.crashed }

// AsCrash classifies a recovered panic value: it returns the crash
// point and true iff the value is a Crasher's power-failure signal.
// Components that serve on goroutines other than Run's (the serve
// front-end) use it as the Config.RecoverCrash filter, so simulated
// power failures are contained while real bugs still crash the process.
func AsCrash(v any) (CrashPoint, bool) {
	if sig, ok := v.(crashSignal); ok {
		return sig.cp, true
	}
	return CrashPoint{}, false
}

// Run executes fn, converting the armed crash — if it fires — into a
// normal return. It returns the crash point and true if the power
// failure fired, or a zero point and false if fn completed first. Any
// other panic propagates unchanged. After a crash the crasher is
// disarmed; the caller runs its post-failure protocol (battery flush,
// recovery, invariant checks) and may re-arm for the next point.
func (c *Crasher) Run(fn func()) (cp CrashPoint, crashed bool) {
	defer func() {
		if r := recover(); r != nil {
			if sig, ok := r.(crashSignal); ok {
				cp = sig.cp
				crashed = true
				return
			}
			panic(r)
		}
	}()
	fn()
	return CrashPoint{}, false
}
