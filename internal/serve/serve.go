// Package serve is the concurrent request front-end for the Viyojit
// core. Everything below it — sim.Clock, sim.Queue, core.Manager,
// kvstore.Store — is single-goroutine by design, so this package is an
// actor with one owner at a time: the dispatcher, or a Submit caller on
// an idle server. Many client goroutines submit into a bounded admission
// queue that the dispatch goroutine drains; a synchronous Submit that
// finds nothing queued and nobody owning the stack takes ownership and
// serves its own request on its own goroutine, the way the paper's
// faulting Redis thread runs Viyojit's handler in-line (§5.1). Either
// owner runs the same step, so the virtual timeline does not depend on
// which one served a request.
//
// The front door is where production systems survive overload, so
// admission is where all the policy lives:
//
//   - Bounded queue: occupancy can never exceed Config.MaxQueue; a full
//     queue sheds with ErrOverloaded instead of building unbounded
//     backlog.
//   - Priority + class scheduling: three priorities × two classes
//     (client traffic vs. scrub/drain/repair background work), served
//     highest-priority-first, client-before-background within a
//     priority, FIFO within a bucket.
//   - Deadline propagation in virtual time: a request's deadline covers
//     queue wait AND the clean-stall it would pay if admitted while the
//     dirty set is at budget; a request that cannot make its deadline is
//     rejected with ErrDeadlineExceeded before any work is wasted.
//   - Ladder-driven shedding: Degraded sheds low-priority writes first;
//     EmergencyFlush/ReadOnly reject client writes with ErrReadOnly
//     while reads keep flowing.
//   - A watchdog scheduled in virtual time detects a dispatch loop that
//     pumps events without retiring requests (a clean-retry storm
//     against a failing SSD) and trips the ladder's emergency flush.
//
// Clients never touch the clock or the manager directly: the server
// publishes virtual now and the health state through atomics, and
// WaitUntil lets an open-loop client pace its arrivals in virtual time.
package serve

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"viyojit/internal/core"
	"viyojit/internal/intent"
	"viyojit/internal/kvstore"
	"viyojit/internal/mmu"
	"viyojit/internal/obs"
	"viyojit/internal/sim"
)

// Class separates client traffic from the system's own background work
// (scrub, drain, repair, stats collection) so admission can prefer the
// traffic the system exists to serve while never starving remediation.
type Class uint8

const (
	// ClassClient is application traffic.
	ClassClient Class = iota
	// ClassBackground is system work: scrubs, drains, repairs,
	// synchronized stats reads.
	ClassBackground
)

// Priority orders requests within the admission queue and selects who
// gets shed first under pressure.
type Priority uint8

const (
	// PriorityLow is best-effort traffic: first to shed at the
	// occupancy watermark and under the Degraded rung.
	PriorityLow Priority = iota
	// PriorityNormal is the default.
	PriorityNormal
	// PriorityHigh is latency-critical traffic, served first.
	PriorityHigh
)

// Exec is the execution context handed to a request's Op on the
// goroutine that owns the stack (see Request.Op). Everything in it is
// single-goroutine state that must not escape the Op call.
type Exec struct {
	// Store is the KV store the server fronts (nil if the server was
	// built without one).
	Store *kvstore.Store
	// Mgr is the dirty-budget manager.
	Mgr *core.Manager
	// Now is the virtual time at which the op started executing.
	Now sim.Time
}

// Request is one unit of admission.
type Request struct {
	// Class and Priority drive scheduling and shedding; zero values are
	// ClassClient/PriorityLow — explicitly pick PriorityNormal for
	// ordinary traffic.
	Class    Class
	Priority Priority
	// Write marks ops that mutate NV-DRAM. Write requests are the ones
	// the degradation ladder sheds; reads flow on every rung.
	Write bool
	// Timeout is the virtual-time deadline measured from admission;
	// 0 means no deadline. It covers queue wait, predicted clean-stall,
	// and service time.
	Timeout sim.Duration
	// Op runs on the goroutine that owns the stack: the dispatch
	// goroutine, or the caller of a Submit that found the server idle.
	// Its return value is delivered through Result.Value.
	Op func(Exec) (any, error)

	// ClientID and RequestSeq identify a request for exactly-once
	// execution through the intent journal. Both must be non-zero when
	// Idem is set; RequestSeq must be issued in order per client with at
	// most the journal's window outstanding.
	ClientID   uint64
	RequestSeq uint64
	// Idem, when non-nil, replaces Op: the server runs the operation
	// under the intent-journal protocol (dedup lookup, intent+redo
	// journaling, result caching) and delivers an IdemResult in
	// Result.Idem. Requires Config.Journal.
	Idem *IdemOp
}

// Result is the outcome of a completed request.
type Result struct {
	// Value is whatever the Op returned: nil for an idempotent request,
	// which has no Op.
	Value any
	// Idem is an idempotent request's outcome (the zero IdemResult for a
	// request with an Op). It travels typed, so delivering it allocates
	// nothing.
	Idem IdemResult
	// Wait is the virtual time the request spent queued.
	Wait sim.Duration
	// Latency is virtual admission-to-completion time.
	Latency sim.Duration
}

// Config tunes the server. Zero values select the documented defaults.
type Config struct {
	// MaxQueue bounds admission-queue occupancy; a full queue sheds
	// with ErrOverloaded. 0 selects 256.
	MaxQueue int
	// ShedWatermark is the occupancy fraction of MaxQueue above which
	// PriorityLow requests are shed preemptively. 0 selects 0.75.
	ShedWatermark float64
	// OpServiceTime is the fixed virtual service cost charged per
	// executed request (network, parsing, dispatch around the store).
	// 0 selects 20 µs, matching the YCSB runner.
	OpServiceTime sim.Duration
	// WatchdogInterval is the virtual period of the stall detector.
	// 0 selects 1 ms (the manager's epoch).
	WatchdogInterval sim.Duration
	// WatchdogStrikes is how many consecutive no-progress intervals
	// (non-empty queue, no request retired) trip the emergency flush.
	// 0 selects 8.
	WatchdogStrikes int
	// DisableWatchdog turns the stall detector off.
	DisableWatchdog bool
	// Obs is the observability registry the server publishes its
	// counters, per-priority latency histograms, and request spans onto.
	// nil creates a private registry; pass the manager's (viyojit.System
	// does) so request spans parent the core's clean spans.
	Obs *obs.Registry
	// Journal is the intent journal idempotent requests run through.
	// Its store must live inside the battery-backed region so journal
	// writes are budget-accounted and survive power failure. nil
	// disables SubmitIdempotent.
	Journal *intent.Journal
	// RecoverCrash classifies a panic raised while serving, on the
	// dispatch goroutine or a Submit caller's. When it returns true (a
	// simulated power failure from faultinject.Crasher — use
	// faultinject.AsCrash), the server fails in-flight and queued
	// requests with ErrPowerFailure instead of crashing the process; the
	// panic value is re-raised otherwise. nil means every panic
	// propagates.
	RecoverCrash func(v any) bool
	// CrashPoints opens each idempotent op's durability windows to a
	// step-armed fault injector: the Begin→apply→Complete critical
	// section fires queue events only on the manager's narrow
	// in-flight-clean wait path, so a simulated power failure almost
	// always strikes between ops — rarely in the window where an intent
	// is durable but its completion is not, the exact state recovery's
	// redo phase exists to repair. When set, the server fires one no-op
	// queue event after the intent record lands and another after the
	// mutation applies, giving a crash harness two deterministic strike
	// instants per op. Off in production: the markers cost an event
	// fire each and widen nothing but the crash lattice.
	CrashPoints bool
}

func (c Config) withDefaults() Config {
	if c.MaxQueue == 0 {
		c.MaxQueue = 256
	}
	if c.ShedWatermark == 0 {
		c.ShedWatermark = 0.75
	}
	if c.OpServiceTime == 0 {
		c.OpServiceTime = 20 * sim.Microsecond
	}
	if c.WatchdogInterval == 0 {
		c.WatchdogInterval = sim.Millisecond
	}
	if c.WatchdogStrikes == 0 {
		c.WatchdogStrikes = 8
	}
	return c
}

// Stats are the server's counters. Every Submit resolves into exactly
// one of Completed, Failed, ShedOverload, ShedDeadline, ShedReadOnly,
// or Cancelled.
type Stats struct {
	// Submitted counts every Submit call with a valid Op.
	Submitted uint64
	// Completed counts ops that executed and returned nil error.
	Completed uint64
	// Failed counts ops that executed and returned a non-typed error.
	Failed uint64
	// ShedOverload / ShedDeadline / ShedReadOnly count the typed
	// rejections (at admission or at dequeue).
	ShedOverload uint64
	ShedDeadline uint64
	ShedReadOnly uint64
	// Cancelled counts requests abandoned via context before a result
	// was delivered.
	Cancelled uint64
	// StallPredicted counts the ShedDeadline subset rejected by the
	// clean-stall predictor rather than observed queue wait.
	StallPredicted uint64
	// WatchdogTrips counts emergency flushes the stall detector forced.
	WatchdogTrips uint64
	// MaxQueueObserved is the high-water mark of queue occupancy.
	MaxQueueObserved int
}

// Shed returns the total typed rejections.
func (s Stats) Shed() uint64 { return s.ShedOverload + s.ShedDeadline + s.ShedReadOnly }

type outcome struct {
	res Result
	err error
}

type item struct {
	req        Request
	enqueuedAt sim.Time
	deadline   sim.Time // 0 = none
	cancelled  atomic.Bool
	delivered  bool         // outcome sent; the stack's owner only
	done       chan outcome // buffered(1): the owner never blocks on it
	// gen counts the waits this item has been through. A waiter remembers
	// the value it was admitted under and wait advances it, so a second
	// Wait on a handle is refused instead of receiving the outcome of the
	// item's next request.
	gen atomic.Uint64
}

// itemPool recycles items, with their channel, once the waiter has
// received the outcome: the owner's send is its last touch of an item,
// so from then on the waiter is the only one holding it. An item
// abandoned through its context is never returned — the dispatcher may
// still be about to send on it — and is left to the collector.
var itemPool = sync.Pool{New: func() any { return &item{done: make(chan outcome, 1)} }}

// fifo is one bucket's queue: a ring that doubles when full and keeps its
// storage when it drains, so a closed loop's one-deep queue costs nothing.
type fifo struct {
	buf     []*item
	head, n int
}

func (f *fifo) push(it *item) {
	if f.n == len(f.buf) {
		grown := make([]*item, max(4, 2*f.n))
		k := copy(grown, f.buf[f.head:])
		copy(grown[k:], f.buf[:f.head])
		f.buf, f.head = grown, 0
	}
	f.buf[(f.head+f.n)%len(f.buf)] = it
	f.n++
}

// pop removes the oldest item; the queue must not be empty.
func (f *fifo) pop() *item {
	it := f.buf[f.head]
	f.buf[f.head] = nil
	f.head = (f.head + 1) % len(f.buf)
	f.n--
	return it
}

type waiter struct {
	target sim.Time
	ch     chan error // buffered(1): the wake never blocks
}

// waiterPool recycles waiters, with their channel, the way itemPool does
// items: only once WaitUntil has received the wake, which is the owner's
// last touch of a waiter. WaitUntil has no other way out, so
// every waiter comes back.
var waiterPool = sync.Pool{New: func() any { return &waiter{ch: make(chan error, 1)} }}

// numBuckets = 3 priorities × 2 classes; lower index pops first.
const numBuckets = 6

func bucketOf(r Request) int {
	b := int(PriorityHigh-r.Priority) * 2
	if r.Class == ClassBackground {
		b++
	}
	return b
}

// Server is the actor front-end. Construct with New, wire with Start,
// submit from any goroutine.
type Server struct {
	clock  *sim.Clock
	events *sim.Queue
	mgr    *core.Manager
	store  *kvstore.Store
	cfg    Config

	mu       sync.Mutex
	cond     *sync.Cond
	buckets  [numBuckets]fifo
	waiters  []*waiter
	started  bool
	stopping bool
	crashed  bool // a power failure killed the server
	// busy means some goroutine owns the clock, event queue, manager and
	// store: the dispatch loop, or a Submit caller serving its own
	// request. Ownership changes hands only under mu.
	busy bool

	// inflight is the item currently inside serveOne, tracked so the
	// crash-recovery path can fail it with ErrPowerFailure. Owner only.
	inflight *item

	// Mirrors published for lock-free reading by clients and watchdog.
	occupancy atomic.Int64
	pops      atomic.Uint64 // dequeues; the watchdog's progress signal
	pubNow    atomic.Int64  // sim.Time
	pubState  atomic.Int32  // core.HealthState

	// Watchdog state, touched only by the owner.
	wdEvent  *sim.Event
	wdFn     func(sim.Time) // s.watchdogTick, bound once
	wdStrike int
	wdLast   uint64
	wdDead   atomic.Bool // stops rescheduling after Stop
	wdTrip   atomic.Bool // trip requested; executed at the next request boundary

	loopDone chan struct{}

	// st holds the registry-backed atomic counters, gauges, and
	// per-priority latency histograms; tr records request spans.
	st *instruments
	tr *obs.Tracer
}

// instruments is the server's registry-backed metric storage. Counters
// the Stats struct used to hold as raw atomics now live on obs
// instruments, so the same numbers show up in Stats() and in a registry
// Snapshot/export without double bookkeeping.
type instruments struct {
	submitted      *obs.Counter
	completed      *obs.Counter
	failed         *obs.Counter
	shedOverload   *obs.Counter
	shedDeadline   *obs.Counter
	shedReadOnly   *obs.Counter
	cancelled      *obs.Counter
	stallPredicted *obs.Counter
	watchdogTrips  *obs.Counter
	powerFailures  *obs.Counter
	idemDedup      *obs.Counter
	idemRedo       *obs.Counter

	queueDepth *obs.Gauge
	queueMax   *obs.Gauge

	queueWait *obs.Histogram
	// latency is indexed by Priority: admission-to-completion time of
	// completed requests, per priority class.
	latency [int(PriorityHigh) + 1]*obs.Histogram
}

func newInstruments(r *obs.Registry) *instruments {
	return &instruments{
		submitted:      r.Counter("serve_submitted_total"),
		completed:      r.Counter("serve_completed_total"),
		failed:         r.Counter("serve_failed_total"),
		shedOverload:   r.Counter("serve_shed_overload_total"),
		shedDeadline:   r.Counter("serve_shed_deadline_total"),
		shedReadOnly:   r.Counter("serve_shed_readonly_total"),
		cancelled:      r.Counter("serve_cancelled_total"),
		stallPredicted: r.Counter("serve_stall_predicted_total"),
		watchdogTrips:  r.Counter("serve_watchdog_trips_total"),
		powerFailures:  r.Counter("serve_power_failures_total"),
		idemDedup:      r.Counter("serve_idem_dedup_total"),
		idemRedo:       r.Counter("serve_idem_redo_total"),
		queueDepth:     r.Gauge("serve_queue_depth"),
		queueMax:       r.Gauge("serve_queue_max"),
		queueWait:      r.Histogram("serve_queue_wait_ns"),
		latency: [int(PriorityHigh) + 1]*obs.Histogram{
			PriorityLow:    r.Histogram("serve_latency_low_ns"),
			PriorityNormal: r.Histogram("serve_latency_normal_ns"),
			PriorityHigh:   r.Histogram("serve_latency_high_ns"),
		},
	}
}

// New builds a server over an assembled stack. store may be nil when
// ops only need the manager. The server takes ownership of the clock
// and event queue once Start is called: no goroutine outside it may
// pump, advance time, or touch the manager until Stop returns.
func New(clock *sim.Clock, events *sim.Queue, mgr *core.Manager, store *kvstore.Store, cfg Config) (*Server, error) {
	if clock == nil || events == nil || mgr == nil {
		return nil, fmt.Errorf("serve: clock, events, and manager are required")
	}
	cfg = cfg.withDefaults()
	if cfg.MaxQueue < 1 {
		return nil, fmt.Errorf("serve: MaxQueue %d must be positive", cfg.MaxQueue)
	}
	if cfg.ShedWatermark <= 0 || cfg.ShedWatermark > 1 {
		return nil, fmt.Errorf("serve: ShedWatermark %v outside (0,1]", cfg.ShedWatermark)
	}
	reg := cfg.Obs
	if reg == nil {
		reg = obs.NewRegistry()
	}
	s := &Server{
		clock:    clock,
		events:   events,
		mgr:      mgr,
		store:    store,
		cfg:      cfg,
		loopDone: make(chan struct{}),
		st:       newInstruments(reg),
		tr:       reg.Tracer(),
	}
	s.cond = sync.NewCond(&s.mu)
	return s, nil
}

// Config returns the effective configuration (defaults applied).
func (s *Server) Config() Config { return s.cfg }

// Start launches the dispatch goroutine and the watchdog. It errors if
// called twice.
func (s *Server) Start() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.started {
		return fmt.Errorf("serve: already started")
	}
	// Wired under mu: a Submit that sees started may serve at once.
	s.publish()
	if !s.cfg.DisableWatchdog {
		s.wdLast = s.pops.Load()
		s.wdFn = s.watchdogTick
		s.wdEvent = s.events.Schedule(s.clock.Now().Add(s.cfg.WatchdogInterval), s.wdFn)
	}
	s.started = true
	go s.loop()
	return nil
}

// Stop shuts the server down: queued requests are rejected with
// ErrClosed, waiters wake with ErrClosed, and the dispatch goroutine
// exits once no Submit caller owns the stack. Stop blocks until the
// loop is gone and is idempotent.
func (s *Server) Stop() {
	s.mu.Lock()
	if !s.started {
		s.started, s.stopping = true, true // never started: nothing to join
		s.mu.Unlock()
		close(s.loopDone)
		return
	}
	if s.stopping {
		s.mu.Unlock()
		<-s.loopDone
		return
	}
	s.stopping = true
	s.cond.Broadcast()
	s.mu.Unlock()
	<-s.loopDone
	// The dispatch goroutine is gone; this goroutine is now the sole
	// owner of the event queue, so cancelling the watchdog is safe.
	s.wdDead.Store(true)
	if s.wdEvent != nil {
		s.events.Cancel(s.wdEvent)
	}
}

// Now returns the published virtual time — safe from any goroutine,
// possibly a beat behind the owner's live clock.
func (s *Server) Now() sim.Time { return sim.Time(s.pubNow.Load()) }

// HealthState returns the published degradation-ladder rung.
func (s *Server) HealthState() core.HealthState { return core.HealthState(s.pubState.Load()) }

// QueueLen returns current admission-queue occupancy.
func (s *Server) QueueLen() int { return int(s.occupancy.Load()) }

// Stats returns a snapshot of the counters. Safe from any goroutine:
// every field is an atomic load off the registry instruments.
func (s *Server) Stats() Stats {
	return Stats{
		Submitted:        s.st.submitted.Value(),
		Completed:        s.st.completed.Value(),
		Failed:           s.st.failed.Value(),
		ShedOverload:     s.st.shedOverload.Value(),
		ShedDeadline:     s.st.shedDeadline.Value(),
		ShedReadOnly:     s.st.shedReadOnly.Value(),
		Cancelled:        s.st.cancelled.Value(),
		StallPredicted:   s.st.stallPredicted.Value(),
		WatchdogTrips:    s.st.watchdogTrips.Value(),
		MaxQueueObserved: int(s.st.queueMax.Value()),
	}
}

// Submit admits req and blocks until it completes, is shed, or ctx is
// done. Rejections are typed: match with errors.Is against
// ErrOverloaded, ErrDeadlineExceeded, ErrReadOnly, ErrClosed.
//
// A Submit that finds the server started, nothing queued and no
// goroutine owning the stack serves req itself, on the calling
// goroutine, through the same step as the dispatcher: the same policy,
// the same accounting (it counts as one push and one pop of an empty
// queue) and the same virtual timeline. A request executing on its
// caller runs to completion; ctx can abandon only a request still
// queued.
func (s *Server) Submit(ctx context.Context, req Request) (Result, error) {
	it, direct, err := s.admit(req, true)
	if err != nil {
		return Result{}, err
	}
	if direct {
		s.step(it, 0)
		s.releaseLocked()
		s.mu.Unlock()
		ctx = context.Background() // it has run; its outcome is waiting in it.done
	}
	return s.wait(ctx, it, it.gen.Load())
}

// Handle is an in-flight request admitted by SubmitAsync.
type Handle struct {
	s   *Server
	it  *item
	gen uint64 // it.gen at admission
}

// Wait blocks until the request completes, is shed at dequeue, or ctx is
// done. It must be called exactly once; a later call returns
// ErrHandleSpent.
func (h *Handle) Wait(ctx context.Context) (Result, error) {
	return h.s.wait(ctx, h.it, h.gen)
}

func (s *Server) wait(ctx context.Context, it *item, gen uint64) (Result, error) {
	if !it.gen.CompareAndSwap(gen, gen+1) {
		return Result{}, ErrHandleSpent
	}
	var out outcome
	if cancel := ctx.Done(); cancel == nil {
		out = <-it.done
	} else {
		select {
		case out = <-it.done:
		case <-cancel:
			it.cancelled.Store(true)
			s.st.cancelled.Inc()
			return Result{}, ctx.Err()
		}
	}
	it.req = Request{} // drop the closure and keys the pool would pin
	itemPool.Put(it)
	return out.res, out.err
}

// SubmitAsync runs admission control synchronously on the calling
// goroutine — every admission rejection (queue full, watermark, ladder)
// returns here, typed — and enqueues the request without waiting for it
// to execute. Open-loop load generators need this split: the pacing
// goroutine must have the arrival *enqueued* before it sleeps again,
// or an idle dispatch loop advances virtual time past the next arrival
// while the submission is still in flight on some other goroutine.
func (s *Server) SubmitAsync(req Request) (*Handle, error) {
	it, _, err := s.admit(req, false)
	if err != nil {
		return nil, err
	}
	return &Handle{s: s, it: it, gen: it.gen.Load()}, nil
}

// admit runs admission control and enqueues the request — unless run is
// set and the server is idle, in which case it makes the caller the
// owner instead and returns direct: the caller must step the item, then
// release ownership.
func (s *Server) admit(req Request, run bool) (it *item, direct bool, err error) {
	if req.Op == nil && req.Idem == nil {
		return nil, false, fmt.Errorf("serve: request has no Op")
	}
	if req.Idem != nil {
		if req.Op != nil {
			return nil, false, fmt.Errorf("serve: request has both Op and Idem")
		}
		if req.ClientID == 0 || req.RequestSeq == 0 {
			return nil, false, fmt.Errorf("serve: idempotent request needs non-zero ClientID and RequestSeq")
		}
		if !req.Write {
			return nil, false, fmt.Errorf("serve: idempotent requests are writes; set Write")
		}
		if s.cfg.Journal == nil {
			return nil, false, fmt.Errorf("serve: idempotent request but server has no intent journal")
		}
	}
	if req.Priority > PriorityHigh {
		return nil, false, fmt.Errorf("serve: invalid priority %d", req.Priority)
	}
	s.st.submitted.Inc()
	now := sim.Time(s.pubNow.Load())
	state := core.HealthState(s.pubState.Load())

	s.mu.Lock()
	if s.crashed {
		s.mu.Unlock()
		return nil, false, fmt.Errorf("%w: server lost power", ErrPowerFailure)
	}
	if s.stopping {
		s.mu.Unlock()
		return nil, false, ErrServerClosed
	}
	occ := int(s.occupancy.Load())
	if occ >= s.cfg.MaxQueue {
		s.mu.Unlock()
		s.st.shedOverload.Inc()
		return nil, false, fmt.Errorf("%w: queue full (%d)", ErrOverloaded, s.cfg.MaxQueue)
	}
	if req.Priority == PriorityLow && float64(occ) >= s.cfg.ShedWatermark*float64(s.cfg.MaxQueue) {
		s.mu.Unlock()
		s.st.shedOverload.Inc()
		return nil, false, fmt.Errorf("%w: low-priority shed at watermark", ErrOverloaded)
	}
	if req.Write && req.Class == ClassClient {
		switch {
		case state >= core.StateEmergencyFlush:
			s.mu.Unlock()
			s.st.shedReadOnly.Inc()
			return nil, false, fmt.Errorf("%w: ladder at %v", ErrReadOnly, state)
		case state == core.StateDegraded && req.Priority == PriorityLow:
			s.mu.Unlock()
			s.st.shedOverload.Inc()
			return nil, false, fmt.Errorf("%w: low-priority write shed while %v", ErrOverloaded, state)
		}
	}
	it = itemPool.Get().(*item)
	it.req, it.enqueuedAt, it.deadline, it.delivered = req, now, 0, false
	if req.Timeout > 0 {
		it.deadline = now.Add(req.Timeout)
	}
	if run && s.started && !s.busy && occ == 0 {
		// The books read as a push onto the empty queue and its pop: depth
		// 1 at the high-water mark, one pop for the watchdog, and the depth
		// gauge back at the 0 it already reads.
		s.busy = true
		s.st.queueMax.SetMax(1)
		s.pops.Add(1)
		s.mu.Unlock()
		return it, true, nil
	}
	s.buckets[bucketOf(req)].push(it)
	n := s.occupancy.Add(1)
	s.st.queueDepth.Set(n)
	s.st.queueMax.SetMax(n)
	s.cond.Signal()
	s.mu.Unlock()
	return it, false, nil
}

// WaitUntil blocks the calling goroutine until virtual time reaches t —
// the open-loop pacing primitive. When the dispatch loop is idle it
// advances the clock to the earliest waiter's target, so sleeping
// clients are what moves virtual time forward on an unloaded system.
func (s *Server) WaitUntil(t sim.Time) error {
	if sim.Time(s.pubNow.Load()) >= t {
		return nil
	}
	s.mu.Lock()
	if s.crashed {
		s.mu.Unlock()
		return fmt.Errorf("%w: server lost power", ErrPowerFailure)
	}
	if s.stopping {
		s.mu.Unlock()
		return ErrServerClosed
	}
	if sim.Time(s.pubNow.Load()) >= t {
		s.mu.Unlock()
		return nil
	}
	w := waiterPool.Get().(*waiter)
	w.target = t
	s.waiters = append(s.waiters, w)
	s.cond.Signal()
	s.mu.Unlock()
	err := <-w.ch
	waiterPool.Put(w)
	return err
}

// loop is the dispatch goroutine. It takes ownership of the stack when it
// finds queued work or a pacing waiter and keeps it across back-to-back
// items, handing it back only when it runs out of both; while a Submit
// caller owns the stack it sleeps. It exits on Stop or a power failure,
// never while another goroutine owns the stack.
func (s *Server) loop() {
	defer close(s.loopDone)
	own := false // this goroutine holds s.busy
	s.mu.Lock()
	for {
		if s.busy && !own {
			s.cond.Wait() // the caller's release wakes us
			continue
		}
		if s.stopping {
			s.busy = false
			s.failAllLocked(ErrServerClosed, ErrServerClosed)
			s.mu.Unlock()
			return
		}
		it := s.popLocked()
		var t sim.Time
		if it == nil {
			var ok bool
			if t, ok = s.earliestWaiterLocked(); !ok {
				s.busy, own = false, false
				s.cond.Wait()
				continue
			}
		}
		s.busy, own = true, true
		s.mu.Unlock()
		s.step(it, t)
	}
}

// step is one unit of dispatch work on the goroutine that owns the
// stack: serve it, or with it nil advance idle time to t; then run a
// watchdog trip requested meanwhile, and wake every waiter the work
// passed. It returns with s.mu held.
//
// Power-failure containment: a faultinject crash panic can surface from
// any event pump — inside serveOne, inside an idle advance, even inside
// the manager's cleaning machinery. Config.RecoverCrash decides whether
// the panic is a simulated power failure; if so the server dies cleanly
// (clients get ErrPowerFailure, Stop still joins) instead of taking the
// process down. Any other panic stops the server, so that Stop still
// joins if the owner's caller recovers it, and propagates.
func (s *Server) step(it *item, t sim.Time) {
	defer func() {
		r := recover()
		if r == nil {
			return
		}
		if s.cfg.RecoverCrash != nil && s.cfg.RecoverCrash(r) {
			s.noteCrash()
			s.mu.Lock()
			return
		}
		s.mu.Lock()
		s.stopping = true
		s.releaseLocked()
		s.mu.Unlock()
		panic(r)
	}()
	if it != nil {
		s.inflight = it
		s.serveOne(it)
		s.inflight = nil
	} else {
		s.advanceTo(t)
	}
	// A watchdog trip requested mid-op runs here, at a request boundary,
	// where the manager is quiescent.
	s.maybeTrip()
	s.mu.Lock()
	s.wakeWaitersLocked(nil)
}

// releaseLocked hands the stack back from a Submit caller, waking the
// loop if work arrived meanwhile or Stop is waiting on the owner.
func (s *Server) releaseLocked() {
	s.busy = false
	if s.occupancy.Load() > 0 || len(s.waiters) > 0 || s.stopping {
		s.cond.Signal()
	}
}

func (s *Server) popLocked() *item {
	for b := range s.buckets {
		if s.buckets[b].n == 0 {
			continue
		}
		s.st.queueDepth.Set(s.occupancy.Add(-1))
		s.pops.Add(1)
		return s.buckets[b].pop()
	}
	return nil
}

func (s *Server) earliestWaiterLocked() (sim.Time, bool) {
	var best sim.Time
	found := false
	for _, w := range s.waiters {
		if !found || w.target < best {
			best, found = w.target, true
		}
	}
	return best, found
}

// wakeWaitersLocked releases every waiter whose target has been reached
// (or all of them with err non-nil, at shutdown).
func (s *Server) wakeWaitersLocked(err error) {
	now := sim.Time(s.pubNow.Load())
	kept := s.waiters[:0]
	for _, w := range s.waiters {
		if err != nil {
			w.ch <- err
		} else if w.target <= now {
			w.ch <- nil
		} else {
			kept = append(kept, w)
			continue
		}
	}
	for i := len(kept); i < len(s.waiters); i++ {
		s.waiters[i] = nil
	}
	s.waiters = kept
}

// deliver sends an item's outcome exactly once. The channel is
// buffered(1) so the send never blocks, but a crash-recovery path that
// re-failed an already-answered item would: the delivered flag (owner
// only) makes delivery idempotent.
func (s *Server) deliver(it *item, out outcome) {
	if it.delivered {
		return
	}
	it.delivered = true
	if it.cancelled.Load() {
		return // client already gone
	}
	it.done <- out
}

// failAllLocked rejects everything still queued with queued and wakes all
// waiters with woken — the shutdown and power-failure path.
func (s *Server) failAllLocked(queued, woken error) {
	for b := range s.buckets {
		for s.buckets[b].n > 0 {
			s.deliver(s.buckets[b].pop(), outcome{err: queued})
			s.st.queueDepth.Set(s.occupancy.Add(-1))
		}
	}
	s.wakeWaitersLocked(woken)
}

// noteCrash is the power-failure epilogue, run by the owner the failure
// struck: every request the server ever acknowledged is already
// journaled; everything still in the building gets ErrPowerFailure so
// clients know to retry against the recovered system.
func (s *Server) noteCrash() {
	s.wdDead.Store(true)
	s.st.powerFailures.Inc()
	s.mu.Lock()
	s.crashed = true
	s.stopping = true
	if it := s.inflight; it != nil {
		s.deliver(it, outcome{err: fmt.Errorf("%w: failed mid-request", ErrPowerFailure)})
		s.inflight = nil
	}
	s.failAllLocked(fmt.Errorf("%w: queued at failure", ErrPowerFailure),
		fmt.Errorf("%w: server lost power", ErrPowerFailure))
	s.mu.Unlock()
}

// PowerFailed reports whether a simulated power failure killed the
// server (see Config.RecoverCrash).
func (s *Server) PowerFailed() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.crashed
}

// publish refreshes the atomic mirrors clients read.
func (s *Server) publish() {
	s.pubNow.Store(int64(s.clock.Now()))
	s.pubState.Store(int32(s.mgr.HealthState()))
}

// pump delivers pending background events (epoch ticks, IO completions,
// health-monitor ticks, the watchdog) and republishes.
func (s *Server) pump() {
	s.events.RunUntil(s.clock, s.clock.Now())
	s.publish()
}

// advanceTo moves virtual time to t, firing everything due on the way —
// "the system is idle until the next client arrival".
func (s *Server) advanceTo(t sim.Time) {
	s.events.RunUntil(s.clock, t)
	s.publish()
}

// crashPoint fires one no-op queue event at the current instant when
// Config.CrashPoints is set: a strike point for a step-armed fault
// injector inside an idempotent op's durability window (see the Config
// field). A crash panic raised here unwinds to step's containment,
// leaving the journaled intent durably in flight.
func (s *Server) crashPoint() {
	if !s.cfg.CrashPoints {
		return
	}
	s.events.Schedule(s.clock.Now(), func(sim.Time) {})
	s.events.RunUntil(s.clock, s.clock.Now())
}

// stallEstimate predicts the synchronous clean time a write admitted
// right now would pay: with the dirty set at (or drained below) the
// effective budget, the fault handler cleans one victim per admission,
// so the stall is at least one page's SSD write; during a budget drain
// it is the full excess.
func (s *Server) stallEstimate() sim.Duration {
	excess := s.mgr.DirtyCount() - s.mgr.EffectiveDirtyBudget() + 1
	if excess <= 0 {
		return 0
	}
	dev := s.mgr.SSD()
	bw := dev.MeasuredWriteBandwidth()
	if bw <= 0 {
		bw = dev.EffectiveWriteBandwidth()
	}
	if bw <= 0 {
		bw = 1
	}
	cfg := dev.Config()
	perPage := cfg.PerIOLatency + sim.Duration(int64(cfg.PageSize)*int64(sim.Second)/bw)
	return sim.Duration(excess) * perPage
}

// serveOne applies the dequeue-time policy and executes the op. The
// request span covers admission to completion; cleans the op triggers
// inside the manager nest under it via the tracer scope.
func (s *Server) serveOne(it *item) {
	if it.cancelled.Load() {
		return // client already gone; drop silently
	}
	now := s.clock.Now()
	sp := s.tr.Begin("serve.request", it.enqueuedAt)
	if it.deadline != 0 && now > it.deadline {
		s.st.shedDeadline.Inc()
		s.tr.Finish(sp, now, "shed_deadline")
		s.deliver(it, outcome{err: fmt.Errorf("%w: queued %v past deadline", ErrDeadlineExceeded, now.Sub(it.deadline))})
		return
	}
	if it.req.Write && it.req.Class == ClassClient {
		// Re-check the ladder with the live state: it may have
		// escalated while the request was queued.
		if s.mgr.WritesBlocked() {
			s.st.shedReadOnly.Inc()
			s.tr.Finish(sp, now, "shed_readonly")
			s.deliver(it, outcome{err: fmt.Errorf("%w: ladder at %v", ErrReadOnly, s.mgr.HealthState())})
			return
		}
		if s.mgr.HealthState() == core.StateDegraded && it.req.Priority == PriorityLow {
			s.st.shedOverload.Inc()
			s.tr.Finish(sp, now, "shed_overload")
			s.deliver(it, outcome{err: fmt.Errorf("%w: low-priority write shed while Degraded", ErrOverloaded)})
			return
		}
		if it.deadline != 0 {
			if stall := s.stallEstimate(); stall > 0 && now.Add(stall+s.cfg.OpServiceTime) > it.deadline {
				s.st.shedDeadline.Inc()
				s.st.stallPredicted.Inc()
				s.tr.Finish(sp, now, "shed_stall_predicted")
				s.deliver(it, outcome{err: fmt.Errorf("%w: predicted clean-stall %v misses deadline", ErrDeadlineExceeded, stall)})
				return
			}
		}
	}
	wait := now.Sub(it.enqueuedAt)
	if wait < 0 {
		wait = 0
	}
	s.st.queueWait.Record(wait)
	prevScope := s.tr.SetScope(sp.ID)
	s.clock.Advance(s.cfg.OpServiceTime)
	ex := Exec{Store: s.store, Mgr: s.mgr, Now: s.clock.Now()}
	var val any
	var idem IdemResult
	var err error
	if it.req.Idem != nil {
		idem, err = s.execIdem(ex, it.req)
	} else {
		val, err = it.req.Op(ex)
	}
	s.pump()
	s.tr.SetScope(prevScope)
	if err != nil {
		// A write racing a ladder escalation surfaces mmu.ErrProtected
		// from deep inside the store; give the client the typed error.
		if errors.Is(err, mmu.ErrProtected) {
			err = errors.Join(ErrReadOnly, err)
			s.st.shedReadOnly.Inc()
			s.tr.Finish(sp, s.clock.Now(), "shed_readonly")
		} else {
			s.st.failed.Inc()
			s.tr.Finish(sp, s.clock.Now(), "failed")
		}
		s.deliver(it, outcome{err: err})
		return
	}
	s.st.completed.Inc()
	lat := s.clock.Now().Sub(it.enqueuedAt)
	if lat < 0 {
		lat = 0
	}
	s.st.latency[it.req.Priority].Record(lat)
	s.tr.Finish(sp, s.clock.Now(), "ok")
	s.deliver(it, outcome{res: Result{Value: val, Idem: idem, Wait: wait, Latency: lat}})
}

// watchdogTick runs as a virtual-time event on the owning goroutine
// (events are only ever pumped there), so it fires even while the owner
// is "stuck" inside a virtually-blocking clean — exactly the stall it
// exists to catch: a non-empty queue across WatchdogStrikes intervals
// with no request retired.
func (s *Server) watchdogTick(now sim.Time) {
	if s.wdDead.Load() {
		return
	}
	pops := s.pops.Load()
	if s.occupancy.Load() > 0 && pops == s.wdLast {
		s.wdStrike++
		if s.wdStrike == s.cfg.WatchdogStrikes {
			// Request the trip; the owner executes it at the next
			// request boundary. The tick itself may be firing from a Step
			// nested deep inside the manager's own cleaning machinery
			// (e.g. an SSD submit stall), where re-entering the manager
			// with EnterEmergencyFlush would corrupt its in-flight
			// accounting — so the handler only ever sets a flag.
			s.wdTrip.Store(true)
		}
	} else {
		s.wdStrike = 0
	}
	s.wdLast = pops
	s.events.Rearm(s.wdEvent, now.Add(s.cfg.WatchdogInterval), s.wdFn)
}

// maybeTrip executes a watchdog-requested ladder trip. It runs on the
// owning goroutine between requests — the only point where calling
// into the manager's drain machinery is safe. Blocking writes and
// force-draining the dirty set frees the capacity the stalled queue was
// waiting on; if even the bounded emergency drain cannot empty the set,
// the ladder escalates to ReadOnly.
func (s *Server) maybeTrip() {
	if !s.wdTrip.Swap(false) {
		return
	}
	s.st.watchdogTrips.Inc()
	if remaining := s.mgr.EnterEmergencyFlush(); remaining > 0 {
		s.mgr.EnterReadOnly()
	}
	s.publish()
}

// Tripped reports whether the watchdog has ever forced an emergency
// flush.
func (s *Server) Tripped() bool { return s.st.watchdogTrips.Value() > 0 }

// ManagerStats reads the manager's counters as a request, on whichever
// goroutine owns the stack (the dispatcher, or this caller when the
// server is idle) — the race-free way for a concurrent observer to
// sample them while the server owns the core.
func (s *Server) ManagerStats(ctx context.Context) (core.Stats, error) {
	res, err := s.Submit(ctx, Request{
		Class:    ClassBackground,
		Priority: PriorityHigh,
		Op:       func(e Exec) (any, error) { return e.Mgr.Stats(), nil },
	})
	if err != nil {
		return core.Stats{}, err
	}
	return res.Value.(core.Stats), nil
}

// ManagerSamples reads the dirty-footprint sample ring as a request on
// the stack's owner (see ManagerStats).
func (s *Server) ManagerSamples(ctx context.Context) ([]core.Sample, error) {
	res, err := s.Submit(ctx, Request{
		Class:    ClassBackground,
		Priority: PriorityHigh,
		Op:       func(e Exec) (any, error) { return e.Mgr.Samples(), nil },
	})
	if err != nil {
		return nil, err
	}
	return res.Value.([]core.Sample), nil
}
