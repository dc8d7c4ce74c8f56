// Package serve is the concurrent request front-end for the Viyojit
// core. Everything below it — sim.Clock, sim.Queue, core.Manager,
// kvstore.Store — is single-goroutine by design, so this package is an
// actor with one owner at a time, and the owner is always a client
// blocked on the server: it starts no goroutine. Many client goroutines
// submit into a bounded admission queue; whoever blocks serves it, the
// way the paper's faulting Redis thread runs Viyojit's handler in-line
// (§5.1). Every owner runs the same step, so a request's execution does
// not depend on which goroutine runs it; when an open-loop arrival is
// admitted still can (see WaitUntil).
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
//   - A watchdog scheduled in virtual time detects an owner that pumps
//     events without retiring requests (a clean-retry storm against a
//     failing SSD) and trips the ladder's emergency flush.
//
// Clients never touch the clock or the manager directly: the server
// publishes virtual now and the health state through atomics, and
// WaitUntil lets an open-loop client pace its arrivals in virtual time.
package serve

import (
	"context"
	"errors"
	"fmt"
	"slices"
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
	// Op runs on the goroutine that owns the stack: whichever blocked
	// Submit, Handle.Wait or WaitUntil caller serves it. Its return value
	// is delivered through Result.Value.
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
	// RecoverCrash classifies a panic raised while serving, on whichever
	// caller's goroutine owns the stack. When it returns true (a
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
	return c
}

// ServiceTime is the fixed virtual cost charged per executed request
// (network, parsing, dispatch around the store). The YCSB runner charges
// it per operation too; it puts baseline throughput in the paper's
// tens-of-K-ops/s range.
const ServiceTime = 20 * sim.Microsecond

const (
	// shedWatermark is the occupancy fraction of MaxQueue at which
	// PriorityLow requests are shed preemptively.
	shedWatermark = 0.75
	// watchdogInterval is the virtual period of the stall detector (the
	// manager's epoch).
	watchdogInterval = sim.Millisecond
	// watchdogStrikes consecutive no-progress intervals (non-empty queue,
	// no request retired) trip the emergency flush.
	watchdogStrikes = 8
)

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

// handleBlock is how many handles SubmitAsync carves from one allocation:
// 74 of 24 B, with the runtime's 8-byte header for a pointer-holding
// object over 512 B, fill 1 784 of the 1 792 B size class, so a handle
// costs what a separately allocated one did.
const handleBlock = 74

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
	buckets  [numBuckets]fifo
	started  bool
	stopping bool
	crashed  bool // a power failure killed the server
	// busy means some caller owns the clock, event queue, manager and
	// store. held: a WaitUntil returned and nothing was admitted since, so
	// no Submit or Handle.Wait caller may move the clock. pacers are the
	// targets of the WaitUntil calls in progress.
	busy, held bool
	pacers     []sim.Time
	// A blocked WaitUntil (or Stop) waits on cond; a blocked Submit or
	// Handle.Wait, which a context may abandon, selects on turn
	// (buffered(1)) beside its item. parked counts the latter.
	cond   sync.Cond // L is &mu
	turn   chan struct{}
	parked int
	// free holds answered items, with their channels, for admit to reuse.
	// An item goes back only once its waiter has received the outcome: the
	// owner's send is its last touch, so the waiter is then its only
	// holder. One abandoned through its context never comes back, since
	// whoever owns the stack may still be about to send on it.
	free []*item
	// handles is the unused tail of the block SubmitAsync carves handles
	// from. A handle is never reused, so its gen never changes.
	handles []Handle

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

	// st holds the registry-backed atomic counters, gauges, and
	// per-priority latency histograms; tr records request spans.
	st instruments
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

func newInstruments(r *obs.Registry) instruments {
	return instruments{
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
	reg := cfg.Obs
	if reg == nil {
		reg = obs.NewRegistry()
	}
	s := &Server{
		clock:  clock,
		events: events,
		mgr:    mgr,
		store:  store,
		cfg:    cfg,
		turn:   make(chan struct{}, 1),
		st:     newInstruments(reg),
		tr:     reg.Tracer(),
	}
	s.cond.L = &s.mu
	return s, nil
}

// Config returns the effective configuration (defaults applied).
func (s *Server) Config() Config { return s.cfg }

// Start wires the server up and schedules the watchdog; from then on
// blocked callers serve requests. It errors if called twice.
func (s *Server) Start() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.started {
		return fmt.Errorf("serve: already started")
	}
	// Wired under mu: a Submit that sees started may serve at once.
	s.publish()
	s.wdLast = s.pops.Load()
	s.wdFn = s.watchdogTick
	s.wdEvent = s.events.Schedule(s.clock.Now().Add(watchdogInterval), s.wdFn)
	s.started = true
	s.wakeLocked() // callers that came before Start
	return nil
}

// Stop shuts the server down: queued requests are rejected with
// ErrClosed and blocked WaitUntil callers wake with it. Stop waits for a
// caller serving a request to finish it, so that once it returns nothing
// touches the stack; it is idempotent.
func (s *Server) Stop() {
	s.mu.Lock()
	defer s.mu.Unlock()
	first := !s.stopping
	s.started, s.stopping, s.held = true, true, false // a later Start errors
	s.wakeLocked()
	for s.busy {
		s.cond.Wait()
	}
	if first { // nobody owns the stack or can take it again
		s.wdDead.Store(true)
		s.events.Cancel(s.wdEvent)
	}
}

// Now returns the published virtual time — safe from any goroutine,
// possibly a beat behind the owner's live clock.
func (s *Server) Now() sim.Time { return sim.Time(s.pubNow.Load()) }

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
// ErrOverloaded, ErrDeadlineExceeded, ErrReadOnly, ErrClosed. On an idle
// server req runs at once on the calling goroutine, booked as one push
// and one pop of an empty queue; otherwise Submit waits as Handle.Wait
// does. ctx can abandon only a request still queued.
func (s *Server) Submit(ctx context.Context, req Request) (Result, error) {
	s.mu.Lock()
	it, direct, err := s.admitLocked(req, true)
	s.mu.Unlock()
	if err != nil {
		return Result{}, err
	}
	if !direct {
		return s.wait(ctx, it, it.gen.Load())
	}
	s.step(it, 0)
	out := <-it.done
	s.recycleLocked(it)
	s.releaseLocked()
	s.mu.Unlock()
	return out.res, out.err
}

// Handle is an in-flight request admitted by SubmitAsync.
type Handle struct {
	s   *Server
	it  *item
	gen uint64 // it.gen at admission
}

// Wait blocks until the request completes, is shed at dequeue, or ctx is
// done. It must be called exactly once; a later call returns
// ErrHandleSpent. While it waits it serves: whenever the stack is free it
// takes it and pops in queue order until its own request is answered —
// except while WaitUntil holds the clock (see WaitUntil), when it only
// waits.
func (h *Handle) Wait(ctx context.Context) (Result, error) {
	return h.s.wait(ctx, h.it, h.gen)
}

func (s *Server) wait(ctx context.Context, it *item, gen uint64) (Result, error) {
	if !it.gen.CompareAndSwap(gen, gen+1) {
		return Result{}, ErrHandleSpent
	}
	var out outcome
	got, gone := false, false
	own, woke := false, false // holds s.busy; took a wake from turn
	s.mu.Lock()
	for !got && !gone {
		select {
		case out = <-it.done:
			got = true
		case <-ctx.Done():
			gone = true
		default:
			if (own || s.started && !s.busy) && !s.stopping && !s.held && !s.paceDueLocked() &&
				s.occupancy.Load() > 0 {
				s.busy, own = true, true
				next := s.popLocked()
				s.mu.Unlock()
				s.step(next, 0)
				continue
			}
			if own {
				s.releaseLocked()
				own = false
			}
			s.parked++
			s.mu.Unlock()
			select {
			case out = <-it.done:
				got = true
			case <-ctx.Done():
				gone = true
			case <-s.turn:
				woke = true
			}
			s.mu.Lock()
			s.parked--
		}
	}
	if own {
		s.releaseLocked()
	} else if woke {
		s.wakeLocked() // pass on a wake someone else may need
	}
	if got {
		s.recycleLocked(it)
	}
	s.mu.Unlock()
	if gone {
		it.cancelled.Store(true)
		s.st.cancelled.Inc()
		return Result{}, ctx.Err()
	}
	return out.res, out.err
}

// recycleLocked puts an answered item on the free list.
func (s *Server) recycleLocked(it *item) {
	it.req = Request{} // drop the closure and keys the list would pin
	s.free = append(s.free, it)
}

// SubmitAsync runs admission control synchronously on the calling
// goroutine — every admission rejection (queue full, watermark, ladder)
// returns here, typed — and enqueues the request without waiting for it
// to execute. Open-loop load generators need this split: the pacing
// goroutine must have the arrival *enqueued* before it sleeps again, or
// its next WaitUntil advances virtual time past the arrival while the
// submission is still in flight on some other goroutine. Like every
// admission, accepted or not, it releases a clock held by WaitUntil.
func (s *Server) SubmitAsync(req Request) (*Handle, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	it, _, err := s.admitLocked(req, false)
	if err != nil {
		return nil, err
	}
	if len(s.handles) == 0 {
		s.handles = make([]Handle, handleBlock)
	}
	h := &s.handles[0]
	s.handles = s.handles[1:]
	*h = Handle{s: s, it: it, gen: it.gen.Load()}
	return h, nil
}

// admitLocked runs admission control and enqueues the request — unless
// run is set and the server is idle: then it makes the caller the owner
// instead and returns direct, and the caller must step the item, then
// release. The caller holds s.mu.
func (s *Server) admitLocked(req Request, run bool) (it *item, direct bool, err error) {
	if s.held {
		s.held = false
		defer s.wakeLocked() // once the request is queued, or refused
	}
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
	if err := s.closedLocked(); err != nil {
		return nil, false, err
	}
	now := sim.Time(s.pubNow.Load())
	state := core.HealthState(s.pubState.Load())
	occ := int(s.occupancy.Load())
	if occ >= s.cfg.MaxQueue {
		s.st.shedOverload.Inc()
		return nil, false, fmt.Errorf("%w: queue full (%d)", ErrOverloaded, s.cfg.MaxQueue)
	}
	if req.Priority == PriorityLow && float64(occ) >= shedWatermark*float64(s.cfg.MaxQueue) {
		s.st.shedOverload.Inc()
		return nil, false, fmt.Errorf("%w: low-priority shed at watermark", ErrOverloaded)
	}
	if req.Write && req.Class == ClassClient {
		switch {
		case state >= core.StateEmergencyFlush:
			s.st.shedReadOnly.Inc()
			return nil, false, fmt.Errorf("%w: ladder at %v", ErrReadOnly, state)
		case state == core.StateDegraded && req.Priority == PriorityLow:
			s.st.shedOverload.Inc()
			return nil, false, fmt.Errorf("%w: low-priority write shed while %v", ErrOverloaded, state)
		}
	}
	if n := len(s.free); n > 0 {
		it, s.free = s.free[n-1], s.free[:n-1]
	} else {
		it = &item{done: make(chan outcome, 1)}
	}
	it.req, it.enqueuedAt, it.deadline, it.delivered = req, now, 0, false
	if req.Timeout > 0 {
		it.deadline = now.Add(req.Timeout)
	}
	if run && s.started && !s.busy && occ == 0 && !s.paceDueLocked() {
		// The books read as a push onto the empty queue and its pop: depth
		// 1 at the high-water mark, one pop for the watchdog, and the depth
		// gauge back at the 0 it already reads.
		s.busy = true
		s.st.queueMax.SetMax(1)
		s.pops.Add(1)
		return it, true, nil
	}
	s.buckets[bucketOf(req)].push(it)
	n := s.occupancy.Add(1)
	s.st.queueDepth.Set(n)
	s.st.queueMax.SetMax(n)
	return it, false, nil
}

// closedLocked is what every call gets once the server is down.
func (s *Server) closedLocked() error {
	if s.crashed {
		return fmt.Errorf("%w: server lost power", ErrPowerFailure)
	}
	if s.stopping {
		return ErrServerClosed
	}
	return nil
}

// WaitUntil blocks the calling goroutine until virtual time reaches t —
// the open-loop pacing primitive. Whenever the stack is free it takes
// it, serves the queued requests that start before t, and advances idle
// time to the earliest target of the WaitUntil calls in progress. It
// reads the clock only with the stack free. Once it returns nil the
// clock is held: no Submit or Handle.Wait caller moves it until the next
// admission (accepted or refused), WaitUntil or Stop. A SubmitAsync that
// follows admits at the instant WaitUntil returned; a caller that waits
// on a queued request instead blocks until another goroutine acts. That
// instant is later than the first request boundary at or after t if a
// Handle.Wait served past t before this call: the hold does not cover a
// pacer's gap between admitting and calling WaitUntil again. With one
// admitting goroutine, one priority, no shedding and a quiet watchdog,
// such a slip moves admissions (Result.Wait, Latency) but no completion.
func (s *Server) WaitUntil(t sim.Time) error {
	s.mu.Lock()
	s.held = false
	s.pacers = append(s.pacers, t)
	own := false // this goroutine holds s.busy
	var err error
	for err = s.closedLocked(); err == nil; err = s.closedLocked() {
		if own || s.started && !s.busy {
			if sim.Time(s.pubNow.Load()) >= t {
				s.held = true
				break
			}
			if !s.paceDueLocked() { // else another caller's target is due
				s.busy, own = true, true
				next, to := s.popLocked(), slices.Min(s.pacers)
				s.mu.Unlock()
				s.step(next, to)
				continue
			}
		}
		if own {
			s.releaseLocked()
			own = false
		} else {
			s.wakeLocked() // pass the wake on to a caller that can act
		}
		s.cond.Wait()
	}
	i := slices.Index(s.pacers, t)
	s.pacers = slices.Delete(s.pacers, i, i+1)
	if own {
		s.releaseLocked()
	} else {
		s.wakeLocked()
	}
	s.mu.Unlock()
	return err
}

// paceDueLocked: a WaitUntil target is reached; its caller goes first.
func (s *Server) paceDueLocked() bool {
	return len(s.pacers) > 0 && slices.Min(s.pacers) <= sim.Time(s.pubNow.Load())
}

// step is one unit of work on the goroutine that owns the stack: serve
// it, or with it nil advance idle time to t; then run a watchdog trip
// requested meanwhile. It returns with s.mu held.
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
}

// releaseLocked hands the stack back.
func (s *Server) releaseLocked() {
	s.busy = false
	s.wakeLocked()
}

// wakeLocked wakes the callers that can use a free stack: on a stopping
// server it fails the queue and wakes them all, else at most one — a
// WaitUntil caller whose target is due, else (unless the clock is held) a
// Submit or Handle.Wait caller with work queued, else a WaitUntil caller
// to serve or advance idle time.
func (s *Server) wakeLocked() {
	switch {
	case s.busy:
	case s.stopping:
		s.failAllLocked(ErrServerClosed)
		s.cond.Broadcast()
	case s.paceDueLocked():
		s.cond.Signal()
	case !s.held && s.parked > 0 && s.occupancy.Load() > 0:
		select {
		case s.turn <- struct{}{}:
		default: // a wake is already on its way
		}
	default:
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

// failAllLocked rejects everything still queued with err — the shutdown
// and power-failure path.
func (s *Server) failAllLocked(err error) {
	for b := range s.buckets {
		for s.buckets[b].n > 0 {
			s.deliver(s.buckets[b].pop(), outcome{err: err})
			s.st.queueDepth.Set(s.occupancy.Add(-1))
		}
	}
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
	s.failAllLocked(fmt.Errorf("%w: queued at failure", ErrPowerFailure))
	s.mu.Unlock()
}

// publish refreshes the atomic mirrors clients read.
func (s *Server) publish() {
	s.pubNow.Store(int64(s.clock.Now()))
	s.pubState.Store(int32(s.mgr.HealthState()))
}

// pump delivers pending background events (epoch ticks, IO completions,
// health-monitor ticks, the watchdog) and republishes.
func (s *Server) pump() { s.advanceTo(s.clock.Now()) }

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
			if stall := s.stallEstimate(); stall > 0 && now.Add(stall+ServiceTime) > it.deadline {
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
	s.clock.Advance(ServiceTime)
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
// exists to catch: a non-empty queue across watchdogStrikes intervals
// with no request retired.
func (s *Server) watchdogTick(now sim.Time) {
	if s.wdDead.Load() {
		return
	}
	pops := s.pops.Load()
	if s.occupancy.Load() > 0 && pops == s.wdLast {
		s.wdStrike++
		if s.wdStrike == watchdogStrikes {
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
	s.events.Rearm(s.wdEvent, now.Add(watchdogInterval), s.wdFn)
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
