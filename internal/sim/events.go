package sim

import "container/heap"

// Event is a callback scheduled to run at a point in virtual time.
type Event struct {
	At Time
	Fn func(Time)

	seq   uint64 // tie-break so same-time events run in schedule order
	index int    // heap index; -1 once popped or cancelled
}

// Cancelled reports whether the event has been cancelled or already fired.
func (e *Event) Cancelled() bool { return e.index == -1 && e.Fn == nil }

// Queue is a priority queue of events ordered by virtual time. Events
// scheduled for the same instant fire in the order they were scheduled.
// The zero value is an empty queue ready to use.
type Queue struct {
	events   eventHeap
	seq      uint64
	fired    uint64
	fireHook func(step uint64, at Time)
	// dispatching is true while an event handler is on the stack. It is
	// the reentrancy guard: a handler may virtually block with Step (the
	// cleanOneSync idiom), but calling RunUntil or Drain from inside a
	// handler would silently recurse the whole loop — always a bug.
	dispatching bool
}

// Fired returns the number of events that have fired so far — the
// queue's step counter. Together with SetFireHook it gives external
// tooling (fault injection, crash-point sweeps) a deterministic notion
// of "where" in an execution something happened.
func (q *Queue) Fired() uint64 { return q.fired }

// SetFireHook installs fn to run immediately before each event fires,
// with the 1-based index the event will have and its virtual time. The
// hook runs before the event is removed from the queue, so a hook that
// panics (the crash-point mechanism in internal/faultinject) leaves the
// queue consistent: the event is still pending. Passing nil uninstalls
// the hook.
func (q *Queue) SetFireHook(fn func(step uint64, at Time)) { q.fireHook = fn }

// NewQueue returns an empty event queue.
func NewQueue() *Queue { return &Queue{} }

// Recycle returns an empty queue, as NewQueue does, on q's heap array:
// what a reboot takes from the system it retires. q is empty afterwards,
// and the events still pending on it read as cancelled and never fire.
func (q *Queue) Recycle() *Queue {
	for i, e := range q.events {
		e.index, e.Fn = -1, nil
		q.events[i] = nil
	}
	nq := &Queue{events: q.events[:0]}
	q.events = nil
	return nq
}

// Schedule registers fn to run at time at and returns a handle that can be
// passed to Cancel.
func (q *Queue) Schedule(at Time, fn func(Time)) *Event {
	e := &Event{At: at, Fn: fn, seq: q.seq}
	q.seq++
	heap.Push(&q.events, e)
	return e
}

// Rearm schedules an event that has fired or been cancelled to run fn at
// time at, reusing its allocation: a periodic task re-arms its one event
// from inside the callback instead of allocating an Event per period. The
// event takes its place among same-time events as if newly scheduled.
// Rearming a pending event is a bug and panics.
func (q *Queue) Rearm(e *Event, at Time, fn func(Time)) {
	if e.index >= 0 {
		panic("sim: Queue.Rearm of a pending event")
	}
	e.At, e.Fn, e.seq = at, fn, q.seq
	q.seq++
	heap.Push(&q.events, e)
}

// Cancel removes a pending event from the queue. Cancelling an event that
// has already fired (or was already cancelled) is a no-op.
func (q *Queue) Cancel(e *Event) {
	if e == nil || e.index < 0 {
		return
	}
	heap.Remove(&q.events, e.index)
	e.index = -1
	e.Fn = nil
}

// Len returns the number of pending events.
func (q *Queue) Len() int { return len(q.events) }

// RunUntil fires, in order, every event scheduled at or before t, advancing
// the clock to each event's time before invoking it. Events may schedule
// further events; newly scheduled events at or before t also fire. After
// RunUntil returns, the clock is at max(t, clock time on entry).
//
// RunUntil must not be called from inside an event handler: the nested
// loop would fire events the outer loop believes are still pending and
// recurse arbitrarily deep under load. A handler that needs to virtually
// block on a future event uses Step instead (which remains legal at any
// depth). Reentrant calls panic deterministically.
func (q *Queue) RunUntil(c *Clock, t Time) {
	if q.dispatching {
		panic("sim: Queue.RunUntil reentered from inside an event handler; use Step to virtually block")
	}
	q.dispatching = true
	defer func() { q.dispatching = false }()
	for len(q.events) > 0 && q.events[0].At <= t {
		if q.fireHook != nil {
			q.fireHook(q.fired+1, q.events[0].At)
		}
		e := heap.Pop(&q.events).(*Event)
		e.index = -1
		q.fired++
		fn := e.Fn
		e.Fn = nil
		c.AdvanceTo(e.At)
		fn(e.At)
	}
	c.AdvanceTo(t)
}

// Step fires exactly the earliest pending event, advancing the clock to
// its time, and reports whether an event fired. It is the building block
// for "virtually blocking" callers that must wait for the next completion
// while letting unrelated events (epoch ticks, other IOs) fire in order.
// Unlike RunUntil it is legal from inside an event handler — that nesting
// IS the virtual-blocking idiom — so it saves and restores the guard.
func (q *Queue) Step(c *Clock) bool {
	if len(q.events) == 0 {
		return false
	}
	at := q.events[0].At
	if q.fireHook != nil {
		q.fireHook(q.fired+1, at)
	}
	e := heap.Pop(&q.events).(*Event)
	e.index = -1
	q.fired++
	fn := e.Fn
	e.Fn = nil
	c.AdvanceTo(at)
	prev := q.dispatching
	q.dispatching = true
	defer func() { q.dispatching = prev }()
	fn(at)
	return true
}

// Drain fires every pending event in time order, advancing the clock along
// the way, until the queue is empty. Like RunUntil, it must not be called
// from inside an event handler.
func (q *Queue) Drain(c *Clock) {
	if q.dispatching {
		panic("sim: Queue.Drain reentered from inside an event handler; use Step to virtually block")
	}
	for len(q.events) > 0 {
		at := q.events[0].At
		q.RunUntil(c, at)
	}
}

// eventHeap implements container/heap ordered by (At, seq).
type eventHeap []*Event

func (h eventHeap) Len() int { return len(h) }

func (h eventHeap) Less(i, j int) bool {
	if h[i].At != h[j].At {
		return h[i].At < h[j].At
	}
	return h[i].seq < h[j].seq
}

func (h eventHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index = i
	h[j].index = j
}

func (h *eventHeap) Push(x any) {
	e := x.(*Event)
	e.index = len(*h)
	*h = append(*h, e)
}

func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return e
}
