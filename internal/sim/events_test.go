package sim

import (
	"runtime"
	"testing"
	"testing/quick"
)

func TestQueueFiresInTimeOrder(t *testing.T) {
	q := NewQueue()
	c := NewClock()
	var got []Time
	for _, at := range []Time{30, 10, 20} {
		at := at
		q.Schedule(at, func(now Time) { got = append(got, now) })
	}
	q.RunUntil(c, 100)
	want := []Time{10, 20, 30}
	if len(got) != len(want) {
		t.Fatalf("fired %d events, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("event %d fired at %v, want %v", i, got[i], want[i])
		}
	}
	if c.Now() != 100 {
		t.Fatalf("clock at %v after RunUntil(100)", c.Now())
	}
}

func TestQueueSameTimeFIFO(t *testing.T) {
	q := NewQueue()
	c := NewClock()
	var order []int
	for i := 0; i < 5; i++ {
		i := i
		q.Schedule(50, func(Time) { order = append(order, i) })
	}
	q.RunUntil(c, 50)
	for i, v := range order {
		if v != i {
			t.Fatalf("same-time events fired out of order: %v", order)
		}
	}
}

func TestQueueRunUntilLeavesLaterEvents(t *testing.T) {
	q := NewQueue()
	c := NewClock()
	fired := 0
	q.Schedule(10, func(Time) { fired++ })
	q.Schedule(200, func(Time) { fired++ })
	q.RunUntil(c, 100)
	if fired != 1 {
		t.Fatalf("fired = %d, want 1", fired)
	}
	if q.Len() != 1 {
		t.Fatalf("queue len = %d, want 1", q.Len())
	}
	if at := q.events[0].At; at != 200 {
		t.Fatalf("next event at %v, want 200", at)
	}
}

func TestQueueCancel(t *testing.T) {
	q := NewQueue()
	c := NewClock()
	fired := false
	e := q.Schedule(10, func(Time) { fired = true })
	q.Cancel(e)
	q.Cancel(e) // double-cancel is a no-op
	q.Cancel(nil)
	q.RunUntil(c, 100)
	if fired {
		t.Fatal("cancelled event fired")
	}
	if !e.Cancelled() {
		t.Fatal("Cancelled() = false after cancel")
	}
}

func TestQueueEventsScheduleEvents(t *testing.T) {
	q := NewQueue()
	c := NewClock()
	var got []Time
	q.Schedule(10, func(now Time) {
		got = append(got, now)
		q.Schedule(now.Add(5), func(now2 Time) { got = append(got, now2) })
	})
	q.RunUntil(c, 100)
	if len(got) != 2 || got[0] != 10 || got[1] != 15 {
		t.Fatalf("chained events fired at %v, want [10 15]", got)
	}
}

func TestQueueDrain(t *testing.T) {
	q := NewQueue()
	c := NewClock()
	n := 0
	for i := Time(1); i <= 10; i++ {
		q.Schedule(i*7, func(Time) { n++ })
	}
	q.Drain(c)
	if n != 10 {
		t.Fatalf("drained %d events, want 10", n)
	}
	if q.Len() != 0 {
		t.Fatalf("queue not empty after Drain: %d", q.Len())
	}
	if c.Now() != 70 {
		t.Fatalf("clock at %v after Drain, want 70", c.Now())
	}
}

func TestQueueFiredCounter(t *testing.T) {
	q := NewQueue()
	c := NewClock()
	if q.Fired() != 0 {
		t.Fatalf("fresh queue Fired() = %d", q.Fired())
	}
	for i := Time(1); i <= 4; i++ {
		q.Schedule(i*10, func(Time) {})
	}
	e := q.Schedule(45, func(Time) {})
	q.Cancel(e)
	q.Drain(c)
	if q.Fired() != 4 {
		t.Fatalf("Fired() = %d after draining 4 live + 1 cancelled, want 4", q.Fired())
	}
}

func TestQueueFireHookSeesStepAndTime(t *testing.T) {
	q := NewQueue()
	c := NewClock()
	type fire struct {
		step uint64
		at   Time
	}
	var hooks []fire
	q.SetFireHook(func(step uint64, at Time) { hooks = append(hooks, fire{step, at}) })
	q.Schedule(10, func(Time) {})
	q.Schedule(20, func(Time) {})
	q.RunUntil(c, 100)
	want := []fire{{1, 10}, {2, 20}}
	if len(hooks) != len(want) {
		t.Fatalf("hook fired %d times, want %d", len(hooks), len(want))
	}
	for i := range want {
		if hooks[i] != want[i] {
			t.Fatalf("hook call %d = %+v, want %+v", i, hooks[i], want[i])
		}
	}
	q.SetFireHook(nil) // detachable
	q.Schedule(30, func(Time) {})
	q.RunUntil(c, 100)
	if len(hooks) != 2 {
		t.Fatal("detached hook still firing")
	}
}

// A hook that panics must leave the queue consistent: the event it
// interrupted was not popped and fires on the next run — the property
// the crash-point sweep depends on.
func TestQueueFireHookPanicLeavesEventQueued(t *testing.T) {
	q := NewQueue()
	c := NewClock()
	fired := 0
	q.Schedule(10, func(Time) { fired++ })
	boom := true
	q.SetFireHook(func(uint64, Time) {
		if boom {
			boom = false
			panic("power failure")
		}
	})
	func() {
		defer func() { recover() }()
		q.RunUntil(c, 100)
	}()
	if fired != 0 {
		t.Fatal("event fired despite the hook panicking before it")
	}
	if q.Len() != 1 {
		t.Fatalf("queue len = %d after hook panic, want 1 (event stays queued)", q.Len())
	}
	if q.Fired() != 0 {
		t.Fatalf("Fired() = %d after hook panic, want 0", q.Fired())
	}
	q.RunUntil(c, 100)
	if fired != 1 || q.Fired() != 1 {
		t.Fatalf("re-run fired %d events (counter %d), want 1", fired, q.Fired())
	}
}

// Reentering RunUntil or Drain from inside a handler must panic
// deterministically instead of recursing the dispatch loop, while Step —
// the virtual-blocking idiom used by cleanOneSync/emergencyDrain — stays
// legal at any depth, including after a crash-point panic unwound the loop.
func TestQueueRunUntilReentryPanics(t *testing.T) {
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s reentered from a handler did not panic", name)
			}
		}()
		fn()
	}

	q := NewQueue()
	c := NewClock()
	q.Schedule(10, func(Time) {
		if !q.dispatching {
			t.Error("dispatching = false inside a handler")
		}
		mustPanic("RunUntil", func() { q.RunUntil(c, 100) })
		mustPanic("Drain", func() { q.Drain(c) })
	})
	q.RunUntil(c, 100)
	if q.dispatching {
		t.Fatal("dispatching stuck true after RunUntil returned")
	}

	// Step from inside a handler is the sanctioned way to virtually block.
	q2 := NewQueue()
	c2 := NewClock()
	var order []Time
	q2.Schedule(20, func(Time) { order = append(order, 20) })
	q2.Schedule(10, func(now Time) {
		order = append(order, 10)
		if !q2.Step(c2) { // waits for the 20-event
			t.Error("nested Step fired nothing")
		}
		mustPanic("RunUntil (under nested Step)", func() { q2.RunUntil(c2, 100) })
	})
	q2.RunUntil(c2, 100)
	if len(order) != 2 || order[0] != 10 || order[1] != 20 {
		t.Fatalf("nested Step order = %v, want [10 20]", order)
	}

	// A panic escaping RunUntil (the crash-point mechanism) must not leave
	// the guard stuck, or recovery could never pump events again.
	q3 := NewQueue()
	c3 := NewClock()
	q3.SetFireHook(func(uint64, Time) { panic("power failure") })
	q3.Schedule(10, func(Time) {})
	func() {
		defer func() { recover() }()
		q3.RunUntil(c3, 100)
	}()
	if q3.dispatching {
		t.Fatal("guard stuck after panic unwound RunUntil")
	}
	q3.SetFireHook(nil)
	q3.RunUntil(c3, 100) // must not panic
}

// Property: for any set of scheduled times, events fire in sorted order and
// the count matches.
func TestQueueOrderingProperty(t *testing.T) {
	f := func(times []uint16) bool {
		q := NewQueue()
		c := NewClock()
		var fired []Time
		for _, at := range times {
			q.Schedule(Time(at), func(now Time) { fired = append(fired, now) })
		}
		q.Drain(c)
		if len(fired) != len(times) {
			return false
		}
		for i := 1; i < len(fired); i++ {
			if fired[i] < fired[i-1] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestQueueRearmReusesFiredEvent: a periodic task re-arms its one event
// from inside the callback; the re-armed event orders among same-time
// events as a newly scheduled one would, Cancel applies to the new
// arming, and re-arming a pending event panics.
func TestQueueRearmReusesFiredEvent(t *testing.T) {
	q := NewQueue()
	c := NewClock()
	var order []string
	var tick *Event
	var fn func(Time)
	fn = func(at Time) {
		order = append(order, "tick")
		if at < 30 {
			q.Rearm(tick, at+10, fn)
		}
	}
	tick = q.Schedule(10, fn)
	q.Schedule(20, func(Time) { order = append(order, "other") })
	q.RunUntil(c, 100)
	want := []string{"tick", "other", "tick", "tick"}
	if len(order) != len(want) {
		t.Fatalf("fired %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("fired %v, want %v", order, want)
		}
	}

	q.Rearm(tick, 200, fn)
	if n := mallocs(100, func() {
		q.Cancel(tick)
		q.Rearm(tick, 200, fn)
	}); n != 0 {
		t.Fatalf("100 Rearms allocate %d times, want 0", n)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Rearm of a pending event did not panic")
		}
	}()
	q.Rearm(tick, 300, fn)
}

// TestQueueRecycle: a recycled queue is empty and behaves as a new one,
// on its donor's heap array, and the events left pending on the donor
// read as cancelled, never fire, and cancel as a no-op.
func TestQueueRecycle(t *testing.T) {
	c := NewClock()
	donor := NewQueue()
	fired := 0
	count := func(Time) { fired++ }
	var pending []*Event
	for i := 0; i < 8; i++ {
		pending = append(pending, donor.Schedule(Time(10+i), count))
	}
	donor.RunUntil(c, 12) // three fire, five stay pending
	q := donor.Recycle()
	if q.Len() != 0 || donor.Len() != 0 {
		t.Fatalf("recycled queue holds %d events and its donor %d, want none", q.Len(), donor.Len())
	}
	for _, e := range pending {
		if !e.Cancelled() {
			t.Fatal("an event pending on the donor does not read as cancelled")
		}
		donor.Cancel(e)
	}
	donor.Drain(c)
	var order []int
	for i := 3; i > 0; i-- {
		q.Schedule(Time(20+i), func(Time) { order = append(order, i) })
	}
	q.Drain(c)
	if fired != 3 || len(order) != 3 || order[0] != 1 || order[2] != 3 {
		t.Fatalf("donor fired %d events, recycled queue fired %v: want 3 and [1 2 3]", fired, order)
	}
}

// mallocs runs f runs times to reach steady state, then runs times more,
// and returns what the second pass allocated in total:
// testing.AllocsPerRun's integer average would hide up to runs-1
// allocations.
func mallocs(runs int, f func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	for i := 0; i < runs; i++ {
		f()
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs
}
