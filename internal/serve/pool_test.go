package serve

import (
	"context"
	"errors"
	"runtime"
	"runtime/debug"
	"sync"
	"testing"

	"viyojit/internal/sim"
	"viyojit/internal/ssd"
)

// echo returns a request whose outcome names it.
func echo(id int) Request {
	return Request{Priority: PriorityNormal, Op: func(Exec) (any, error) { return id, nil }}
}

// A handle answers one Wait. The second is refused with a typed error —
// at once, and still after the item behind it has gone on to serve other
// requests, whose outcomes it must not take.
func TestPoolSpentHandleRefused(t *testing.T) {
	h := newHarness(t, 16, ssd.Config{}, Config{}, nil)
	ctx := context.Background()
	first, err := h.srv.SubmitAsync(echo(1))
	if err != nil {
		t.Fatal(err)
	}
	if res, err := first.Wait(ctx); err != nil || res.Value != 1 {
		t.Fatalf("first Wait = %v, %v", res.Value, err)
	}
	if _, err := first.Wait(ctx); !errors.Is(err, ErrHandleSpent) {
		t.Fatalf("second Wait = %v, want ErrHandleSpent", err)
	}
	// Look for reuse of any spent handle's item, not only of the first
	// one's: that the free list hands back the newest item first is not
	// what this test is about.
	spent := []*Handle{first}
	reused := 0
	for id := 2; id < 200; id++ {
		next, err := h.srv.SubmitAsync(echo(id))
		if err != nil {
			t.Fatal(err)
		}
		for _, old := range spent {
			if old.it == next.it {
				reused++
			}
			if _, err := old.Wait(ctx); !errors.Is(err, ErrHandleSpent) {
				t.Fatalf("stale Wait beside request %d = %v, want ErrHandleSpent", id, err)
			}
		}
		if res, err := next.Wait(ctx); err != nil || res.Value != id {
			t.Fatalf("request %d: Wait = %v, %v", id, res.Value, err)
		}
		spent = append(spent, next)
	}
	if reused == 0 {
		t.Fatal("no item was ever reused: the stale Waits proved nothing")
	}
}

// Two Waits racing on one handle: one gets the outcome, the other the
// typed error — never both the channel.
func TestPoolConcurrentWaitsOneWins(t *testing.T) {
	h := newHarness(t, 16, ssd.Config{}, Config{}, nil)
	for id := 0; id < 200; id++ {
		hd, err := h.srv.SubmitAsync(echo(id))
		if err != nil {
			t.Fatal(err)
		}
		errs := make(chan error, 2)
		for w := 0; w < 2; w++ {
			go func() {
				res, err := hd.Wait(context.Background())
				if err == nil && res.Value != id {
					t.Errorf("request %d: Wait returned %v", id, res.Value)
				}
				errs <- err
			}()
		}
		e1, e2 := <-errs, <-errs
		if (e1 == nil) == (e2 == nil) || (e1 != nil && !errors.Is(e1, ErrHandleSpent)) || (e2 != nil && !errors.Is(e2, ErrHandleSpent)) {
			t.Fatalf("request %d: racing Waits returned %v and %v, want one outcome and one ErrHandleSpent", id, e1, e2)
		}
	}
}

// A Wait given up through its context spends the handle too, and its
// item — on which the stack's owner may yet send — never returns to the
// free list.
func TestPoolCancelledWaitSpendsHandle(t *testing.T) {
	h := newHarness(t, 16, ssd.Config{}, Config{}, nil)
	_, release, done := gate(t, h.srv)
	hd, err := h.srv.SubmitAsync(echo(1))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := hd.Wait(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled Wait = %v", err)
	}
	if _, err := hd.Wait(context.Background()); !errors.Is(err, ErrHandleSpent) {
		t.Fatalf("Wait after a cancelled Wait = %v, want ErrHandleSpent", err)
	}
	close(release)
	<-done
	for id := 2; id < 100; id++ {
		next, err := h.srv.SubmitAsync(echo(id))
		if err != nil {
			t.Fatal(err)
		}
		if next.it == hd.it {
			t.Fatal("an item abandoned through its context came back off the free list")
		}
		if res, err := next.Wait(context.Background()); err != nil || res.Value != id {
			t.Fatalf("request %d: Wait = %v, %v", id, res.Value, err)
		}
	}
}

// The free list hands back its newest item first, so one-at-a-time
// traffic never reaches deeper than one item. Eight requests held at once
// take every item the list has, and the abandoned one is never among them.
func TestFreeListSkipsAbandonedItem(t *testing.T) {
	h := newHarness(t, 16, ssd.Config{}, Config{}, nil)
	_, release, done := gate(t, h.srv)
	abandoned, err := h.srv.SubmitAsync(echo(-1))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := abandoned.Wait(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled Wait = %v", err)
	}
	close(release)
	<-done
	var batch [8]*Handle
	for round := 0; round < 4; round++ {
		for i := range batch {
			if batch[i], err = h.srv.SubmitAsync(echo(i)); err != nil {
				t.Fatal(err)
			}
			if batch[i].it == abandoned.it {
				t.Fatalf("round %d: an item abandoned through its context came back off the free list", round)
			}
		}
		for i, hd := range batch {
			if res, err := hd.Wait(context.Background()); err != nil || res.Value != i {
				t.Fatalf("round %d, request %d: Wait = %v, %v", round, i, res.Value, err)
			}
		}
	}
	h.srv.mu.Lock()
	defer h.srv.mu.Unlock()
	if n := len(h.srv.free); n != len(batch) {
		t.Fatalf("the free list holds %d items after rounds of %d, want %d", n, len(batch), len(batch))
	}
}

// Clients cancel while the stack's owner delivers. Whichever side wins, a
// request that reports success reports its own outcome: an item recycled
// while the owner could still send on it would hand that send to the
// item's next request. Run under -race.
//
// Which side wins a given race is the scheduler's choice, and on a loaded
// box it can choose the same side 3 200 times running, so rounds repeat
// (on one server, the counts accumulating) until each side has won once.
// The assertions hold on every round; only never seeing both sides within
// the bound fails for want of a race.
func TestPoolCancelRacesDeliver(t *testing.T) {
	h := newHarness(t, 16, ssd.Config{}, Config{}, nil)
	const clients, perClient, maxRounds = 8, 400, 50
	var served, cancelled int64
	for round := 0; round < maxRounds && (served == 0 || cancelled == 0); round++ {
		var wg sync.WaitGroup
		var mu sync.Mutex
		for c := 0; c < clients; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				ok, gone := int64(0), int64(0)
				for i := 0; i < perClient; i++ {
					id := (round*clients+c)*perClient + i
					ctx, cancel := context.WithCancel(context.Background())
					go func() {
						for spin := id % 4; spin > 0; spin-- {
							runtime.Gosched()
						}
						cancel()
					}()
					res, err := h.srv.Submit(ctx, echo(id))
					switch {
					case err == nil && res.Value == id:
						ok++
					case errors.Is(err, context.Canceled):
						gone++
					case errors.Is(err, ErrOverloaded):
						// Abandoned items hold their queue slots until popped.
					default:
						t.Errorf("request %d: outcome %v, %v", id, res.Value, err)
					}
					cancel()
				}
				mu.Lock()
				served, cancelled = served+ok, cancelled+gone
				mu.Unlock()
			}(c)
		}
		wg.Wait()
		if got := int64(h.srv.Stats().Cancelled); got != cancelled {
			t.Fatalf("round %d: Stats.Cancelled = %d, clients saw %d", round, got, cancelled)
		}
	}
	if served == 0 || cancelled == 0 {
		t.Fatalf("%d served, %d cancelled in %d rounds: the race was never run from both sides", served, cancelled, maxRounds)
	}
}

// mallocs runs f runs times to reach steady state, then runs times more,
// and returns what the second pass allocated in total:
// testing.AllocsPerRun's integer average would hide up to runs-1
// allocations. The count is process-wide, so the runtime is kept from
// allocating inside it: with one P, restarting the world after
// ReadMemStats finds no idle P to start a new thread for (five objects),
// and with the collector off no cycle starts mark workers.
func mallocs(runs int, f func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	for i := 0; i < runs; i++ {
		f()
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs
}

// A closed-loop round trip takes its item off the server's free list and
// puts it back: with an op that returns nil it allocates nothing.
func TestPoolSubmitAllocations(t *testing.T) {
	h := newHarness(t, 16, ssd.Config{}, Config{}, nil)
	ctx := context.Background()
	req := Request{Priority: PriorityNormal, Op: func(Exec) (any, error) { return nil, nil }}
	const runs = 640
	if n := mallocs(runs, func() {
		if _, err := h.srv.Submit(ctx, req); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("%d Submit round trips allocate %d objects, want 0", runs, n)
	}
}

// An open-loop round trip reuses its item the same way; what is left is
// its handle, carved from a block of handleBlock, so warm round trips
// allocate one object per block.
func TestSubmitAsyncAllocations(t *testing.T) {
	h := newHarness(t, 16, ssd.Config{}, Config{}, nil)
	ctx := context.Background()
	req := Request{Priority: PriorityNormal, Op: func(Exec) (any, error) { return nil, nil }}
	const runs = 10 * handleBlock
	if n := mallocs(runs, func() {
		hd, err := h.srv.SubmitAsync(req)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := hd.Wait(ctx); err != nil {
			t.Fatal(err)
		}
	}); n > runs/handleBlock {
		t.Fatalf("%d SubmitAsync round trips allocate %d objects, want at most %d", runs, n, runs/handleBlock)
	}
}

// A pacing wait that really waits serves the idle advance itself, on the
// caller's goroutine, and keeps its target in the server's reused list:
// in steady state WaitUntil allocates nothing.
func TestWaitUntilAllocations(t *testing.T) {
	h := newHarness(t, 16, ssd.Config{}, Config{}, nil)
	next, waited := h.srv.Now(), 0
	const runs = 500
	if n := mallocs(runs, func() {
		next = next.Add(20 * sim.Microsecond)
		if h.srv.Now() < next {
			waited++
		}
		if err := h.srv.WaitUntil(next); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("%d WaitUntil calls allocate %d objects, want 0", runs, n)
	}
	if waited < 2*runs*4/5 {
		t.Fatalf("only %d of %d calls had to wait", waited, 2*runs)
	}
}

// Each wait here spans one watchdog interval (and one epoch): the watchdog
// re-arms its one event, so its tick allocates nothing either.
func TestWatchdogTickAllocations(t *testing.T) {
	h := newHarness(t, 16, ssd.Config{}, Config{}, nil)
	next := h.srv.Now()
	const runs = 200
	if n := mallocs(runs, func() {
		next = next.Add(watchdogInterval)
		if err := h.srv.WaitUntil(next); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("%d watchdog intervals allocate %d objects, want 0", runs, n)
	}
}

// parkWaiters blocks n goroutines in WaitUntil behind a gated op and
// returns once all are registered; their outcomes arrive on the channel.
func parkWaiters(t *testing.T, srv *Server, n int) (release chan struct{}, errs chan error) {
	t.Helper()
	_, release, _ = gate(t, srv)
	errs = make(chan error, n)
	for i := 0; i < n; i++ {
		go func() { errs <- srv.WaitUntil(srv.Now().Add(sim.Second)) }()
	}
	waitFor(t, func() bool {
		srv.mu.Lock()
		defer srv.mu.Unlock()
		return len(srv.pacers) == n
	})
	return release, errs
}

// WaitUntil callers blocked behind a busy stack are woken by Stop with
// ErrServerClosed, and by a power failure with ErrPowerFailure; a wait
// on a fresh server afterwards wakes at its own target.
func TestWaitUntilWokenByStopAndCrash(t *testing.T) {
	const n = 8
	stopped := newHarness(t, 16, ssd.Config{}, Config{}, nil)
	release, errs := parkWaiters(t, stopped.srv, n)
	stopDone := make(chan struct{})
	go func() { stopped.srv.Stop(); close(stopDone) }()
	waitFor(t, func() bool {
		stopped.srv.mu.Lock()
		defer stopped.srv.mu.Unlock()
		return stopped.srv.stopping
	})
	close(release)
	<-stopDone
	for i := 0; i < n; i++ {
		if err := <-errs; !errors.Is(err, ErrServerClosed) {
			t.Fatalf("waiter woken by Stop got %v, want ErrServerClosed", err)
		}
	}

	crashed, crasher, events := newCrashHarness(t, 64)
	crasher.ArmAt(events.Fired() + 1) // the idle advance a woken waiter serves fires it
	if err := crashed.srv.Start(); err != nil {
		t.Fatal(err)
	}
	release, errs = parkWaiters(t, crashed.srv, n)
	close(release)
	for i := 0; i < n; i++ {
		if err := <-errs; !errors.Is(err, ErrPowerFailure) {
			t.Fatalf("waiter woken by the crash got %v, want ErrPowerFailure", err)
		}
	}

	fresh := newHarness(t, 16, ssd.Config{}, Config{}, nil)
	for i := 0; i < 4*n; i++ {
		target := fresh.srv.Now().Add(50 * sim.Microsecond)
		if err := fresh.srv.WaitUntil(target); err != nil {
			t.Fatalf("wait %d on a fresh server: %v", i, err)
		}
		if now := fresh.srv.Now(); now < target {
			t.Fatalf("wait %d returned at %v, before its target %v", i, now, target)
		}
	}
}
