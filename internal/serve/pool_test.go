package serve

import (
	"context"
	"errors"
	"runtime"
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
	// The pool may drop an item (under -race it does so at random), so
	// look for reuse of any spent handle's item, not of the first one's.
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
// item — on which the stack's owner may yet send — never returns to the pool.
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
			t.Fatal("an item abandoned through its context came back out of the pool")
		}
		if res, err := next.Wait(context.Background()); err != nil || res.Value != id {
			t.Fatalf("request %d: Wait = %v, %v", id, res.Value, err)
		}
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

// A closed-loop round trip recycles its item: what is left is at most the
// boxing of the op's result (none here — the op returns nil).
func TestPoolSubmitAllocations(t *testing.T) {
	h := newHarness(t, 16, ssd.Config{}, Config{}, nil)
	ctx := context.Background()
	req := Request{Priority: PriorityNormal, Op: func(Exec) (any, error) { return nil, nil }}
	if allocs := testing.AllocsPerRun(500, func() {
		if _, err := h.srv.Submit(ctx, req); err != nil {
			t.Fatal(err)
		}
	}); allocs > 1 {
		t.Fatalf("Submit round trip allocates %v times, want at most 1", allocs)
	}
}

// A pacing wait that really waits serves the idle advance itself, on the
// caller's goroutine, and keeps its target in the server's reused list:
// in steady state WaitUntil allocates nothing.
func TestWaitUntilAllocations(t *testing.T) {
	h := newHarness(t, 16, ssd.Config{}, Config{}, nil)
	next, waited := h.srv.Now(), 0
	if allocs := testing.AllocsPerRun(500, func() {
		next = next.Add(20 * sim.Microsecond)
		if h.srv.Now() < next {
			waited++
		}
		if err := h.srv.WaitUntil(next); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Fatalf("WaitUntil allocates %v times per call, want 0", allocs)
	}
	if waited < 400 {
		t.Fatalf("only %d of 501 calls had to wait", waited)
	}
}

// Each wait here spans one watchdog interval (and one epoch): the watchdog
// re-arms its one event, so its tick allocates nothing either.
func TestWatchdogTickAllocations(t *testing.T) {
	h := newHarness(t, 16, ssd.Config{}, Config{}, nil)
	next := h.srv.Now()
	if allocs := testing.AllocsPerRun(200, func() {
		next = next.Add(watchdogInterval)
		if err := h.srv.WaitUntil(next); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Fatalf("a watchdog interval allocates %v times, want 0", allocs)
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
