package serve

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"testing"

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
// item — on which the dispatcher may yet send — never returns to the pool.
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

// Clients cancel while the dispatcher delivers. Whichever side wins, a
// request that reports success reports its own outcome: an item recycled
// while the dispatcher could still send on it would hand that send to the
// item's next request. Run under -race.
func TestPoolCancelRacesDeliver(t *testing.T) {
	h := newHarness(t, 16, ssd.Config{}, Config{}, nil)
	const clients, perClient = 8, 400
	var wg sync.WaitGroup
	var served, cancelled int64
	var mu sync.Mutex
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			ok, gone := int64(0), int64(0)
			for i := 0; i < perClient; i++ {
				id := c*perClient + i
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
	if served == 0 || cancelled == 0 {
		t.Fatalf("%d served, %d cancelled: the race was never run from both sides", served, cancelled)
	}
	if got := int64(h.srv.Stats().Cancelled); got != cancelled {
		t.Fatalf("Stats.Cancelled = %d, clients saw %d", got, cancelled)
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
