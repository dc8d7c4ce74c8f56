package serve

import (
	"context"
	"errors"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"testing"
	"time"

	"viyojit/internal/sim"
	"viyojit/internal/ssd"
)

// openLoopRun is what one seeded open-loop run decided: each request's
// latency timed from its scheduled arrival, in admission order, and the
// final virtual clock.
type openLoopRun struct {
	lat   []sim.Duration
	final sim.Time
}

// runOpenLoop drives one pacer (WaitUntil, then SubmitAsync, on a seeded
// Poisson schedule) and one collector (Handle.Wait in admission order)
// over a fresh stack, the shape of the benchmark's open loop. Latency is
// Result.Latency plus the pacer's lateness, so it is timed from the
// scheduled arrival.
func runOpenLoop(t *testing.T, seed uint64, n int) openLoopRun {
	t.Helper()
	h := newHarness(t, 12, ssd.Config{}, Config{}, nil)
	type pending struct {
		h    *Handle
		late sim.Duration
	}
	inflight := make(chan pending, h.srv.Config().MaxQueue+1)
	lats := make(chan []sim.Duration, 1)
	go func() {
		var lat []sim.Duration
		for p := range inflight {
			res, err := p.h.Wait(context.Background())
			if err != nil {
				t.Errorf("collector: %v", err)
				continue
			}
			lat = append(lat, res.Latency+p.late)
		}
		lats <- lat
	}()
	rng := sim.NewRNG(seed)
	const rate = 30_000.0 // arrivals per virtual second: a queue builds
	due := h.srv.Now()
	for i := 0; i < n; i++ {
		due = due.Add(sim.Duration(-math.Log(1-rng.Float64()) / rate * float64(sim.Second)))
		if err := h.srv.WaitUntil(due); err != nil {
			t.Fatalf("arrival %d: WaitUntil: %v", i, err)
		}
		late := h.srv.Now().Sub(due)
		key := fmt.Sprintf("k%03d", rng.Intn(200))
		req := get(key)
		if rng.Intn(2) == 0 {
			req = put(key, fmt.Sprintf("value-%d", i))
		}
		hd, err := h.srv.SubmitAsync(req)
		if err != nil {
			t.Fatalf("arrival %d: SubmitAsync: %v", i, err)
		}
		inflight <- pending{h: hd, late: late}
	}
	close(inflight)
	lat := <-lats
	return openLoopRun{lat: lat, final: h.srv.Now()}
}

// A seeded open loop decides the same things on every run, whatever the
// host does with its two goroutines: a woken pacer holds the clock until
// it submits. The collector may still serve between an admission and the
// pacer's next WaitUntil, which moves admission instants (see
// TestPacerWakeSlipsCompletionDoesNot) but, with one priority and nothing
// shed, no completion: so the test compares latency timed from the
// scheduled arrival.
func TestOpenLoopRepeats(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	const n = 3000
	var ref openLoopRun
	for _, procs := range []int{1, 4} {
		runtime.GOMAXPROCS(procs)
		for i := 0; i < 5; i++ {
			got := runOpenLoop(t, 0x0BE11, n)
			if len(got.lat) != n {
				t.Fatalf("GOMAXPROCS %d run %d: %d latencies, want %d", procs, i, len(got.lat), n)
			}
			if ref.lat == nil {
				ref = got
				continue
			}
			if got.final != ref.final {
				t.Fatalf("GOMAXPROCS %d run %d: final clock %v, first run %v", procs, i, got.final, ref.final)
			}
			if !reflect.DeepEqual(got.lat, ref.lat) {
				for k := range got.lat {
					if got.lat[k] != ref.lat[k] {
						t.Fatalf("GOMAXPROCS %d run %d: request %d latency %v, first run %v", procs, i, k, got.lat[k], ref.lat[k])
					}
				}
			}
		}
	}
	var queued int
	for _, l := range ref.lat {
		if l > 40*sim.Microsecond {
			queued++
		}
	}
	if queued < n/10 {
		t.Fatalf("only %d of %d requests waited behind another: the load never built a queue", queued, n)
	}
}

// within fails the test unless fn returns inside a real-time bound: the
// liveness tests' guard against a hang.
func within(t *testing.T, what string, fn func()) {
	t.Helper()
	done := make(chan struct{})
	go func() { defer close(done); fn() }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatalf("%s never returned", what)
	}
}

// A pacer whose last call is SubmitAsync has released the clock: the
// collector serves what is left and every outcome arrives.
func TestPacerStoppingAfterSubmitDelivers(t *testing.T) {
	h := newHarness(t, 16, ssd.Config{}, Config{}, nil)
	const n = 200
	handles := make(chan *Handle, n)
	due := h.srv.Now()
	for i := 0; i < n; i++ {
		due = due.Add(5 * sim.Microsecond) // faster than service: a backlog
		if err := h.srv.WaitUntil(due); err != nil {
			t.Fatal(err)
		}
		hd, err := h.srv.SubmitAsync(echo(i))
		if err != nil {
			t.Fatal(err)
		}
		handles <- hd
	}
	close(handles)
	if h.srv.QueueLen() == 0 {
		t.Fatal("the pacer left nothing queued: the collector proves nothing")
	}
	within(t, "the collector", func() {
		i := 0
		for hd := range handles {
			if res, err := hd.Wait(context.Background()); err != nil || res.Value != i {
				t.Errorf("request %d: %v, %v", i, res.Value, err)
			}
			i++
		}
	})
}

// slipRun queues two requests, lets a Handle.Wait serve both first when
// gap is set (a collector that runs between a pacer's admission and its
// next WaitUntil), then paces to a target the first request's service
// already passes and admits one arrival there. It returns the instant
// WaitUntil woke at and the arrival's outcome.
func slipRun(t *testing.T, gap bool) (woke sim.Time, res Result) {
	t.Helper()
	h := newHarness(t, 16, ssd.Config{}, Config{}, nil)
	target := h.srv.Now().Add(sim.Microsecond)
	a, err := h.srv.SubmitAsync(echo(0))
	if err != nil {
		t.Fatal(err)
	}
	b, err := h.srv.SubmitAsync(echo(1))
	if err != nil {
		t.Fatal(err)
	}
	if gap {
		if _, err := b.Wait(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	if err := h.srv.WaitUntil(target); err != nil {
		t.Fatal(err)
	}
	woke = h.srv.Now()
	c, err := h.srv.SubmitAsync(echo(2))
	if err != nil {
		t.Fatal(err)
	}
	for _, hd := range []*Handle{a, b, c} {
		if gap && hd == b {
			continue
		}
		if res, err = hd.Wait(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	return woke, res
}

// The hold covers only the pacer's own wake-to-admission step. A
// Handle.Wait that serves between the pacer's admission and its next
// WaitUntil serves past a target the server does not know yet, so the
// pacer wakes, and admits, at a later request boundary. With one
// priority the arrival still completes at the same instant.
func TestPacerWakeSlipsCompletionDoesNot(t *testing.T) {
	wokeOn, onTime := slipRun(t, false)
	wokeLate, slipped := slipRun(t, true)
	if wokeLate <= wokeOn {
		t.Fatalf("woke at %v after a collector served in the gap, %v without: no slip", wokeLate, wokeOn)
	}
	if slipped.Wait == onTime.Wait || slipped.Latency == onTime.Latency {
		t.Fatalf("slipped arrival waited %v (latency %v), on time %v (%v): want both to differ",
			slipped.Wait, slipped.Latency, onTime.Wait, onTime.Latency)
	}
	if done, want := wokeLate.Add(slipped.Latency), wokeOn.Add(onTime.Latency); done != want {
		t.Fatalf("slipped arrival completed at %v, on time at %v", done, want)
	}
}

// An admission the server refuses before looking at its state — no Op,
// both Op and Idem, no journal for Idem, a bad priority — still releases
// a held clock, so the queue behind it is served.
func TestRefusedAdmissionReleasesHeldClock(t *testing.T) {
	op := func(Exec) (any, error) { return nil, nil }
	idem := &IdemOp{Kind: IdemPut, Key: []byte("k"), Value: []byte("v")}
	for name, bad := range map[string]Request{
		"no op":        {Priority: PriorityNormal},
		"op and idem":  {Priority: PriorityNormal, Write: true, Op: op, Idem: idem, ClientID: 1, RequestSeq: 1},
		"no journal":   {Priority: PriorityNormal, Write: true, Idem: idem, ClientID: 1, RequestSeq: 1},
		"bad priority": {Priority: PriorityHigh + 1, Op: op},
	} {
		t.Run(name, func(t *testing.T) {
			h := newHarness(t, 16, ssd.Config{}, Config{}, nil)
			hs := heldWithQueue(t, h)
			if _, err := h.srv.SubmitAsync(bad); err == nil {
				t.Fatal("admitted")
			}
			within(t, "the queued requests", func() {
				for i, hd := range hs {
					if res, err := hd.Wait(context.Background()); err != nil || res.Value != i {
						t.Errorf("request %d: %v, %v", i, res.Value, err)
					}
				}
			})
		})
	}
}

// heldWithQueue leaves three requests queued behind a clock that a
// WaitUntil holds and that no admission has released.
func heldWithQueue(t *testing.T, h *harness) []*Handle {
	t.Helper()
	var hs []*Handle
	for i := 0; i < 3; i++ {
		hd, err := h.srv.SubmitAsync(echo(i))
		if err != nil {
			t.Fatal(err)
		}
		hs = append(hs, hd)
	}
	if err := h.srv.WaitUntil(h.srv.Now()); err != nil {
		t.Fatal(err)
	}
	if h.srv.QueueLen() != 3 {
		t.Fatalf("queue %d, want the 3 requests still queued", h.srv.QueueLen())
	}
	return hs
}

// A WaitUntil that no admission follows does not hang Stop: the waiting
// collector serves nothing while the clock is held, and Stop fails the
// queue with ErrServerClosed.
func TestHeldClockStops(t *testing.T) {
	h := newHarness(t, 16, ssd.Config{}, Config{}, nil)
	hs := heldWithQueue(t, h)
	errs := make(chan error, len(hs))
	go func() {
		for _, hd := range hs {
			_, err := hd.Wait(context.Background())
			errs <- err
		}
	}()
	waitFor(t, func() bool {
		h.srv.mu.Lock()
		defer h.srv.mu.Unlock()
		return h.srv.parked == 1
	})
	if q := h.srv.QueueLen(); q != 3 {
		t.Fatalf("a Handle.Wait served under a held clock: queue %d, want 3", q)
	}
	within(t, "Stop", h.srv.Stop)
	for i := range hs {
		if err := <-errs; !errors.Is(err, ErrServerClosed) {
			t.Fatalf("request %d: %v, want ErrServerClosed", i, err)
		}
	}
}

// A Handle.Wait blocked by a held clock still answers its context.
func TestHeldClockWaitCancels(t *testing.T) {
	h := newHarness(t, 16, ssd.Config{}, Config{}, nil)
	hs := heldWithQueue(t, h)
	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		_, err := hs[0].Wait(ctx)
		errc <- err
	}()
	waitFor(t, func() bool {
		h.srv.mu.Lock()
		defer h.srv.mu.Unlock()
		return h.srv.parked == 1
	})
	cancel()
	if err := <-errc; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled Wait: %v, want context.Canceled", err)
	}
	if st := h.srv.Stats(); st.Cancelled != 1 {
		t.Fatalf("Cancelled = %d, want 1", st.Cancelled)
	}
	// The next admission releases the clock and the rest is served.
	last, err := h.srv.SubmitAsync(echo(3))
	if err != nil {
		t.Fatal(err)
	}
	for i, hd := range append(hs[1:], last) {
		if res, err := hd.Wait(context.Background()); err != nil || res.Value != i+1 {
			t.Fatalf("request %d: %v, %v", i+1, res.Value, err)
		}
	}
}

// A foreign panic in a request that a WaitUntil serves propagates on the
// pacer's goroutine and leaves a server that refuses work and still
// stops — TestDirectForeignPanic, driven by the pacer.
func TestPacedForeignPanic(t *testing.T) {
	h, _, _ := newCrashHarness(t, 64)
	if err := h.srv.Start(); err != nil {
		t.Fatal(err)
	}
	if _, err := h.srv.SubmitAsync(Request{Priority: PriorityNormal, Op: func(Exec) (any, error) {
		panic("boom")
	}}); err != nil {
		t.Fatal(err)
	}
	behind, err := h.srv.SubmitAsync(echo(1))
	if err != nil {
		t.Fatal(err)
	}
	got := func() (r any) {
		defer func() { r = recover() }()
		_ = h.srv.WaitUntil(h.srv.Now().Add(sim.Millisecond))
		return nil
	}()
	if got != "boom" {
		t.Fatalf("recovered %v, want the op's own panic", got)
	}
	if powerFailed(h.srv) {
		t.Fatal("a foreign panic was taken for a power failure")
	}
	if _, err := behind.Wait(context.Background()); !errors.Is(err, ErrServerClosed) {
		t.Fatalf("request queued behind the panic: %v, want ErrServerClosed", err)
	}
	if _, err := h.srv.Submit(context.Background(), get("k")); !errors.Is(err, ErrServerClosed) {
		t.Fatalf("Submit after the panic: %v, want ErrServerClosed", err)
	}
	if err := h.srv.WaitUntil(h.srv.Now().Add(sim.Second)); !errors.Is(err, ErrServerClosed) {
		t.Fatalf("WaitUntil after the panic: %v, want ErrServerClosed", err)
	}
	within(t, "Stop", h.srv.Stop)
}

// Two pacers blocked behind a busy stack: whichever of them serves the
// idle advance stops it at the earlier target, so the earlier pacer wakes
// at its own target rather than at the later one's. (The later pacer may
// move the clock on again as soon as the earlier one has returned, so a
// round in which the earlier one reads the clock late proves nothing;
// one that reads its own target shows the advance stopped there.)
func TestEarlierPacerWakesFirst(t *testing.T) {
	h := newHarness(t, 16, ssd.Config{}, Config{}, nil)
	exact := 0
	for round := 0; round < 20; round++ {
		_, release, gated := gate(t, h.srv)
		early, late := h.srv.Now().Add(100*sim.Microsecond), h.srv.Now().Add(300*sim.Microsecond)
		woke := make(chan sim.Time, 2)
		pace := func(target sim.Time) {
			if err := h.srv.WaitUntil(target); err != nil {
				t.Error(err)
			}
			woke <- h.srv.Now()
		}
		go pace(late)
		waitFor(t, func() bool {
			h.srv.mu.Lock()
			defer h.srv.mu.Unlock()
			return len(h.srv.pacers) == 1
		})
		go pace(early)
		waitFor(t, func() bool {
			h.srv.mu.Lock()
			defer h.srv.mu.Unlock()
			return len(h.srv.pacers) == 2
		})
		close(release)
		if err := <-gated; err != nil {
			t.Fatal(err)
		}
		first, second := <-woke, <-woke
		if first < early || second < early || max(first, second) < late {
			t.Fatalf("round %d: pacers woke at %v and %v for targets %v and %v", round, first, second, early, late)
		}
		if min(first, second) == early {
			exact++
		}
	}
	if exact == 0 {
		t.Fatal("the earlier pacer never woke at its own target: the idle advance went to the later one")
	}
}
