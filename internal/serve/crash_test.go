package serve

import (
	"context"
	"errors"
	"sync"
	"testing"

	"viyojit/internal/core"
	"viyojit/internal/faultinject"
	"viyojit/internal/kvstore"
	"viyojit/internal/nvdram"
	"viyojit/internal/pheap"
	"viyojit/internal/sim"
	"viyojit/internal/ssd"
)

// powerFailed reports whether a simulated power failure killed s.
func powerFailed(s *Server) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.crashed
}

// newCrashHarness builds a stack with a Crasher installed before Start
// and the server wired to recover its signal.
func newCrashHarness(t *testing.T, budget int) (*harness, *faultinject.Crasher, *sim.Queue) {
	t.Helper()
	clock := sim.NewClock()
	events := sim.NewQueue()
	region, err := nvdram.New(clock, nvdram.Config{Size: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	dev := ssd.New(clock, events, ssd.Config{})
	mgr, err := core.NewManager(clock, events, region, dev, core.Config{DirtyBudgetPages: budget})
	if err != nil {
		t.Fatal(err)
	}
	mapping, err := mgr.Map("heap", 256<<10)
	if err != nil {
		t.Fatal(err)
	}
	heap, err := pheap.Format(mapping)
	if err != nil {
		t.Fatal(err)
	}
	store, err := kvstore.Create(heap, 64)
	if err != nil {
		t.Fatal(err)
	}
	crasher := faultinject.NewCrasher(events)
	srv, err := New(clock, events, mgr, store, Config{
		RecoverCrash: func(v any) bool { _, ok := faultinject.AsCrash(v); return ok },
	})
	if err != nil {
		t.Fatal(err)
	}
	h := &harness{srv: srv, mgr: mgr, store: store, mapping: mapping}
	t.Cleanup(func() { h.srv.Stop() })
	return h, crasher, events
}

// A power failure mid-traffic must fail the in-flight request, every
// queued request, and every waiter with ErrPowerFailure — and later
// submissions must see the same typed error, while Stop still joins
// cleanly.
func TestPowerFailureFailsEverythingTyped(t *testing.T) {
	h, crasher, events := newCrashHarness(t, 64)
	crasher.ArmAt(events.Fired() + 1) // crash on the very next event that fires
	if err := h.srv.Start(); err != nil {
		t.Fatal(err)
	}

	_, release, gdone := gate(t, h.srv)
	var handles []*Handle
	// The first queued request plants a due event; serveOne's post-op
	// pump fires it and hits the armed crash — power fails after the op
	// applied but before its ack, with four requests still queued.
	hd0, err := h.srv.SubmitAsync(Request{Priority: PriorityNormal, Write: true, Op: func(e Exec) (any, error) {
		events.Schedule(e.Now, func(sim.Time) {})
		return nil, e.Store.Put([]byte("k"), []byte("v"))
	}})
	if err != nil {
		t.Fatal(err)
	}
	handles = append(handles, hd0)
	for i := 0; i < 4; i++ {
		hd, err := h.srv.SubmitAsync(put("k", "012345678901234567890123456789"))
		if err != nil {
			t.Fatal(err)
		}
		handles = append(handles, hd)
	}
	waitErr := make(chan error, 1)
	go func() { waitErr <- h.srv.WaitUntil(h.srv.Now().Add(sim.Second)) }()
	waitQueueLen(t, h.srv, 5)
	close(release)
	if err := <-gdone; err != nil {
		t.Fatalf("gated op should have completed before the crash: %v", err)
	}

	failures := 0
	for _, hd := range handles {
		_, err := hd.Wait(context.Background())
		if err == nil {
			continue // served before the crash landed
		}
		if !errors.Is(err, ErrPowerFailure) {
			t.Fatalf("queued request err = %v, want ErrPowerFailure", err)
		}
		failures++
	}
	if failures != 5 {
		t.Fatalf("%d of 5 requests observed the power failure, want all", failures)
	}
	if err := <-waitErr; !errors.Is(err, ErrPowerFailure) {
		t.Fatalf("waiter err = %v, want ErrPowerFailure", err)
	}
	if !powerFailed(h.srv) {
		t.Fatal("no power failure recorded after crash")
	}
	if _, err := h.srv.SubmitAsync(put("x", "y")); !errors.Is(err, ErrPowerFailure) {
		t.Fatalf("post-crash submit err = %v, want ErrPowerFailure", err)
	}
	if err := h.srv.WaitUntil(h.srv.Now().Add(sim.Second)); !errors.Is(err, ErrPowerFailure) {
		t.Fatalf("post-crash WaitUntil err = %v, want ErrPowerFailure", err)
	}
	if cp, crashed := crasher.Crashed(); !crashed || cp.Step == 0 {
		t.Fatalf("crasher state: %+v %v", cp, crashed)
	}
	h.srv.Stop() // must join, not hang
}

// The recovery filter must never classify a foreign panic value as a
// power failure — real bugs crash the process, they don't masquerade as
// ErrPowerFailure (the filter returning false makes step re-panic).
func TestAsCrashRejectsForeignPanics(t *testing.T) {
	for _, v := range []any{"boom", errors.New("bug"), 42, nil, struct{}{}} {
		if _, ok := faultinject.AsCrash(v); ok {
			t.Fatalf("AsCrash accepted %#v", v)
		}
	}
}

// Satellite regression: Submit/SubmitAsync racing Stop must always
// resolve to a typed error or success — never a hang, and never a
// misleading queue-full — and post-Stop submissions must return
// ErrServerClosed even when the queue was full at stop time.
func TestStopSubmitRace(t *testing.T) {
	h := newHarness(t, 64, ssd.Config{}, Config{MaxQueue: 4}, nil)

	// Deterministic half: gate the loop, fill the queue to the brim,
	// then Stop concurrently. stopping is checked before queue-full, so
	// the verdict must be ErrServerClosed, not ErrOverloaded.
	_, release, gdone := gate(t, h.srv)
	for i := 0; i < 4; i++ {
		if _, err := h.srv.SubmitAsync(put("k", "v")); err != nil {
			t.Fatal(err)
		}
	}
	stopDone := make(chan struct{})
	go func() { h.srv.Stop(); close(stopDone) }()
	// Wait until Stop has marked the server stopping.
	waitFor(t, func() bool {
		h.srv.mu.Lock()
		defer h.srv.mu.Unlock()
		return h.srv.stopping
	})
	if _, err := h.srv.SubmitAsync(put("k", "v")); !errors.Is(err, ErrServerClosed) {
		t.Fatalf("submit-after-stop err = %v, want ErrServerClosed (queue full must not mask it)", err)
	}
	if !errors.Is(ErrServerClosed, ErrClosed) {
		t.Fatal("ErrServerClosed must match the historical ErrClosed")
	}
	close(release)
	<-gdone
	<-stopDone

	if _, err := h.srv.SubmitAsync(put("k", "v")); !errors.Is(err, ErrServerClosed) {
		t.Fatalf("post-stop submit err = %v, want ErrServerClosed", err)
	}
	if err := h.srv.WaitUntil(h.srv.Now().Add(sim.Second)); !errors.Is(err, ErrServerClosed) {
		t.Fatalf("post-stop WaitUntil err = %v, want ErrServerClosed", err)
	}
}

// Hammer half of the satellite regression, meant for -race: many
// goroutines submitting while Stop lands mid-storm. Every outcome must
// be success or a typed rejection; everything must terminate.
func TestStopSubmitRaceHammer(t *testing.T) {
	h := newHarness(t, 64, ssd.Config{}, Config{MaxQueue: 16}, nil)
	var wg sync.WaitGroup
	errs := make(chan error, 8*50)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				_, err := h.srv.Submit(context.Background(), put("k", "v"))
				errs <- err
			}
		}()
	}
	h.srv.Stop()
	wg.Wait()
	close(errs)
	for err := range errs {
		if err == nil || errors.Is(err, ErrServerClosed) || errors.Is(err, ErrOverloaded) || errors.Is(err, ErrDeadlineExceeded) {
			continue
		}
		t.Fatalf("untyped outcome from Submit/Stop race: %v", err)
	}
}
