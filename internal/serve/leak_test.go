// Package serve_test holds the serving-layer tests that exercise the
// full public stack (they import the viyojit root, which internal/serve
// cannot without a cycle): the goroutine-leak checker and the
// concurrency chaos test.
package serve_test

import (
	"context"
	"runtime"
	"testing"
	"time"

	"viyojit"
)

// checkLeaks snapshots the goroutine count and returns a verifier to
// defer: it fails the test (with full stacks) if the count has not
// returned to the baseline within a grace window. Hand-rolled on
// runtime.NumGoroutine so it needs no dependencies; the retry loop
// absorbs goroutines that are mid-exit when the test body returns.
func checkLeaks(t *testing.T) func() {
	t.Helper()
	runtime.GC()
	base := runtime.NumGoroutine()
	return func() {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for {
			runtime.GC()
			n := runtime.NumGoroutine()
			if n <= base {
				return
			}
			if time.Now().After(deadline) {
				buf := make([]byte, 1<<20)
				m := runtime.Stack(buf, true)
				t.Fatalf("goroutine leak: %d live, baseline %d\n%s", n, base, buf[:m])
			}
			time.Sleep(10 * time.Millisecond)
		}
	}
}

func newSystem(t *testing.T) *viyojit.System {
	t.Helper()
	sys, err := viyojit.New(viyojit.Config{
		NVDRAMSize:           4 << 20,
		DisableHealthMonitor: true,
		DisableScrubber:      true,
	})
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

func TestServeStartStopNoLeak(t *testing.T) {
	verify := checkLeaks(t)
	sys := newSystem(t)
	store, err := sys.NewStore("leak", 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := sys.Serve(store, viyojit.ServeConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := srv.Submit(context.Background(), viyojit.ServeRequest{
		Write: true,
		Op: func(e viyojit.ServeExec) (any, error) {
			return nil, e.Store.Put([]byte("k"), []byte("v"))
		},
	}); err != nil {
		t.Fatal(err)
	}
	srv.Stop()
	sys.Close()
	verify()
}

func TestSystemLifecycleNoLeak(t *testing.T) {
	// The scrubber, health monitor and server are event-driven or driven
	// by their callers (no goroutines of their own), and Close must stop
	// the server even with work queued.
	verify := checkLeaks(t)
	sys, err := viyojit.New(viyojit.Config{NVDRAMSize: 4 << 20})
	if err != nil {
		t.Fatal(err)
	}
	store, err := sys.NewStore("leak2", 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := sys.Serve(store, viyojit.ServeConfig{})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 50; i++ {
			_, err := srv.Submit(context.Background(), viyojit.ServeRequest{
				Write: true,
				Op: func(e viyojit.ServeExec) (any, error) {
					return nil, e.Store.Put([]byte("key"), []byte("value"))
				},
			})
			if err != nil {
				return // ErrServerClosed once Close lands — expected
			}
		}
	}()
	time.Sleep(5 * time.Millisecond) // let some submits land
	sys.Close()
	<-done
	verify()
}

func TestRepeatedServeCyclesNoLeak(t *testing.T) {
	verify := checkLeaks(t)
	for i := 0; i < 10; i++ {
		sys := newSystem(t)
		store, err := sys.NewStore("cycle", 1<<20)
		if err != nil {
			t.Fatal(err)
		}
		srv, err := sys.Serve(store, viyojit.ServeConfig{})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := srv.Submit(context.Background(), viyojit.ServeRequest{
			Op: func(e viyojit.ServeExec) (any, error) {
				_, _, err := e.Store.Get([]byte("missing"))
				return nil, err
			},
		}); err != nil {
			t.Fatal(err)
		}
		sys.Close() // stops the server too
	}
	verify()
}
