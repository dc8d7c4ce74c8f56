package serve

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"viyojit/internal/core"
	"viyojit/internal/obs"
	"viyojit/internal/sim"
	"viyojit/internal/ssd"
)

// callerFuncs names every function on the calling goroutine's stack, one
// per line.
func callerFuncs() string {
	pc := make([]uintptr, 64)
	frames := runtime.CallersFrames(pc[:runtime.Callers(1, pc)])
	var names []string
	for {
		f, more := frames.Next()
		names = append(names, f.Function)
		if !more {
			return strings.Join(names, "\n")
		}
	}
}

// A closed-loop client on an idle server serves its own request: the op
// runs on the goroutine that called Submit, not on a server goroutine.
func TestSubmitRunsOnCaller(t *testing.T) {
	h := newHarness(t, 16, ssd.Config{}, Config{}, nil)
	var stack string
	if _, err := h.srv.Submit(context.Background(), Request{Priority: PriorityNormal, Op: func(Exec) (any, error) {
		stack = callerFuncs()
		return nil, nil
	}}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(stack, "TestSubmitRunsOnCaller") || strings.Contains(stack, "(*Server).loop") {
		t.Fatalf("the op did not run on its caller's goroutine:\n%s", stack)
	}
	if st := h.srv.Stats(); st.MaxQueueObserved != 1 || st.Completed != 1 || h.srv.QueueLen() != 0 {
		t.Fatalf("stats %+v, queue %d: a direct request must book as depth 1, then 0", st, h.srv.QueueLen())
	}
}

// One seeded script of puts, gets, failing ops, idle advances and writes
// that run the dirty set into its budget, served through Submit on one
// stack and through SubmitAsync+Wait on its twin: every outcome, counter,
// manager statistic and the whole observability export must agree. Which
// goroutine serves a request is not allowed to show in virtual time.
func TestDirectMatchesQueued(t *testing.T) {
	type twin struct {
		h   *harness
		reg *obs.Registry
		raw *core.Mapping
	}
	build := func() twin {
		var tw twin
		tw.reg = obs.NewRegistry()
		// A slow device, so the budget hits stall admissions and the stall
		// predictor sheds some deadlines.
		dev := ssd.Config{WriteBandwidth: 64 << 20, PerIOLatency: 20 * sim.Microsecond}
		tw.h = newHarness(t, 8, dev, Config{Obs: tw.reg}, func(m *core.Manager) {
			raw, err := m.Map("raw", 32*4096)
			if err != nil {
				t.Fatal(err)
			}
			tw.raw = raw
		})
		return tw
	}
	direct, queued := build(), build()

	type outcome struct {
		res Result
		err string
	}
	run := func(tw twin, async bool) []outcome {
		rng := sim.NewRNG(0xD1EC7)
		ctx := context.Background()
		var outs []outcome
		for i := 0; i < 600; i++ {
			var req Request
			key := fmt.Sprintf("k%02d", rng.Intn(40))
			switch p := rng.Float64(); {
			case p < 0.35:
				req = put(key, strings.Repeat("v", 8+rng.Intn(120)))
			case p < 0.65:
				req = get(key)
			case p < 0.9:
				off := int64(rng.Intn(32))*4096 + int64(rng.Intn(4096))
				req = Request{Priority: PriorityNormal, Write: true, Op: func(e Exec) (any, error) {
					return off, tw.raw.WriteAt([]byte{byte(off)}, off)
				}}
				if rng.Intn(3) == 0 {
					req.Timeout = sim.Duration(25+rng.Intn(100)) * sim.Microsecond
				}
			case p < 0.95:
				req = Request{Priority: PriorityNormal, Op: func(Exec) (any, error) { return nil, errors.New("op failed") }}
			default:
				if err := tw.h.srv.WaitUntil(tw.h.srv.Now().Add(sim.Duration(rng.Intn(3000)) * sim.Microsecond)); err != nil {
					t.Fatal(err)
				}
				continue
			}
			var o outcome
			var err error
			if async {
				var hd *Handle
				if hd, err = tw.h.srv.SubmitAsync(req); err == nil {
					o.res, err = hd.Wait(ctx)
				}
			} else {
				o.res, err = tw.h.srv.Submit(ctx, req)
			}
			if err != nil {
				o.err = err.Error()
			}
			outs = append(outs, o)
		}
		tw.h.srv.Stop() // joins the owner: the manager is the test's again
		return outs
	}
	got, want := run(direct, false), run(queued, true)

	if len(got) != len(want) {
		t.Fatalf("%d outcomes direct, %d queued", len(got), len(want))
	}
	for i := range got {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Fatalf("request %d: direct %+v, queued %+v", i, got[i], want[i])
		}
	}
	if g, w := direct.h.srv.Stats(), queued.h.srv.Stats(); g != w {
		t.Fatalf("serve stats: direct %+v, queued %+v", g, w)
	}
	gm, wm := direct.h.mgr.Stats(), queued.h.mgr.Stats()
	if !reflect.DeepEqual(gm, wm) {
		t.Fatalf("manager stats: direct %+v, queued %+v", gm, wm)
	}
	if st := direct.h.srv.Stats(); gm.ForcedCleans == 0 || st.StallPredicted == 0 || st.Failed == 0 {
		t.Fatalf("the script missed a path: %d forced cleans, serve stats %+v", gm.ForcedCleans, st)
	}
	var ge, we bytes.Buffer
	if err := direct.reg.Export().WriteText(&ge); err != nil {
		t.Fatal(err)
	}
	if err := queued.reg.Export().WriteText(&we); err != nil {
		t.Fatal(err)
	}
	if ge.String() != we.String() {
		t.Fatalf("observability exports differ:\ndirect:\n%s\nqueued:\n%s", ge.String(), we.String())
	}
}

// A power failure striking a request served on its caller fails that
// request typed, kills the server exactly as one striking a queued
// request does, and leaves nothing running after Stop.
func TestDirectPowerFailure(t *testing.T) {
	base := runtime.NumGoroutine()
	h, crasher, events := newCrashHarness(t, 64)
	crasher.ArmAt(events.Fired() + 1) // the op's own post-op pump fires it
	if err := h.srv.Start(); err != nil {
		t.Fatal(err)
	}
	var stack string
	_, err := h.srv.Submit(context.Background(), Request{Priority: PriorityNormal, Write: true, Op: func(e Exec) (any, error) {
		stack = callerFuncs()
		events.Schedule(e.Now, func(sim.Time) {})
		return nil, e.Store.Put([]byte("k"), []byte("v"))
	}})
	if !errors.Is(err, ErrPowerFailure) {
		t.Fatalf("Submit struck mid-request: %v, want ErrPowerFailure", err)
	}
	if !strings.Contains(stack, "TestDirectPowerFailure") {
		t.Fatalf("the op did not run on its caller's goroutine:\n%s", stack)
	}
	if _, crashed := crasher.Crashed(); !crashed || !powerFailed(h.srv) {
		t.Fatal("the power failure was not recorded")
	}
	if _, err := h.srv.SubmitAsync(put("x", "y")); !errors.Is(err, ErrPowerFailure) {
		t.Fatalf("post-crash SubmitAsync: %v, want ErrPowerFailure", err)
	}
	if _, err := h.srv.Submit(context.Background(), put("x", "y")); !errors.Is(err, ErrPowerFailure) {
		t.Fatalf("post-crash Submit: %v, want ErrPowerFailure", err)
	}
	if err := h.srv.WaitUntil(h.srv.Now().Add(sim.Second)); !errors.Is(err, ErrPowerFailure) {
		t.Fatalf("post-crash WaitUntil: %v, want ErrPowerFailure", err)
	}
	h.srv.Stop() // must join, not hang
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines live after Stop, %d before the server", runtime.NumGoroutine(), base)
		}
		time.Sleep(time.Millisecond)
	}
}

// A panic that is not a power failure propagates on the caller's own
// goroutine, and leaves a server that refuses work and still stops.
func TestDirectForeignPanic(t *testing.T) {
	h, _, _ := newCrashHarness(t, 64)
	if err := h.srv.Start(); err != nil {
		t.Fatal(err)
	}
	got := func() (r any) {
		defer func() { r = recover() }()
		_, _ = h.srv.Submit(context.Background(), Request{Priority: PriorityNormal, Op: func(Exec) (any, error) {
			panic("boom")
		}})
		return nil
	}()
	if got != "boom" {
		t.Fatalf("recovered %v, want the op's own panic", got)
	}
	if powerFailed(h.srv) {
		t.Fatal("a foreign panic was taken for a power failure")
	}
	if _, err := h.srv.Submit(context.Background(), get("k")); !errors.Is(err, ErrServerClosed) {
		t.Fatalf("Submit after the panic: %v, want ErrServerClosed", err)
	}
	h.srv.Stop() // must join, not hang
}

// Stop waits for a request its caller is serving: that request gets its
// own result, and everything after the stop gets ErrServerClosed.
func TestDirectStopWaits(t *testing.T) {
	h := newHarness(t, 16, ssd.Config{}, Config{}, nil)
	entered, release := make(chan struct{}), make(chan struct{})
	type out struct {
		res Result
		err error
	}
	done := make(chan out, 1)
	go func() {
		res, err := h.srv.Submit(context.Background(), Request{Priority: PriorityNormal, Op: func(Exec) (any, error) {
			close(entered)
			<-release
			return "mine", nil
		}})
		done <- out{res, err}
	}()
	<-entered
	stopped := make(chan struct{})
	go func() { h.srv.Stop(); close(stopped) }()
	waitFor(t, func() bool {
		h.srv.mu.Lock()
		defer h.srv.mu.Unlock()
		return h.srv.stopping
	})
	if _, err := h.srv.Submit(context.Background(), get("k")); !errors.Is(err, ErrServerClosed) {
		t.Fatalf("Submit while stopping: %v, want ErrServerClosed", err)
	}
	select {
	case <-stopped:
		t.Fatal("Stop returned while a caller still owned the stack")
	default:
	}
	close(release)
	if o := <-done; o.err != nil || o.res.Value != "mine" {
		t.Fatalf("the gated request got %v, %v; want its own result", o.res.Value, o.err)
	}
	<-stopped
	if _, err := h.srv.Submit(context.Background(), get("k")); !errors.Is(err, ErrServerClosed) {
		t.Fatalf("Submit after Stop: %v, want ErrServerClosed", err)
	}
}

// BenchmarkSubmitRoundTrip is the host cost of one no-op request.
// direct is a closed-loop Submit on an idle server, served on the
// caller's goroutine; queued is SubmitAsync+Wait, which pushes onto the
// queue and pops the request back off on the waiting caller.
func BenchmarkSubmitRoundTrip(b *testing.B) {
	req := Request{Priority: PriorityNormal, Op: func(Exec) (any, error) { return nil, nil }}
	ctx := context.Background()
	b.Run("direct", func(b *testing.B) {
		h := newHarness(b, 16, ssd.Config{}, Config{}, nil)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := h.srv.Submit(ctx, req); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("queued", func(b *testing.B) {
		h := newHarness(b, 16, ssd.Config{}, Config{}, nil)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			hd, err := h.srv.SubmitAsync(req)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := hd.Wait(ctx); err != nil {
				b.Fatal(err)
			}
		}
	})
}
