package serve

import (
	"context"
	"errors"
	"testing"
	"time"

	"viyojit/internal/core"
	"viyojit/internal/kvstore"
	"viyojit/internal/nvdram"
	"viyojit/internal/pheap"
	"viyojit/internal/sim"
	"viyojit/internal/ssd"
)

type harness struct {
	srv     *Server
	mgr     *core.Manager
	store   *kvstore.Store
	mapping *core.Mapping
}

// newHarness assembles a small Viyojit stack fronted by a started
// server. prep runs single-threaded before Start (e.g. to pre-set a
// ladder state). A registry in cfg.Obs is the manager's too, as
// viyojit.System wires it.
func newHarness(t testing.TB, budget int, devCfg ssd.Config, cfg Config, prep func(*core.Manager)) *harness {
	t.Helper()
	clock := sim.NewClock()
	events := sim.NewQueue()
	region, err := nvdram.New(clock, nvdram.Config{Size: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	dev := ssd.New(clock, events, devCfg)
	mgr, err := core.NewManager(clock, events, region, dev, core.Config{DirtyBudgetPages: budget, Obs: cfg.Obs})
	if err != nil {
		t.Fatal(err)
	}
	mapping, err := mgr.Map("heap", 512<<10)
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
	if prep != nil {
		prep(mgr)
	}
	srv, err := New(clock, events, mgr, store, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	h := &harness{srv: srv, mgr: mgr, store: store, mapping: mapping}
	t.Cleanup(func() {
		h.srv.Stop()
		if !h.mgr.Closed() {
			h.mgr.Close()
		}
	})
	return h
}

func put(key, val string) Request {
	return Request{Priority: PriorityNormal, Write: true, Op: func(e Exec) (any, error) {
		return nil, e.Store.Put([]byte(key), []byte(val))
	}}
}

func get(key string) Request {
	return Request{Priority: PriorityNormal, Op: func(e Exec) (any, error) {
		v, ok, err := e.Store.Get([]byte(key))
		if err != nil || !ok {
			return nil, err
		}
		return string(v), err
	}}
}

// gate submits a request whose Op signals entry and then blocks until
// released — the deterministic way to hold the stack busy while
// the test arranges queue contents.
func gate(t *testing.T, srv *Server) (entered chan struct{}, release chan struct{}, done chan error) {
	t.Helper()
	entered = make(chan struct{})
	release = make(chan struct{})
	done = make(chan error, 1)
	go func() {
		_, err := srv.Submit(context.Background(), Request{
			Class:    ClassBackground,
			Priority: PriorityHigh,
			Op: func(Exec) (any, error) {
				close(entered)
				<-release
				return nil, nil
			},
		})
		done <- err
	}()
	<-entered
	return entered, release, done
}

// waitQueueLen polls until occupancy reaches want (real-time bounded).
func waitQueueLen(t *testing.T, srv *Server, want int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for srv.QueueLen() < want {
		if time.Now().After(deadline) {
			t.Fatalf("queue never reached %d (at %d)", want, srv.QueueLen())
		}
		time.Sleep(time.Millisecond)
	}
}

func TestSubmitPutGet(t *testing.T) {
	h := newHarness(t, 16, ssd.Config{}, Config{}, nil)
	ctx := context.Background()
	if _, err := h.srv.Submit(ctx, put("k1", "v1")); err != nil {
		t.Fatalf("put: %v", err)
	}
	res, err := h.srv.Submit(ctx, get("k1"))
	if err != nil {
		t.Fatalf("get: %v", err)
	}
	if res.Value != "v1" {
		t.Fatalf("get returned %v, want v1", res.Value)
	}
	if res.Latency <= 0 {
		t.Fatalf("latency %v, want > 0", res.Latency)
	}
	st := h.srv.Stats()
	if st.Completed != 2 || st.Submitted != 2 || st.ShedOverload+st.ShedDeadline+st.ShedReadOnly != 0 {
		t.Fatalf("stats %+v, want 2 submitted/completed, 0 shed", st)
	}
}

func TestQueueFullShedsOverloaded(t *testing.T) {
	h := newHarness(t, 16, ssd.Config{}, Config{MaxQueue: 4}, nil)
	_, release, done := gate(t, h.srv)

	results := make(chan error, 4)
	for i := 0; i < 4; i++ {
		go func() {
			_, err := h.srv.Submit(context.Background(), get("missing"))
			results <- err
		}()
	}
	waitQueueLen(t, h.srv, 4)

	// Queue is at MaxQueue: the next submit sheds synchronously.
	_, err := h.srv.Submit(context.Background(), get("missing"))
	if !errors.Is(err, ErrOverloaded) {
		t.Fatalf("submit at full queue: %v, want ErrOverloaded", err)
	}
	if st := h.srv.Stats(); st.ShedOverload != 1 {
		t.Fatalf("ShedOverload = %d, want 1", st.ShedOverload)
	}
	if st := h.srv.Stats(); st.MaxQueueObserved > 4 {
		t.Fatalf("MaxQueueObserved = %d exceeds bound 4", st.MaxQueueObserved)
	}

	close(release)
	if err := <-done; err != nil {
		t.Fatalf("gate op: %v", err)
	}
	for i := 0; i < 4; i++ {
		if err := <-results; err != nil {
			t.Fatalf("queued op %d: %v", i, err)
		}
	}
}

func TestWatermarkShedsLowPriorityOnly(t *testing.T) {
	h := newHarness(t, 16, ssd.Config{}, Config{MaxQueue: 8}, nil)
	_, release, done := gate(t, h.srv)

	results := make(chan error, 7)
	for i := 0; i < 6; i++ {
		go func() {
			_, err := h.srv.Submit(context.Background(), get("missing"))
			results <- err
		}()
	}
	waitQueueLen(t, h.srv, 6)

	// Occupancy 6 ≥ 0.75×8: low priority sheds, normal still admitted.
	low := get("missing")
	low.Priority = PriorityLow
	if _, err := h.srv.Submit(context.Background(), low); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("low-priority at watermark: %v, want ErrOverloaded", err)
	}
	go func() {
		_, err := h.srv.Submit(context.Background(), get("missing"))
		results <- err
	}()
	waitQueueLen(t, h.srv, 7)

	close(release)
	<-done
	for i := 0; i < 7; i++ {
		if err := <-results; err != nil {
			t.Fatalf("queued op %d: %v", i, err)
		}
	}
}

func TestDeadlineMissedInQueue(t *testing.T) {
	h := newHarness(t, 16, ssd.Config{}, Config{}, nil)
	_, release, done := gate(t, h.srv)

	// Queued behind the gate and one more request, with a deadline
	// shorter than that request's service time: by dequeue the deadline
	// has passed.
	ahead := make(chan error, 1)
	go func() {
		_, err := h.srv.Submit(context.Background(), get("missing"))
		ahead <- err
	}()
	waitQueueLen(t, h.srv, 1)
	r := get("missing")
	r.Timeout = ServiceTime / 2
	errc := make(chan error, 1)
	go func() {
		_, err := h.srv.Submit(context.Background(), r)
		errc <- err
	}()
	waitQueueLen(t, h.srv, 2)

	close(release)
	<-done
	if err := <-ahead; err != nil {
		t.Fatalf("request ahead: %v", err)
	}
	if err := <-errc; !errors.Is(err, ErrDeadlineExceeded) {
		t.Fatalf("queued past deadline: %v, want ErrDeadlineExceeded", err)
	}
	if st := h.srv.Stats(); st.ShedDeadline != 1 || st.StallPredicted != 0 {
		t.Fatalf("stats %+v, want ShedDeadline=1 via queue wait", st)
	}
}

func TestStallPredictionRejectsTightDeadline(t *testing.T) {
	// Slow SSD: ~1 MiB/s + 1 ms per IO ≈ 5 ms per page clean.
	h := newHarness(t, 4, ssd.Config{WriteBandwidth: 1 << 20, PerIOLatency: sim.Millisecond}, Config{}, nil)
	ctx := context.Background()

	// Fill the dirty set exactly to budget with raw page writes.
	for i := 0; i < 4; i++ {
		off := int64(i) * 4096
		if _, err := h.srv.Submit(ctx, Request{Priority: PriorityNormal, Write: true, Op: func(e Exec) (any, error) {
			return nil, h.mapping.WriteAt([]byte{1}, off)
		}}); err != nil {
			t.Fatalf("fill write %d: %v", i, err)
		}
	}
	if got := h.mgr.DirtyCount(); got != 4 {
		t.Fatalf("dirty = %d after fill, want 4", got)
	}

	// A write with a deadline tighter than one predicted page-clean
	// stall must be rejected without executing.
	tight := Request{Priority: PriorityNormal, Write: true, Timeout: sim.Millisecond, Op: func(e Exec) (any, error) {
		return nil, h.mapping.WriteAt([]byte{2}, 4*4096)
	}}
	if _, err := h.srv.Submit(ctx, tight); !errors.Is(err, ErrDeadlineExceeded) {
		t.Fatalf("tight-deadline write at budget: %v, want ErrDeadlineExceeded", err)
	}
	st := h.srv.Stats()
	if st.StallPredicted != 1 || st.ShedDeadline != 1 {
		t.Fatalf("stats %+v, want StallPredicted=ShedDeadline=1", st)
	}

	// The same write with no deadline rides out the clean and succeeds.
	loose := Request{Priority: PriorityNormal, Write: true, Op: func(e Exec) (any, error) {
		return nil, h.mapping.WriteAt([]byte{2}, 4*4096)
	}}
	if _, err := h.srv.Submit(ctx, loose); err != nil {
		t.Fatalf("no-deadline write at budget: %v", err)
	}
	if got := h.mgr.DirtyCount(); got > 4 {
		t.Fatalf("dirty = %d after stalled admit, budget 4 violated", got)
	}
}

func TestReadOnlyRejectsWritesServesReads(t *testing.T) {
	h := newHarness(t, 16, ssd.Config{}, Config{}, func(m *core.Manager) {
		m.EnterReadOnly()
	})
	ctx := context.Background()
	if _, err := h.srv.Submit(ctx, put("k", "v")); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("write in ReadOnly: %v, want ErrReadOnly", err)
	}
	// Reads keep flowing (a miss touches nothing).
	if _, err := h.srv.Submit(ctx, get("missing")); err != nil {
		t.Fatalf("read in ReadOnly: %v", err)
	}
	// Background writes are the remediation path and stay admitted at
	// admission time (they may still fail underneath, typed).
	st := h.srv.Stats()
	if st.ShedReadOnly != 1 {
		t.Fatalf("ShedReadOnly = %d, want 1", st.ShedReadOnly)
	}
	if got := core.HealthState(h.srv.pubState.Load()); got != core.StateReadOnly {
		t.Fatalf("published state %v, want ReadOnly", got)
	}
}

func TestDegradedShedsLowPriorityWrites(t *testing.T) {
	h := newHarness(t, 16, ssd.Config{}, Config{}, func(m *core.Manager) {
		m.EnterDegraded()
	})
	ctx := context.Background()
	low := put("k", "v")
	low.Priority = PriorityLow
	if _, err := h.srv.Submit(ctx, low); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("low-priority write while Degraded: %v, want ErrOverloaded", err)
	}
	if _, err := h.srv.Submit(ctx, put("k", "v")); err != nil {
		t.Fatalf("normal write while Degraded: %v", err)
	}
	lowRead := get("k")
	lowRead.Priority = PriorityLow
	if _, err := h.srv.Submit(ctx, lowRead); err != nil {
		t.Fatalf("low-priority read while Degraded: %v", err)
	}
}

func TestLadderEscalationMapsStoreErrors(t *testing.T) {
	h := newHarness(t, 16, ssd.Config{}, Config{}, nil)
	ctx := context.Background()
	if _, err := h.srv.Submit(ctx, put("k", "v")); err != nil {
		t.Fatal(err)
	}
	// Escalate through a background request (the race-free way), then a
	// write that slipped past stale published state still comes back
	// typed, mapped from mmu.ErrProtected.
	if _, err := h.srv.Submit(ctx, Request{Class: ClassBackground, Priority: PriorityHigh, Op: func(e Exec) (any, error) {
		e.Mgr.EnterReadOnly()
		return nil, nil
	}}); err != nil {
		t.Fatal(err)
	}
	if _, err := h.srv.Submit(ctx, put("k", "v2")); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("write after escalation: %v, want ErrReadOnly", err)
	}
}

func TestCancellationWhileQueued(t *testing.T) {
	h := newHarness(t, 16, ssd.Config{}, Config{}, nil)
	_, release, done := gate(t, h.srv)

	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		_, err := h.srv.Submit(ctx, get("missing"))
		errc <- err
	}()
	waitQueueLen(t, h.srv, 1)
	cancel()
	if err := <-errc; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled submit: %v, want context.Canceled", err)
	}
	close(release)
	<-done
	// The discarded item must not wedge the loop.
	if _, err := h.srv.Submit(context.Background(), get("missing")); err != nil {
		t.Fatalf("submit after cancellation: %v", err)
	}
	if st := h.srv.Stats(); st.Cancelled != 1 {
		t.Fatalf("Cancelled = %d, want 1", st.Cancelled)
	}
}

func TestStopRejectsQueuedTyped(t *testing.T) {
	h := newHarness(t, 16, ssd.Config{}, Config{}, nil)
	_, release, done := gate(t, h.srv)

	errc := make(chan error, 2)
	for i := 0; i < 2; i++ {
		go func() {
			_, err := h.srv.Submit(context.Background(), get("missing"))
			errc <- err
		}()
	}
	waitQueueLen(t, h.srv, 2)

	stopped := make(chan struct{})
	go func() { h.srv.Stop(); close(stopped) }()
	// Wait until the stop flag is observable (new submits reject) before
	// releasing the gate, so the loop cannot drain the queue first.
	waitDeadline := time.Now().Add(5 * time.Second)
	for {
		pctx, pcancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
		_, err := h.srv.Submit(pctx, get("probe"))
		pcancel()
		if errors.Is(err, ErrClosed) {
			break
		}
		if time.Now().After(waitDeadline) {
			t.Fatal("server never entered stopping state")
		}
		time.Sleep(time.Millisecond)
	}
	close(release)
	<-done
	<-stopped
	for i := 0; i < 2; i++ {
		if err := <-errc; !errors.Is(err, ErrClosed) {
			t.Fatalf("queued op at shutdown: %v, want ErrClosed", err)
		}
	}
	if _, err := h.srv.Submit(context.Background(), get("x")); !errors.Is(err, ErrClosed) {
		t.Fatalf("submit after stop: %v, want ErrClosed", err)
	}
	h.srv.Stop() // idempotent
}

func TestWaitUntilAdvancesIdleClock(t *testing.T) {
	h := newHarness(t, 16, ssd.Config{}, Config{}, nil)
	target := sim.Time(5 * sim.Millisecond)
	if err := h.srv.WaitUntil(target); err != nil {
		t.Fatalf("WaitUntil: %v", err)
	}
	if now := h.srv.Now(); now < target {
		t.Fatalf("Now() = %v after WaitUntil(%v)", now, target)
	}
	// Already-reached targets return immediately.
	if err := h.srv.WaitUntil(sim.Time(sim.Millisecond)); err != nil {
		t.Fatal(err)
	}
}

func TestWatchdogTripsOnStalledDispatch(t *testing.T) {
	// Slow SSD so a full budget drain takes many watchdog intervals.
	h := newHarness(t, 32,
		ssd.Config{WriteBandwidth: 1 << 20, PerIOLatency: sim.Millisecond}, Config{}, nil)
	ctx := context.Background()

	// Dirty the full budget.
	if _, err := h.srv.Submit(ctx, Request{Priority: PriorityNormal, Write: true, Op: func(e Exec) (any, error) {
		for i := 0; i < 32; i++ {
			if err := h.mapping.WriteAt([]byte{1}, int64(i)*4096); err != nil {
				return nil, err
			}
		}
		return nil, nil
	}}); err != nil {
		t.Fatal(err)
	}

	// A background drain op that virtually blocks for ~150 ms while a
	// low-priority client read sits queued behind it: the watchdog must
	// see a non-empty queue making no progress and trip the ladder.
	started := make(chan struct{})
	goahead := make(chan struct{})
	drainErr := make(chan error, 1)
	go func() {
		_, err := h.srv.Submit(ctx, Request{Class: ClassBackground, Priority: PriorityHigh, Op: func(e Exec) (any, error) {
			close(started)
			<-goahead
			return nil, e.Mgr.SetDirtyBudgetSync(1)
		}})
		drainErr <- err
	}()
	<-started
	queuedErr := make(chan error, 1)
	go func() {
		r := get("missing")
		r.Priority = PriorityLow
		_, err := h.srv.Submit(ctx, r)
		queuedErr <- err
	}()
	waitQueueLen(t, h.srv, 1)
	close(goahead)

	if err := <-drainErr; err != nil {
		t.Fatalf("drain op: %v", err)
	}
	if err := <-queuedErr; err != nil {
		t.Fatalf("queued read: %v", err)
	}
	if st := h.srv.Stats(); st.WatchdogTrips < 1 {
		t.Fatalf("WatchdogTrips = %d, want >= 1", st.WatchdogTrips)
	}
	// The trip escalated the ladder; dirty is fully drained.
	if got := h.mgr.HealthState(); got < core.StateEmergencyFlush {
		t.Fatalf("ladder at %v after trip, want >= EmergencyFlush", got)
	}
	if got := h.mgr.DirtyCount(); got != 0 {
		t.Fatalf("dirty = %d after emergency drain, want 0", got)
	}
}

// managerStats reads the manager's counters as a request, on whichever
// goroutine owns the stack: the race-free way for a concurrent observer
// to sample them while the server owns the core.
func managerStats(ctx context.Context, s *Server) (core.Stats, error) {
	res, err := s.Submit(ctx, Request{
		Class:    ClassBackground,
		Priority: PriorityHigh,
		Op:       func(e Exec) (any, error) { return e.Mgr.Stats(), nil },
	})
	if err != nil {
		return core.Stats{}, err
	}
	return res.Value.(core.Stats), nil
}

func TestManagerStatsRaceFree(t *testing.T) {
	h := newHarness(t, 16, ssd.Config{}, Config{}, nil)
	ctx := context.Background()
	errs := make(chan error, 8)
	for i := 0; i < 4; i++ {
		go func(i int) {
			for j := 0; j < 20; j++ {
				_, err := h.srv.Submit(ctx, put("k", "v"))
				if err != nil {
					errs <- err
					return
				}
			}
			errs <- nil
		}(i)
		go func() {
			for j := 0; j < 20; j++ {
				if _, err := managerStats(ctx, h.srv); err != nil {
					errs <- err
					return
				}
			}
			errs <- nil
		}()
	}
	for i := 0; i < 8; i++ {
		if err := <-errs; err != nil {
			t.Fatalf("concurrent observer: %v", err)
		}
	}
}

func TestBadRequests(t *testing.T) {
	h := newHarness(t, 16, ssd.Config{}, Config{}, nil)
	if _, err := h.srv.Submit(context.Background(), Request{}); err == nil {
		t.Fatal("nil Op accepted")
	}
	if _, err := h.srv.Submit(context.Background(), Request{Priority: 7, Op: func(Exec) (any, error) { return nil, nil }}); err == nil {
		t.Fatal("invalid priority accepted")
	}
	if _, err := New(nil, nil, nil, nil, Config{}); err == nil {
		t.Fatal("New with nil stack accepted")
	}
}
