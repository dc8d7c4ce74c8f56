package serve_test

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"viyojit"
	"viyojit/internal/sim"
)

// chaosSeed returns the run's seed: SERVE_CHAOS_SEED when set (the CI
// matrix sweeps several), otherwise a fixed default so the test always
// runs and stays reproducible.
func chaosSeed(t *testing.T) uint64 {
	env := os.Getenv("SERVE_CHAOS_SEED")
	if env == "" {
		return 0x5EED
	}
	seed, err := strconv.ParseUint(env, 0, 64)
	if err != nil {
		t.Fatalf("SERVE_CHAOS_SEED %q: %v", env, err)
	}
	return seed
}

// TestChaosConcurrentClients hammers the serving front-end from many
// goroutines with randomized priorities, deadlines, and context
// cancellations, and asserts the robustness contract: every rejection is
// typed, the admission queue stays bounded, the dirty set never exceeds
// the budget, accounting adds up, and no goroutines leak. Run it with
// -race; the CI stress job does, across a seed matrix.
func TestChaosConcurrentClients(t *testing.T) {
	seed := chaosSeed(t)
	verify := checkLeaks(t)

	sys, err := viyojit.New(viyojit.Config{
		NVDRAMSize:           8 << 20,
		DisableHealthMonitor: true,
		DisableScrubber:      true,
	})
	if err != nil {
		t.Fatal(err)
	}
	store, err := sys.NewStore("chaos", 4<<20)
	if err != nil {
		t.Fatal(err)
	}
	const maxQueue = 64
	srv, err := sys.Serve(store, viyojit.ServeConfig{MaxQueue: maxQueue})
	if err != nil {
		t.Fatal(err)
	}

	const keySpace = 256
	key := func(i int) []byte { return []byte(fmt.Sprintf("chaos%06d", i)) }
	// Preload through the server so every heap access happens on the
	// goroutine that owns the stack.
	for i := 0; i < keySpace; i++ {
		k := key(i)
		if _, err := srv.Submit(context.Background(), viyojit.ServeRequest{
			Write: true,
			Op: func(e viyojit.ServeExec) (any, error) {
				return nil, e.Store.Put(k, []byte("initial-value-0000"))
			},
		}); err != nil {
			t.Fatalf("preload %d: %v", i, err)
		}
	}

	const (
		clients   = 48
		opsEach   = 120
		waitEvery = 16 // every Nth op paces with WaitUntil instead
	)
	var (
		wg        sync.WaitGroup
		untyped   atomic.Int64
		completed atomic.Int64
		firstBad  atomic.Value // string
	)
	typed := func(err error) bool {
		return err == nil ||
			errors.Is(err, viyojit.ErrOverloaded) ||
			errors.Is(err, viyojit.ErrDeadlineExceeded) ||
			errors.Is(err, viyojit.ErrReadOnly) ||
			errors.Is(err, viyojit.ErrServerClosed) ||
			errors.Is(err, context.Canceled) ||
			errors.Is(err, context.DeadlineExceeded)
	}

	// Observability reader: hammer the registry's consistent-read paths
	// concurrently with the serving client and every other goroutine —
	// the race the metrics layer exists to make safe (run with -race).
	stopSnap := make(chan struct{})
	snapDone := make(chan struct{})
	go func() {
		defer close(snapDone)
		reg := sys.Metrics()
		for {
			select {
			case <-stopSnap:
				return
			default:
				snap := reg.Snapshot()
				for i := 1; i < len(snap.Counters); i++ {
					if snap.Counters[i-1].Name >= snap.Counters[i].Name {
						firstBad.CompareAndSwap(nil, "Snapshot counters unsorted")
						untyped.Add(1)
						return
					}
				}
				var sink discardWriter
				if err := reg.Export().WriteText(&sink); err != nil {
					firstBad.CompareAndSwap(nil, fmt.Sprintf("WriteText: %v", err))
					untyped.Add(1)
					return
				}
			}
		}
	}()

	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(seed) + int64(c)*7919))
			for op := 0; op < opsEach; op++ {
				if op%waitEvery == waitEvery-1 {
					// Pacing path: nudge virtual time forward.
					_ = srv.WaitUntil(srv.Now().Add(sim.Duration(rng.Intn(200)) * sim.Microsecond))
					continue
				}
				if op%37 == 36 {
					// Observer path: sample manager state concurrently.
					_, err := srv.Submit(context.Background(), viyojit.ServeRequest{
						Class:    viyojit.ClassBackground,
						Priority: viyojit.PriorityHigh,
						Op:       func(e viyojit.ServeExec) (any, error) { return e.Mgr.Stats(), nil },
					})
					if err != nil && !typed(err) {
						untyped.Add(1)
						firstBad.CompareAndSwap(nil, fmt.Sprintf("manager stats: %v", err))
					}
					continue
				}

				req := viyojit.ServeRequest{}
				switch p := rng.Float64(); {
				case p < 0.2:
					req.Priority = viyojit.PriorityLow
				case p < 0.9:
					req.Priority = viyojit.PriorityNormal
				default:
					req.Priority = viyojit.PriorityHigh
				}
				if rng.Float64() < 0.5 {
					req.Timeout = sim.Duration(100+rng.Intn(5000)) * sim.Microsecond
				}
				k := key(rng.Intn(keySpace))
				if rng.Float64() < 0.35 {
					v := []byte(fmt.Sprintf("value-%d-%d", c, op))
					req.Write = true
					req.Op = func(e viyojit.ServeExec) (any, error) {
						return nil, e.Store.Put(k, v)
					}
				} else {
					req.Op = func(e viyojit.ServeExec) (any, error) {
						_, _, err := e.Store.Get(k)
						return nil, err
					}
				}

				ctx := context.Background()
				var cancel context.CancelFunc
				if rng.Float64() < 0.1 {
					// Real-time cancellation racing the virtual-time op.
					ctx, cancel = context.WithTimeout(ctx, time.Duration(rng.Intn(500))*time.Microsecond)
				}
				_, err := srv.Submit(ctx, req)
				if cancel != nil {
					cancel()
				}
				if err == nil {
					completed.Add(1)
				} else if !typed(err) {
					untyped.Add(1)
					firstBad.CompareAndSwap(nil, fmt.Sprintf("Submit: %v", err))
				}
			}
		}(c)
	}
	wg.Wait()
	close(stopSnap)
	<-snapDone

	if n := untyped.Load(); n > 0 {
		t.Fatalf("%d untyped errors escaped, first: %v", n, firstBad.Load())
	}
	if completed.Load() == 0 {
		t.Fatal("chaos run completed nothing — the server starved all clients")
	}

	st := srv.Stats()
	if st.MaxQueueObserved > maxQueue {
		t.Fatalf("queue occupancy %d exceeded bound %d", st.MaxQueueObserved, maxQueue)
	}
	// Loose accounting: a context-cancelled request may still execute
	// (its server already held it), so the retired counters can exceed
	// Submitted only by at most Cancelled.
	retired := st.Completed + st.Failed + st.ShedOverload + st.ShedDeadline + st.ShedReadOnly
	if retired > st.Submitted {
		t.Fatalf("retired %d > submitted %d", retired, st.Submitted)
	}
	if st.Submitted > retired+st.Cancelled {
		t.Fatalf("accounting leak: submitted %d, retired %d + cancelled %d", st.Submitted, retired, st.Cancelled)
	}

	// The core invariant the whole system exists for: the dirty set
	// never ends up above the budget.
	if dirty, budget := sys.DirtyCount(), sys.DirtyBudget(); dirty > budget {
		t.Fatalf("dirty pages %d exceed budget %d", dirty, budget)
	}

	// The registry's instruments ARE the server's counters (one atomic
	// source, no scattered stats): now that the run has quiesced, the
	// snapshot must agree with Stats exactly.
	snap := sys.Metrics().Snapshot()
	counterValue := func(name string) uint64 {
		for _, c := range snap.Counters {
			if c.Name == name {
				return c.Value
			}
		}
		t.Fatalf("counter %s missing from snapshot", name)
		return 0
	}
	if got := counterValue("serve_submitted_total"); got != st.Submitted {
		t.Fatalf("serve_submitted_total %d != Stats().Submitted %d", got, st.Submitted)
	}
	if got := counterValue("serve_completed_total"); got != st.Completed {
		t.Fatalf("serve_completed_total %d != Stats().Completed %d", got, st.Completed)
	}

	sys.Close()
	verify()
}

// discardWriter sinks export bytes without retaining them.
type discardWriter struct{}

func (discardWriter) Write(p []byte) (int, error) { return len(p), nil }
