package ycsb

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"viyojit/internal/dist"
	"viyojit/internal/serve"
	"viyojit/internal/sim"
)

// ConcurrentConfig parameterises a concurrent-client run against the
// serving front-end (internal/serve). The embedded Config supplies the
// workload, record/operation counts, and seed; pacing and deadlines are
// the concurrent knobs.
type ConcurrentConfig struct {
	Config
	// Clients is the number of client goroutines; 0 selects 4.
	Clients int
	// Deadline is the per-request virtual-time deadline (queue wait +
	// predicted clean-stall + service); 0 means none.
	Deadline sim.Duration
	// OfferedLoad is the aggregate open-loop arrival rate in operations
	// per virtual second across all clients. 0 runs closed-loop: each
	// client issues its next op when the previous resolves. In open
	// loop, arrivals are independent of completions (a slow system does
	// NOT slow the clients down), which is what exposes overload.
	OfferedLoad float64
	// LowPriorityFraction of requests are tagged PriorityLow, the class
	// admission sheds first; the rest are PriorityNormal.
	LowPriorityFraction float64
}

func (c ConcurrentConfig) withDefaults() ConcurrentConfig {
	c.Config = c.Config.withDefaults()
	if c.Clients == 0 {
		c.Clients = 4
	}
	return c
}

// ConcurrentResult aggregates a concurrent run: goodput, the shed
// breakdown by typed error, and latency quantiles of the operations
// that completed.
type ConcurrentResult struct {
	Workload   string
	Clients    int
	Offered    float64 // ops per virtual second; 0 = closed loop
	Operations int     // attempted

	Completed    int
	ShedOverload int
	ShedDeadline int
	ShedReadOnly int
	Cancelled    int
	OtherErrors  int

	Elapsed sim.Duration
	// Goodput is completed operations per virtual second — the metric
	// that must plateau (not collapse) past saturation.
	Goodput          float64
	P50, P99         sim.Duration // latency of completed ops
	MaxQueueObserved int
}

// client is one simulated client's generators and schedule.
type client struct {
	st      *clientState
	left    int // operations still to issue
	chooser dist.Generator
	latest  *dist.Latest
	ops     *opChooser
	prio    *sim.RNG
	next    sim.Time // the next open-loop arrival
}

// clientState is one client's accounting; the goroutines waiting on its
// open-loop arrivals share it under mu.
type clientState struct {
	mu        sync.Mutex
	hist      Histogram
	completed int
	overload  int
	deadline  int
	readonly  int
	cancelled int
	other     int
}

func (c *clientState) record(res serve.Result, err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	switch {
	case err == nil:
		c.completed++
		c.hist.Record(res.Latency)
	case errors.Is(err, serve.ErrOverloaded):
		c.overload++
	case errors.Is(err, serve.ErrDeadlineExceeded):
		c.deadline++
	case errors.Is(err, serve.ErrReadOnly):
		c.readonly++
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		c.cancelled++
	default:
		c.other++
	}
}

// RunConcurrent drives the serving front-end with cfg.Clients clients.
// The store behind srv must already be loaded (Load) and srv must be
// started. Closed-loop runs (OfferedLoad 0) give each client a goroutine
// and measure the system's saturation throughput; open-loop runs pace
// every client's arrivals from the calling goroutine and measure goodput
// and shedding at a fixed offered load.
func RunConcurrent(cfg ConcurrentConfig, srv *serve.Server) (ConcurrentResult, error) {
	cfg = cfg.withDefaults()
	if cfg.Workload.Name == WorkloadE.Name {
		return ConcurrentResult{}, ErrScansUnsupported
	}
	if err := cfg.Workload.Validate(); err != nil {
		return ConcurrentResult{}, err
	}
	if cfg.OperationCount <= 0 {
		return ConcurrentResult{}, fmt.Errorf("ycsb: OperationCount %d must be positive", cfg.OperationCount)
	}
	if cfg.Clients < 0 {
		return ConcurrentResult{}, fmt.Errorf("ycsb: Clients %d must be non-negative", cfg.Clients)
	}
	// Written so that NaN fails it too.
	if !(cfg.OfferedLoad >= 0) || math.IsInf(cfg.OfferedLoad, 1) {
		return ConcurrentResult{}, fmt.Errorf("ycsb: OfferedLoad %v must be finite and non-negative", cfg.OfferedLoad)
	}

	records := int64(cfg.RecordCount)
	var nextInsert atomic.Int64
	nextInsert.Store(records)
	var version atomic.Uint64

	// Per-client arrival period for open loop; clients are staggered a
	// fraction of a period apart so arrivals interleave.
	var interarrival sim.Duration
	if cfg.OfferedLoad > 0 {
		interarrival = sim.Duration(float64(sim.Second) * float64(cfg.Clients) / cfg.OfferedLoad)
		if interarrival < 1 {
			interarrival = 1
		}
	}

	rootRNG := sim.NewRNG(cfg.Seed)
	states := make([]*clientState, cfg.Clients)
	var clients []*client
	startNow := srv.Now()
	for c := range states {
		states[c] = &clientState{}
		rng := rootRNG.Fork()
		nOps := cfg.OperationCount / cfg.Clients
		if c < cfg.OperationCount%cfg.Clients {
			nOps++
		}
		if nOps == 0 {
			continue
		}
		chooser, latest, err := newChooser(rng, cfg.Workload, records)
		if err != nil {
			states[c].record(serve.Result{}, err)
			continue
		}
		clients = append(clients, &client{
			st: states[c], left: nOps, chooser: chooser, latest: latest,
			ops: &opChooser{rng: rng.Fork(), w: cfg.Workload}, prio: rng.Fork(),
			next: startNow.Add(sim.Duration(int64(interarrival) * int64(c) / int64(cfg.Clients))),
		})
	}
	request := func(c *client) serve.Request {
		prio := serve.PriorityNormal
		if cfg.LowPriorityFraction > 0 && c.prio.Float64() < cfg.LowPriorityFraction {
			prio = serve.PriorityLow
		}
		req := buildOp(cfg, c.ops.next(), c.chooser, c.latest, &nextInsert, &version)
		req.Priority = prio
		req.Timeout = cfg.Deadline
		return req
	}

	ctx := context.Background()
	var wg sync.WaitGroup
	if interarrival == 0 {
		for _, c := range clients {
			wg.Add(1)
			go func(c *client) {
				defer wg.Done()
				for ; c.left > 0; c.left-- {
					res, err := srv.Submit(ctx, request(c))
					c.st.record(res, err)
					if errors.Is(err, serve.ErrClosed) {
						break
					}
				}
			}(c)
		}
	}
	// Open loop: this goroutine is every client's pacer and admits the
	// arrivals in virtual-time order, so no client's arrival can fall
	// behind the clock while its goroutine waits for a host CPU. Admission
	// happens here, while WaitUntil holds the clock at the arrival's
	// instant; only the completion wait moves to a goroutine of its own,
	// so those are bounded by MaxQueue + in-flight.
	for interarrival > 0 {
		var c *client
		for _, d := range clients {
			if d.left > 0 && (c == nil || d.next < c.next) {
				c = d
			}
		}
		if c == nil {
			break
		}
		if err := srv.WaitUntil(c.next); err != nil {
			for _, d := range clients {
				if d.left > 0 {
					d.st.record(serve.Result{}, err)
				}
			}
			break
		}
		c.next = c.next.Add(interarrival)
		c.left--
		h, err := srv.SubmitAsync(request(c))
		if err != nil {
			c.st.record(serve.Result{}, err)
			if errors.Is(err, serve.ErrClosed) {
				c.left = 0
			}
			continue
		}
		wg.Add(1)
		go func(c *client, h *serve.Handle) {
			defer wg.Done()
			res, err := h.Wait(ctx)
			c.st.record(res, err)
		}(c, h)
	}
	wg.Wait()

	res := ConcurrentResult{
		Workload:   cfg.Workload.Name,
		Clients:    cfg.Clients,
		Offered:    cfg.OfferedLoad,
		Operations: cfg.OperationCount,
		Elapsed:    srv.Now().Sub(startNow),
	}
	merged := &Histogram{}
	for _, st := range states {
		st.mu.Lock()
		res.Completed += st.completed
		res.ShedOverload += st.overload
		res.ShedDeadline += st.deadline
		res.ShedReadOnly += st.readonly
		res.Cancelled += st.cancelled
		res.OtherErrors += st.other
		merged.Merge(&st.hist)
		st.mu.Unlock()
	}
	if res.Elapsed > 0 {
		res.Goodput = float64(res.Completed) / res.Elapsed.Seconds()
	}
	res.P50 = merged.Quantile(0.50)
	res.P99 = merged.Quantile(0.99)
	res.MaxQueueObserved = srv.Stats().MaxQueueObserved
	return res, nil
}

// buildOp translates one YCSB operation into a serve.Request. Key and
// value bytes are materialised on the client goroutine; the Op closure
// only touches the store (state of whichever goroutine owns the stack).
func buildOp(cfg ConcurrentConfig, kind OpKind, chooser dist.Generator, latest *dist.Latest, nextInsert *atomic.Int64, version *atomic.Uint64) serve.Request {
	switch kind {
	case OpRead:
		k := key(chooser.Next())
		return serve.Request{Op: func(e serve.Exec) (any, error) {
			_, _, err := e.Store.Get(k)
			return nil, err
		}}
	case OpUpdate:
		rec := chooser.Next()
		v := valueFor(make([]byte, cfg.ValueSize), rec, version.Add(1))
		k := key(rec)
		return serve.Request{Write: true, Op: func(e serve.Exec) (any, error) {
			return nil, e.Store.Put(k, v)
		}}
	case OpInsert:
		rec := nextInsert.Add(1) - 1
		v := valueFor(make([]byte, cfg.ValueSize), rec, 0)
		k := key(rec)
		if latest != nil {
			latest.AddItem()
		}
		return serve.Request{Write: true, Op: func(e serve.Exec) (any, error) {
			return nil, e.Store.Put(k, v)
		}}
	default: // OpReadModifyWrite
		rec := chooser.Next()
		v := valueFor(make([]byte, cfg.ValueSize), rec, version.Add(1))
		k := key(rec)
		return serve.Request{Write: true, Op: func(e serve.Exec) (any, error) {
			_, err := e.Store.ReadModifyWrite(k, func([]byte) []byte { return v })
			return nil, err
		}}
	}
}
