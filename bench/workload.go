package main

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"time"

	"viyojit"
	"viyojit/internal/dist"
	"viyojit/internal/serve"
	"viyojit/internal/sim"
)

// workload is one set of inputs the benchmark runs. The table below is
// the whole definition; README.md says why each one exists.
type workload struct {
	name string
	why  string
	// heapBytes is the persistent heap; the region is twice that and the
	// heap is loaded ~70 % full of 1 KiB records, as the evaluation
	// harness loads it.
	heapBytes int64
	// budgetFrac is the dirty budget the battery is provisioned for, as a
	// fraction of the heap.
	budgetFrac float64
	// readFrac of the operations are reads; the rest overwrite a record.
	readFrac float64
	// uniform draws keys uniformly; otherwise scrambled zipfian (0.99).
	uniform bool
	// idem sends writes as IdemPut through the intent journal.
	idem     bool
	blackBox bool
	// openRate, when non-zero, drives an open loop: seeded Poisson
	// arrivals at this many operations per virtual second, each with the
	// virtual deadline below. Zero is a closed loop of one client.
	openRate float64
	deadline sim.Duration
	// cycleOps, when non-zero, cuts power after every cycleOps
	// operations and serves on from the recovered system.
	cycleOps int
	// refOps is the fixed operation count of a reference run (no
	// -seconds): same seed, same count, same virtual-time statistics.
	refOps int
}

var workloads = []workload{
	{
		name:      "ycsb_a_tight",
		why:       "YCSB-A, zipfian, budget 11 % of heap, one closed-loop client: forced and proactive cleans, epoch scans and SSD writes do most of the work",
		heapBytes: defaultHeap, budgetFrac: 0.11, readFrac: 0.5,
		refOps: 200_000,
	},
	{
		name:      "ycsb_b_roomy",
		why:       "YCSB-B, zipfian, budget 103 % of heap, one closed-loop client: the clean path is idle, so serve hand-off, kvstore and mmu traps are what is left",
		heapBytes: defaultHeap, budgetFrac: 1.03, readFrac: 0.95,
		refOps: 800_000,
	},
	{
		name:      "idem_a_open",
		why:       "YCSB-A mix with exactly-once writes, budget 11 %, open loop at 24 000 ops per virtual second with a 2 ms deadline: builds a queue, exercises admission and the intent journal",
		heapBytes: defaultHeap, budgetFrac: 0.11, readFrac: 0.5,
		idem: true, blackBox: true,
		openRate: 24_000, deadline: 2 * sim.Millisecond,
		refOps: 100_000,
	},
	{
		name:      "powerfail_cycle",
		why:       "uniform-key exactly-once writes at budget 11 %, power cut and recovery every 2 000 operations: bulk flush, restore and journal reopen instead of paced cleans",
		heapBytes: defaultHeap, budgetFrac: 0.11, readFrac: 0,
		uniform: true, idem: true,
		cycleOps: 2_000,
		refOps:   80_000,
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func (w workload) records() int { return int(w.heapBytes * 7 / 10 / (2 * valueSize)) }

// op is one generated operation.
type op struct {
	read    bool
	rec     int64
	version uint64 // writes only
	key     []byte
	value   []byte // writes only
	client  uint64 // idempotent writes only
	seq     uint64
}

// generator makes the operation stream from the seed alone: the system
// under test sees only the generated requests.
type generator struct {
	w       workload
	mix     *sim.RNG
	keys    dist.Generator
	arrive  *sim.RNG // open loop: inter-arrival draws
	version uint64
	writes  uint64
	seqs    [idemClients]uint64
}

func newGenerator(w workload, root *sim.RNG) *generator {
	g := &generator{w: w, mix: root.Fork(), arrive: root.Fork()}
	if w.uniform {
		g.keys = dist.NewUniform(root.Fork(), int64(w.records()))
	} else {
		g.keys = dist.NewScrambledZipfian(root.Fork(), int64(w.records()), dist.ZipfianConstant)
	}
	return g
}

func (g *generator) next() op {
	o := op{read: g.mix.Float64() < g.w.readFrac, rec: g.keys.Next()}
	o.key = recordKey(o.rec)
	if o.read {
		return o
	}
	g.version++
	o.version = g.version
	o.value = recordValue(make([]byte, valueSize), o.rec, o.version)
	if g.w.idem {
		c := g.writes % idemClients
		g.writes++
		g.seqs[c]++
		o.client, o.seq = c+1, g.seqs[c]
	}
	return o
}

// gap draws the next Poisson inter-arrival time.
func (g *generator) gap() sim.Duration {
	u := g.arrive.Float64()
	return sim.Duration(-math.Log(1-u) / g.w.openRate * float64(sim.Second))
}

// request turns an operation into what a client submits. sp is the
// request's trace record, nil on an untraced run.
func (o op) request(w workload, tr *tracer, sp *span) viyojit.ServeRequest {
	req := viyojit.ServeRequest{Priority: viyojit.PriorityNormal, Write: !o.read, Timeout: w.deadline}
	switch {
	case o.read:
		key := o.key
		req.Op = func(e viyojit.ServeExec) (any, error) {
			_, ok, err := e.Store.Get(key)
			if err == nil && !ok {
				err = fmt.Errorf("bench: key %s missing", key)
			}
			return nil, err
		}
	case w.idem:
		// The server runs the journal protocol itself, so there is no Op
		// closure to time: an idempotent write has a serve.submit span
		// and no op span.
		req.ClientID, req.RequestSeq = o.client, o.seq
		req.Idem = &viyojit.IdemOp{Kind: viyojit.IdemPut, Key: o.key, Value: o.value}
		return req
	default:
		key, value := o.key, o.value
		req.Op = func(e viyojit.ServeExec) (any, error) { return nil, e.Store.Put(key, value) }
	}
	if sp != nil {
		req.Op = tr.timeOp(sp, req.Op)
	}
	return req
}

// limit ends the timed region: after a fixed operation count on a
// reference run (ops > 0), after a stretch of host time otherwise.
type limit struct {
	ops     int
	seconds float64
}

var hostEpoch = time.Now()

// hostNow is monotonic host time in nanoseconds.
func hostNow() int64 { return int64(time.Since(hostEpoch)) }

// measurement is everything one pass over a workload observed.
type measurement struct {
	attempted int
	failed    int
	// lat is Result.Latency of every completed request, in virtual ns —
	// in an open loop plus the time since its scheduled arrival. wait is
	// Result.Wait. Exact values, so percentiles are order statistics.
	lat  []int64
	wait []int64
	// vElapsed is the virtual time spent serving; hostElapsed the host
	// time of the timed region, power cycles included.
	vElapsed    sim.Duration
	hostElapsed int64
	// chunkRates are host operations per second over consecutive slices
	// of the timed region — ~250 ms each, or one whole serve-fail-recover
	// cycle on powerfail_cycle; their median is robust to one noisy slice
	// where the overall mean is not.
	chunkRates []float64
	mallocs    uint64
	allocBytes uint64
	lateMax    sim.Duration // open loop: worst generator lateness
	budgetMin  int64
	budgetMax  int64
	layers     layerCounters
	pf         powerfailStats
	finalV     sim.Time
	tr         *tracer
}

const chunkNanos = 250 * int64(time.Millisecond)

// run executes one pass: the timed region, then a final power failure,
// recovery and a full comparison with the oracle. Set-up (build) is the
// caller's, outside the timed region. run closes the stack.
func run(st *stack, w workload, seed uint64, lim limit, tr *tracer) (*measurement, error) {
	m := &measurement{tr: tr, budgetMin: math.MaxInt64}
	capHint := lim.ops
	if capHint == 0 {
		capHint = int(lim.seconds * 100_000) // no host of this class serves 100 k ops/s
	}
	m.lat = make([]int64, 0, capHint)
	m.wait = make([]int64, 0, capHint)
	root := sim.NewRNG(seed)
	d := &driver{m: m, w: w, tr: tr, lim: lim,
		gen: newGenerator(w, root.Fork()), spot: root.Fork(), orc: newOracle(w.records())}

	// A closed loop is one client and the dispatcher handing a request
	// back and forth. On one P that is a direct goroutine switch; on two
	// it is, at random, either that or a cross-CPU wake, and the host
	// rate flips between two speeds. The open loop needs its pacer to run
	// while the dispatcher does, so it keeps every CPU.
	if w.openRate == 0 {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	}
	runtime.GC()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	d.start = hostNow()
	d.chunkStart = d.start

	st, err := d.serve(st)
	if err != nil {
		return nil, err
	}

	m.hostElapsed = hostNow() - d.start
	runtime.ReadMemStats(&ms1)
	m.mallocs = ms1.Mallocs - ms0.Mallocs
	m.allocBytes = ms1.TotalAlloc - ms0.TotalAlloc

	// Every workload ends the way a deployment's worst day does. On
	// powerfail_cycle the last cycle already did.
	if w.cycleOps == 0 {
		next, err := st.powerCycle(w, &m.pf)
		if err != nil {
			st.sys.Close()
			return nil, err
		}
		st = next
	}
	defer st.sys.Close()
	if err := d.orc.checkAll(st.store); err != nil {
		return nil, fmt.Errorf("bench: %s: recovered store disagrees with the oracle: %w", w.name, err)
	}
	m.finalV = st.sys.Now()
	return m, nil
}

// driver is the client side of one pass.
type driver struct {
	m    *measurement
	w    workload
	gen  *generator
	spot *sim.RNG // keys spot-checked after a power cycle
	orc  *oracle
	tr   *tracer
	lim  limit

	start      int64
	chunkStart int64
	chunkOps   int
}

func (d *driver) done(attempted int) bool {
	if d.lim.ops > 0 {
		return attempted >= d.lim.ops
	}
	return float64(hostNow()-d.start) >= d.lim.seconds*1e9
}

// serve drives the timed region and returns the stack that is live at
// its end (a recovered one, on powerfail_cycle). It closes a stack it
// abandons on error.
func (d *driver) serve(st *stack) (*stack, error) {
	var last op // last acknowledged write of the previous incarnation
	for {
		before := st.snapshot()
		srv, err := st.sys.Serve(st.store, viyojit.ServeConfig{Journal: st.journal})
		if err != nil {
			st.sys.Close()
			return nil, err
		}
		v0 := srv.Now()
		if last.client != 0 {
			err = d.retry(st, last)
		}
		finished := d.w.cycleOps > 0 && d.done(d.m.attempted)
		if err == nil && !finished {
			if d.tr != nil {
				d.tr.on = true
			}
			if d.w.openRate > 0 {
				err = d.openLoop(st)
			} else {
				last, err = d.closedLoop(st)
			}
		}
		srv.Stop()
		if d.tr != nil {
			d.tr.on = false
		}
		if err != nil {
			st.sys.Close()
			return nil, err
		}
		d.m.vElapsed += st.sys.Now().Sub(v0)
		d.m.layers.add(before, st.snapshot(), srv.Stats())
		if d.w.cycleOps == 0 || finished {
			return st, nil
		}

		next, err := st.powerCycle(d.w, &d.m.pf)
		if err != nil {
			st.sys.Close()
			return nil, err
		}
		st = next
		if err := d.spotCheck(st, last); err != nil {
			st.sys.Close()
			return nil, err
		}
		d.closeChunk(hostNow())
	}
}

// closedLoop is one client that submits its next request when the last
// one resolves. It returns the last acknowledged write.
func (d *driver) closedLoop(st *stack) (op, error) {
	ctx := context.Background()
	srv := st.sys.Server()
	var last op
	for n := 0; ; n++ {
		if d.w.cycleOps > 0 {
			if n == d.w.cycleOps {
				return last, nil
			}
		} else if d.done(d.m.attempted) {
			return last, nil
		}
		o, sp := d.generate()
		req := o.request(d.w, d.tr, sp)
		sp.submitStart(srv.Now())
		res, err := srv.Submit(ctx, req)
		sp.submitEnd(res)
		d.resolve(st, o, res, 0, err)
		if err == nil && !o.read {
			last = o
		}
	}
}

// generate makes the next operation and, on a traced run, its span.
func (d *driver) generate() (op, *span) {
	if d.tr == nil {
		return d.gen.next(), nil
	}
	g0 := hostNow()
	o := d.gen.next()
	sp := d.tr.begin(o)
	sp.genHostNs = hostNow() - g0
	return o, sp
}

// resolve books one finished request: latency, oracle, chunk clock.
// late is how long after its scheduled arrival the request was admitted.
func (d *driver) resolve(st *stack, o op, res viyojit.ServeResult, late sim.Duration, err error) {
	m := d.m
	m.attempted++
	if err != nil {
		m.failed++
		if !o.read {
			d.orc.fail(o.rec, o.version)
		}
	} else {
		m.lat = append(m.lat, int64(res.Latency+late))
		m.wait = append(m.wait, int64(res.Wait))
		if !o.read {
			d.orc.ack(o.rec, o.version)
		}
	}
	d.chunkOps++
	if m.attempted&63 == 0 {
		if now := hostNow(); d.w.cycleOps == 0 && now-d.chunkStart >= chunkNanos {
			d.closeChunk(now)
		}
		// The health monitor re-derives the budget from the battery as
		// it runs; the gauge is the race-free way to watch it.
		b := st.sys.Metrics().Gauge("core_dirty_budget_pages").Value()
		m.budgetMin = min(m.budgetMin, b)
		m.budgetMax = max(m.budgetMax, b)
	}
}

func (d *driver) closeChunk(now int64) {
	d.m.chunkRates = append(d.m.chunkRates, float64(d.chunkOps)/float64(now-d.chunkStart)*1e9)
	d.chunkStart, d.chunkOps = now, 0
}

// pending is an open-loop request on its way to the collector.
type pending struct {
	o    op
	h    *serve.Handle
	sp   *span
	late sim.Duration
	err  error // admission rejected it; h is nil
}

// openLoop is one pacer that submits on a Poisson schedule whether or
// not earlier requests have resolved, and one collector that waits for
// them in admission order. Latency is timed from the scheduled arrival.
func (d *driver) openLoop(st *stack) error {
	srv := st.sys.Server()
	ctx := context.Background()
	// The pacer must never block on the collector, or the loop closes:
	// the buffer holds a full admission queue plus the request in service.
	inflight := make(chan pending, srv.Config().MaxQueue+1)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for p := range inflight {
			var res viyojit.ServeResult
			err := p.err
			if err == nil {
				res, err = p.h.Wait(ctx)
				p.sp.submitEnd(res)
			}
			d.resolve(st, p.o, res, p.late, err)
		}
	}()
	due := srv.Now()
	var paceErr error
	for sent := 0; !d.done(sent); sent++ {
		o, sp := d.generate()
		due = due.Add(d.gen.gap())
		if paceErr = srv.WaitUntil(due); paceErr != nil {
			break
		}
		now := srv.Now()
		d.m.lateMax = max(d.m.lateMax, now.Sub(due))
		req := o.request(d.w, d.tr, sp)
		sp.submitStart(now)
		h, err := srv.SubmitAsync(req)
		inflight <- pending{o: o, h: h, sp: sp, late: now.Sub(due), err: err}
	}
	close(inflight)
	<-done
	return paceErr
}

// spotCheck compares a sample of keys, and the last acknowledged write,
// with the oracle on a recovered system before it serves.
func (d *driver) spotCheck(st *stack, last op) error {
	scratch := make([]byte, valueSize)
	for i := 0; i < 64; i++ {
		rec := int64(d.spot.Intn(d.w.records()))
		if err := d.orc.check(st.store, rec, scratch); err != nil {
			return fmt.Errorf("bench: after power cycle: %w", err)
		}
	}
	if err := d.orc.check(st.store, last.rec, scratch); err != nil {
		return fmt.Errorf("bench: after power cycle: %w", err)
	}
	return nil
}

// retry resubmits a write the previous incarnation acknowledged, as a
// client that lost the ack would: the recovered journal must answer it
// from its dedup table and apply nothing.
func (d *driver) retry(st *stack, last op) error {
	res, err := st.sys.SubmitIdempotent(context.Background(), last.client, last.seq,
		viyojit.IdemOp{Kind: viyojit.IdemPut, Key: last.key, Value: last.value},
		viyojit.ServeRequest{Priority: viyojit.PriorityNormal})
	if err != nil {
		return fmt.Errorf("bench: retry of (client %d, seq %d) after power cycle: %w", last.client, last.seq, err)
	}
	if !res.Deduped {
		return fmt.Errorf("bench: retry of (client %d, seq %d) after power cycle was applied again", last.client, last.seq)
	}
	return nil
}
