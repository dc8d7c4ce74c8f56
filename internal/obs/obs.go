// Package obs is the unified observability hub: a metrics registry
// (counters, gauges, log-bucketed histograms) plus lightweight trace
// spans, all keyed to simulated time. It exists to make the paper's
// quantitative argument observable — dirty-budget occupancy, clean-stall
// latency, SSD write pressure, shed breakdowns — through one consistent
// snapshot instead of ad-hoc counters scattered across packages.
//
// Two properties shape every type here:
//
//   - Hot-path recording is cheap and allocation-free: instruments are
//     plain atomics, spans are values finished into a preallocated ring.
//     Recording is safe from any goroutine; Snapshot is safe to call
//     concurrently with whichever client goroutine is serving.
//
//   - Exposition is deterministic. The simulator is seeded and
//     virtual-timed, so identical seeds must produce byte-identical
//     metric and trace exports. Instruments are therefore keyed by name
//     and emitted in sorted order, span IDs are sequential, and no wall
//     clock ever leaks into an export. Determinism turns observability
//     into a regression instrument: golden exports (obs/golden_test.go)
//     fail on silent behavioral drift.
//
// Every instrument method is nil-safe: a nil *Registry hands out nil
// instruments and a nil instrument's methods no-op, so packages can
// instrument unconditionally and callers that don't care pass nothing.
package obs

import (
	"sort"
	"sync"
	"sync/atomic"
)

// Sink observes instrument updates as they happen: counter increments,
// gauge level changes, and finished trace spans. It is the tee that
// feeds the black-box flight recorder without any per-call-site
// plumbing — producers keep talking to the registry they already have.
//
// Sink implementations must be allocation-free and must never block or
// call back into the registry/tracer that feeds them: the tee fires on
// the instrument hot path (and, for spans, after the tracer's ring
// lock is released).
type Sink interface {
	// CounterAdd reports a counter increment: the delta just applied
	// and the resulting total.
	CounterAdd(name string, delta, total uint64)
	// GaugeSet reports a gauge level change. It fires only when the
	// stored value actually changed, so idempotent re-Sets are free.
	GaugeSet(name string, v int64)
	// SpanFinished reports a completed trace span.
	SpanFinished(rec SpanRecord)
	// Keeps reports whether the sink wants the counter or gauge named
	// name. SetSink attaches the sink only to those it keeps, so an
	// update of any other never reaches it. Every finished span does.
	Keeps(name string) bool
}

// Counter is a monotonically increasing uint64. Overflow wraps modulo
// 2^64 (the Go atomic addition semantics); at one increment per
// simulated nanosecond that is ~584 years of virtual time, so wrapping
// is documented rather than guarded.
type Counter struct {
	v atomic.Uint64

	// name and sink are set at creation (under the registry lock) or by
	// SetSink before concurrent recording starts; the hot path reads
	// them without synchronisation.
	name string
	sink Sink
}

// Inc adds one. No-op on a nil counter.
func (c *Counter) Inc() {
	if c != nil {
		v := c.v.Add(1)
		if c.sink != nil {
			c.sink.CounterAdd(c.name, 1, v)
		}
	}
}

// Add adds n. No-op on a nil counter.
func (c *Counter) Add(n uint64) {
	if c != nil {
		v := c.v.Add(n)
		if c.sink != nil {
			c.sink.CounterAdd(c.name, n, v)
		}
	}
}

// Value returns the current count; 0 on a nil counter.
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an instantaneous int64 level: queue depth, dirty pages,
// budget, health-state ordinal. Set/Add saturate nothing — the value is
// whatever was last written.
type Gauge struct {
	v atomic.Int64

	// name and sink: same discipline as Counter.
	name string
	sink Sink
}

// Set stores v. No-op on a nil gauge.
func (g *Gauge) Set(v int64) {
	if g == nil {
		return
	}
	old := g.v.Swap(v)
	if g.sink != nil && old != v {
		g.sink.GaugeSet(g.name, v)
	}
}

// SetMax raises the gauge to v if v exceeds the current value — a
// high-water mark (max dirty observed, max queue depth). No-op on nil.
func (g *Gauge) SetMax(v int64) {
	if g == nil {
		return
	}
	for {
		cur := g.v.Load()
		if v <= cur {
			return
		}
		if g.v.CompareAndSwap(cur, v) {
			if g.sink != nil {
				g.sink.GaugeSet(g.name, v)
			}
			return
		}
	}
}

// Value returns the current level; 0 on a nil gauge.
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Registry holds every instrument by name. Instruments are get-or-create:
// two callers asking for the same name share the same atomic storage,
// which is how packages publish and the facade exposes without plumbing
// struct fields around.
type Registry struct {
	mu     sync.RWMutex
	counts map[string]*Counter
	gauges map[string]*Gauge
	hists  map[string]*Histogram
	tracer *Tracer
	sink   Sink

	// The unused tails of the blocks new instruments are carved from:
	// one allocation per block, not one per instrument.
	countBlock []Counter
	gaugeBlock []Gauge
	histBlock  []Histogram
}

// Instrument block sizes. A recycled registry's first blocks hold as
// many instruments as its donor's instead.
const (
	countBlockSize = 64
	gaugeBlockSize = 32
	histBlockSize  = 4
)

// NewRegistry returns an empty registry with an attached tracer.
func NewRegistry() *Registry { return newRegistry(newTracer(defaultSpanCap), 0, 0, 0) }

// Recycle returns an empty registry, as NewRegistry does, whose tracer
// is built on r's span ring and open-span table: what a reboot takes
// from the system it retires. Its maps and its first instrument blocks
// are sized to r's instruments, which a reboot creates again, so it
// allocates a handful of objects however many that is. r's instruments
// still read and are not the new registry's; any use of r's tracer
// panics from then on.
func (r *Registry) Recycle() *Registry {
	r.mu.RLock()
	nc, ng, nh := len(r.counts), len(r.gauges), len(r.hists)
	r.mu.RUnlock()
	t := r.tracer
	t.mu.Lock()
	defer t.mu.Unlock()
	t.mustLive()
	nr := newRegistry(&Tracer{ring: t.ring, open: t.open}, nc, ng, nh)
	t.ring, t.open = nil, nil
	return nr
}

func newRegistry(t *Tracer, nc, ng, nh int) *Registry {
	return &Registry{
		counts:     make(map[string]*Counter, nc),
		gauges:     make(map[string]*Gauge, ng),
		hists:      make(map[string]*Histogram, nh),
		tracer:     t,
		countBlock: make([]Counter, nc),
		gaugeBlock: make([]Gauge, ng),
		histBlock:  make([]Histogram, nh),
	}
}

// carve hands out the first instrument of *block, refilling it with a
// block of size instruments when it is empty. The caller holds r.mu.
func carve[T any](block *[]T, size int) *T {
	if len(*block) == 0 {
		*block = make([]T, size)
	}
	p := &(*block)[0]
	*block = (*block)[1:]
	return p
}

// Counter returns the named counter, creating it on first use. A nil
// registry returns a nil (no-op) counter.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	c := r.counts[name]
	r.mu.RUnlock()
	if c != nil {
		return c
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if c = r.counts[name]; c == nil {
		c = carve(&r.countBlock, countBlockSize)
		c.name, c.sink = name, r.sinkFor(name)
		r.counts[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use. A nil
// registry returns a nil (no-op) gauge.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	g := r.gauges[name]
	r.mu.RUnlock()
	if g != nil {
		return g
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if g = r.gauges[name]; g == nil {
		g = carve(&r.gaugeBlock, gaugeBlockSize)
		g.name, g.sink = name, r.sinkFor(name)
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it on first use. A
// nil registry returns a nil (no-op) histogram.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	h := r.hists[name]
	r.mu.RUnlock()
	if h != nil {
		return h
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if h = r.hists[name]; h == nil {
		h = carve(&r.histBlock, histBlockSize)
		h.init()
		r.hists[name] = h
	}
	return h
}

// Tracer returns the registry's span tracer; nil on a nil registry.
func (r *Registry) Tracer() *Tracer {
	if r == nil {
		return nil
	}
	return r.tracer
}

// SetSink attaches a tee to every counter and gauge it keeps — existing
// and future — and to the tracer's finished-span path. Pass nil to detach.
//
// Attachment is not synchronised against concurrent recording: call
// SetSink during wiring, before the goroutines that record have
// started (the same discipline the simulator uses for every other
// configuration hook). No-op on a nil registry.
func (r *Registry) SetSink(s Sink) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.sink = s
	for name, c := range r.counts {
		c.name, c.sink = name, r.sinkFor(name)
	}
	for name, g := range r.gauges {
		g.name, g.sink = name, r.sinkFor(name)
	}
	r.mu.Unlock()
	r.tracer.setSink(s)
}

// sinkFor is the sink the counter or gauge named name tees to: none if
// the registry's sink does not keep it. The caller holds r.mu.
func (r *Registry) sinkFor(name string) Sink {
	if r.sink == nil || !r.sink.Keeps(name) {
		return nil
	}
	return r.sink
}

// Snapshot returns a point-in-time copy of every instrument, sorted by
// name. It is safe to call concurrently with recording; each instrument
// is read atomically (a histogram's fields are individually atomic, so
// a snapshot taken mid-record may see a sample in the bucket array but
// not yet in the sum — totals are exact once recording quiesces).
func (r *Registry) Snapshot() Snapshot {
	if r == nil {
		return Snapshot{}
	}
	r.mu.RLock()
	defer r.mu.RUnlock()
	var s Snapshot
	s.Counters = make([]CounterSnap, 0, len(r.counts))
	for name, c := range r.counts {
		s.Counters = append(s.Counters, CounterSnap{Name: name, Value: c.Value()})
	}
	sort.Slice(s.Counters, func(i, j int) bool { return s.Counters[i].Name < s.Counters[j].Name })
	s.Gauges = make([]GaugeSnap, 0, len(r.gauges))
	for name, g := range r.gauges {
		s.Gauges = append(s.Gauges, GaugeSnap{Name: name, Value: g.Value()})
	}
	sort.Slice(s.Gauges, func(i, j int) bool { return s.Gauges[i].Name < s.Gauges[j].Name })
	s.Histograms = make([]HistogramSnap, 0, len(r.hists))
	for name, h := range r.hists {
		s.Histograms = append(s.Histograms, h.snap(name))
	}
	sort.Slice(s.Histograms, func(i, j int) bool { return s.Histograms[i].Name < s.Histograms[j].Name })
	return s
}

// Export bundles the metrics snapshot with the trace log — the unit the
// golden regression tests serialise and compare byte-for-byte.
func (r *Registry) Export() Export {
	if r == nil {
		return Export{}
	}
	return Export{
		Metrics: r.Snapshot(),
		Trace:   r.tracer.Snapshot(),
	}
}
