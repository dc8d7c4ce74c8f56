package obs

import (
	"sync"
	"sync/atomic"

	"viyojit/internal/sim"
)

// SpanID identifies a span within one tracer. IDs are sequential from 1
// in Begin order, which makes trace exports deterministic for seeded
// runs: same seed, same IDs, same log.
type SpanID uint64

// Span is an in-flight operation. It is a plain value: Begin hands it
// out, the caller carries it (typically in a closure it already has),
// and Finish records it. No allocation, no map of live spans.
type Span struct {
	ID     SpanID
	Parent SpanID
	Name   string
	Start  sim.Time
}

// SpanRecord is one finished span in the trace log.
type SpanRecord struct {
	ID     SpanID   `json:"id"`
	Parent SpanID   `json:"parent,omitempty"`
	Name   string   `json:"name"`
	Start  sim.Time `json:"start"`
	End    sim.Time `json:"end"`
	// Code classifies the outcome: "ok", "error", "shed_overload",
	// "shed_deadline", "read_only", …. Static strings only — the record
	// path must not format.
	Code string `json:"code"`
}

// Duration returns the span's elapsed virtual time.
func (r SpanRecord) Duration() sim.Duration { return r.End.Sub(r.Start) }

// TraceSnapshot is the exported trace log: finished spans in completion
// order, plus how many older spans the bounded ring evicted. Open holds
// the spans that were still in flight at snapshot time (Begin with no
// Finish yet), in Begin order with End/Code zero — the operation that
// was executing when the snapshot (or the power failure) hit. Both tail
// fields are omitted from JSON when empty so snapshots of quiesced runs
// are unchanged.
type TraceSnapshot struct {
	Spans       []SpanRecord `json:"spans"`
	Evicted     uint64       `json:"evicted,omitempty"`
	Open        []SpanRecord `json:"open,omitempty"`
	OpenDropped uint64       `json:"open_dropped,omitempty"`
}

// defaultSpanCap bounds the finished-span ring. Old spans are evicted
// FIFO; Evicted in the snapshot says how many. 4096 spans ≈ a few
// hundred KB, enough to hold the interesting tail of any test scenario.
const defaultSpanCap = 4096

// openSpanCap bounds the in-flight span table. The simulator's span
// producers nest at most a few levels (request → clean → scrub), so 64
// is generous; spans begun past the cap are still valid and Finish
// normally, they just aren't listed as open (OpenDropped counts them).
const openSpanCap = 64

// Tracer records spans into a fixed-capacity ring. Begin/Finish are
// safe from any goroutine and allocation-free; Snapshot copies under
// the same lock Finish takes, so it is consistent and race-free.
//
// The "scope" is the ambient parent span: the serve step sets it around
// request execution so that clean and scrub operations the manager
// starts underneath become child spans without any plumbing through
// core's APIs. Scope is owned by the one goroutine that owns the
// simulation at a time; it is stored atomically only so concurrent
// Snapshot calls race-detect clean.
type Tracer struct {
	nextID atomic.Uint64
	scope  atomic.Uint64

	mu      sync.Mutex
	ring    []SpanRecord
	start   int // index of oldest record
	n       int // records in ring
	evicted uint64

	// open tracks in-flight spans (Begin without Finish) in a fixed
	// preallocated table so Snapshot can expose what was executing at
	// the crash instant. openN is the live prefix length; insertion is
	// in Begin order and removal compacts, so the prefix stays ordered.
	open        []Span
	openN       int
	openDropped uint64

	// sink receives finished spans; set during wiring (see
	// Registry.SetSink), read on the Finish path without
	// synchronisation.
	sink Sink
}

func newTracer(capacity int) *Tracer {
	return &Tracer{ring: make([]SpanRecord, capacity), open: make([]Span, openSpanCap)}
}

// mustLive panics if t's tables went to a reboot (Registry.Recycle).
func (t *Tracer) mustLive() {
	if t.ring == nil {
		panic("obs: use of a tracer retired by a reboot (Registry.Recycle)")
	}
}

func (t *Tracer) setSink(s Sink) {
	if t != nil {
		t.sink = s
	}
}

// Begin starts a span at virtual time `at`, parented to the current
// scope. Nil tracers return a zero span that Finish ignores.
func (t *Tracer) Begin(name string, at sim.Time) Span {
	if t == nil {
		return Span{}
	}
	sp := Span{
		ID:     SpanID(t.nextID.Add(1)),
		Parent: SpanID(t.scope.Load()),
		Name:   name,
		Start:  at,
	}
	t.trackOpen(sp)
	return sp
}

func (t *Tracer) trackOpen(sp Span) {
	t.mustLive()
	t.mu.Lock()
	if t.openN < len(t.open) {
		t.open[t.openN] = sp
		t.openN++
	} else {
		t.openDropped++
	}
	t.mu.Unlock()
}

// Finish records the span as completed at `end` with the given outcome
// code. Zero spans (from a nil tracer's Begin) are dropped.
func (t *Tracer) Finish(sp Span, end sim.Time, code string) {
	if t == nil || sp.ID == 0 {
		return
	}
	t.mustLive()
	t.mu.Lock()
	for i := 0; i < t.openN; i++ {
		if t.open[i].ID == sp.ID {
			copy(t.open[i:t.openN-1], t.open[i+1:t.openN])
			t.open[t.openN-1] = Span{}
			t.openN--
			break
		}
	}
	if t.n == len(t.ring) {
		// Evict the oldest.
		t.start = (t.start + 1) % len(t.ring)
		t.n--
		t.evicted++
	}
	idx := (t.start + t.n) % len(t.ring)
	rec := SpanRecord{ID: sp.ID, Parent: sp.Parent, Name: sp.Name, Start: sp.Start, End: end, Code: code}
	t.ring[idx] = rec
	t.n++
	t.mu.Unlock()
	if t.sink != nil {
		// Outside the lock: the sink may be arbitrarily slow but must
		// not deadlock against Snapshot.
		t.sink.SpanFinished(rec)
	}
}

// SetScope installs span id as the ambient parent for subsequent Begin
// calls and returns the previous scope so callers can restore it:
//
//	prev := tr.SetScope(sp.ID)
//	defer tr.SetScope(prev)
//
// Only the goroutine that owns the simulation should set scope.
func (t *Tracer) SetScope(id SpanID) SpanID {
	if t == nil {
		return 0
	}
	return SpanID(t.scope.Swap(uint64(id)))
}

// Snapshot copies the finished-span log in completion order, plus the
// spans still open at snapshot time (marked by a zero End/Code).
func (t *Tracer) Snapshot() TraceSnapshot {
	if t == nil {
		return TraceSnapshot{}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.mustLive()
	out := TraceSnapshot{Evicted: t.evicted, OpenDropped: t.openDropped}
	if t.n > 0 {
		out.Spans = make([]SpanRecord, t.n)
		for i := 0; i < t.n; i++ {
			out.Spans[i] = t.ring[(t.start+i)%len(t.ring)]
		}
	}
	if t.openN > 0 {
		out.Open = make([]SpanRecord, t.openN)
		for i, sp := range t.open[:t.openN] {
			out.Open[i] = SpanRecord{ID: sp.ID, Parent: sp.Parent, Name: sp.Name, Start: sp.Start}
		}
	}
	return out
}
