package obs

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"viyojit/internal/sim"
)

// nopSink is a sink that ignores everything.
type nopSink struct{}

func (nopSink) CounterAdd(string, uint64, uint64) {}
func (nopSink) GaugeSet(string, int64)            {}
func (nopSink) SpanFinished(SpanRecord)           {}

// runTraceScript drives tr through a seeded schedule of nested spans —
// scoped children, finishes out of begin order, spans left open — and
// returns its snapshot.
func runTraceScript(tr *Tracer, seed uint64, steps int) TraceSnapshot {
	rng := sim.NewRNG(seed)
	var open []Span
	codes := []string{"ok", "error", "shed_overload"}
	for step := 0; step < steps; step++ {
		now := sim.Time(step)
		switch r := rng.Intn(10); {
		case r < 5 || len(open) == 0:
			sp := tr.Begin("op", now)
			if rng.Intn(4) == 0 {
				tr.SetScope(sp.ID)
			}
			open = append(open, sp)
		case r < 9:
			i := rng.Intn(len(open))
			tr.Finish(open[i], now, codes[rng.Intn(len(codes))])
			open = append(open[:i], open[i+1:]...)
		default:
			tr.SetScope(0)
		}
	}
	return tr.Snapshot()
}

// TestRecycledTracerMatchesFresh: a registry recycled from a retired one
// (Registry.Recycle) has a tracer that behaves as NewRegistry's. The
// donor's ring has wrapped, evicted spans and holds spans open, with a
// scope and a sink installed; then one seeded schedule runs on the
// recycled tracer and on a fresh one — once short of the ring's
// capacity, once past it — and the snapshots must be equal. The donor's
// tracer panics on use afterwards, naming retirement, and its
// instruments still read.
func TestRecycledTracerMatchesFresh(t *testing.T) {
	for seed, steps := range map[uint64]int{1: 3000, 2: 3 * defaultSpanCap} {
		donor := NewRegistry()
		donor.SetSink(nopSink{})
		donor.Counter("c").Add(3)
		runTraceScript(donor.Tracer(), seed+100, 3*defaultSpanCap)
		d := donor.Tracer()
		if d.evicted == 0 || d.start == 0 || d.openN == 0 || d.scope.Load() == 0 {
			t.Fatalf("seed %d: the donor tracer evicted %d spans, starts at %d, holds %d open, scope %d: the test would prove nothing",
				seed, d.evicted, d.start, d.openN, d.scope.Load())
		}
		metrics, ring := donor.Snapshot(), &d.ring[0]

		recycled := donor.Recycle()
		rt := recycled.Tracer()
		if &rt.ring[0] != ring {
			t.Fatalf("seed %d: Recycle did not take the donor's span ring", seed)
		}
		fresh := NewRegistry()
		ft := fresh.Tracer()
		if rt.start != ft.start || rt.n != ft.n || rt.evicted != ft.evicted || rt.openN != ft.openN ||
			rt.openDropped != ft.openDropped || rt.nextID.Load() != ft.nextID.Load() || rt.scope.Load() != ft.scope.Load() || rt.sink != ft.sink {
			t.Fatalf("seed %d: the recycled tracer does not read as a fresh one", seed)
		}
		for what, use := range map[string]func(){
			"Begin":    func() { d.Begin("op", 0) },
			"Finish":   func() { d.Finish(Span{ID: 1}, 0, "ok") },
			"Snapshot": func() { d.Snapshot() },
		} {
			func() {
				defer func() {
					if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "retired") {
						t.Fatalf("seed %d: %s on the donor tracer after Recycle: panic %v, want one naming retirement", seed, what, r)
					}
				}()
				use()
			}()
		}
		if got := donor.Snapshot(); !reflect.DeepEqual(got, metrics) {
			t.Fatalf("seed %d: the donor's instruments changed across the hand-off", seed)
		}

		got, want := runTraceScript(rt, seed, steps), runTraceScript(ft, seed, steps)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d: snapshots differ: recycled %d spans, %d evicted, %d open; fresh %d, %d, %d",
				seed, len(got.Spans), got.Evicted, len(got.Open), len(want.Spans), want.Evicted, len(want.Open))
		}
	}
}
