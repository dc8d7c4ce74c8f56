package obs

import (
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"viyojit/internal/sim"
)

// nopSink is a sink that ignores everything.
type nopSink struct{}

func (nopSink) CounterAdd(string, uint64, uint64) {}
func (nopSink) GaugeSet(string, int64)            {}
func (nopSink) SpanFinished(SpanRecord)           {}
func (nopSink) Keeps(string) bool                 { return true }

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

// TestRecycledRegistryKeepsDonorInstruments: a registry recycled from a
// retired one hands out new instruments under the donor's names, carved
// from blocks sized to the donor's, and leaves the donor's alone: each
// donor instrument still reads what it was last given and is not the
// recycled registry's instrument of that name, whose records it never
// sees. Building the donor's whole set again costs a handful of
// allocations, not one per instrument.
func TestRecycledRegistryKeepsDonorInstruments(t *testing.T) {
	const n = 100 // more than one fresh block of each kind
	name := func(kind string, i int) string { return fmt.Sprintf("%s_%03d", kind, i) }
	donor := NewRegistry()
	for i := 0; i < n; i++ {
		donor.Counter(name("c", i)).Add(uint64(i + 1))
		donor.Gauge(name("g", i)).Set(int64(-i))
		if i < 10 {
			donor.Histogram(name("h", i)).Record(sim.Duration(1000 + i))
		}
	}
	want := donor.Snapshot()

	names := make([][3]string, n)
	for i := range names {
		names[i] = [3]string{name("c", i), name("g", i), name("h", i)}
	}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	recycled := donor.Recycle()
	for i, nm := range names {
		recycled.Counter(nm[0])
		recycled.Gauge(nm[1])
		if i < 10 {
			recycled.Histogram(nm[2])
		}
	}
	runtime.ReadMemStats(&ms1)
	if allocs := ms1.Mallocs - ms0.Mallocs; allocs > 24 {
		t.Fatalf("recycling a registry and building its %d instruments again allocates %d times, want ≤ 24", 2*n+10, allocs)
	}
	for i := 0; i < n; i++ {
		dc, rc := donor.Counter(name("c", i)), recycled.Counter(name("c", i))
		dg, rg := donor.Gauge(name("g", i)), recycled.Gauge(name("g", i))
		if dc == rc || dg == rg {
			t.Fatalf("instrument %d is shared between the donor and the recycled registry", i)
		}
		if rc.Value() != 0 || rg.Value() != 0 {
			t.Fatalf("recycled instrument %d reads %d, %d, want a fresh zero", i, rc.Value(), rg.Value())
		}
		rc.Add(1000)
		rg.Set(1000)
		if i < 10 {
			dh, rh := donor.Histogram(name("h", i)), recycled.Histogram(name("h", i))
			if dh == rh {
				t.Fatalf("histogram %d is shared between the donor and the recycled registry", i)
			}
			if s := rh.snap(""); s.Count != 0 {
				t.Fatalf("recycled histogram %d holds %d samples, want none", i, s.Count)
			}
			rh.Record(5)
		}
	}
	if got := donor.Snapshot(); !reflect.DeepEqual(got, want) {
		t.Fatal("the donor's instruments changed after the recycled registry's were recorded")
	}
}
