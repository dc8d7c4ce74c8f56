package obs

import (
	"math"
	"runtime"
	"strings"
	"testing"

	"viyojit/internal/sim"
)

func TestCounterBasics(t *testing.T) {
	var c Counter
	if c.Value() != 0 {
		t.Fatalf("fresh counter = %d, want 0", c.Value())
	}
	c.Inc()
	c.Add(41)
	if c.Value() != 42 {
		t.Fatalf("counter = %d, want 42", c.Value())
	}
}

func TestCounterOverflowWraps(t *testing.T) {
	// Documented semantics: modulo 2^64, no saturation, no panic.
	var c Counter
	c.Add(math.MaxUint64)
	c.Inc()
	if c.Value() != 0 {
		t.Fatalf("MaxUint64+1 = %d, want wrap to 0", c.Value())
	}
	c.Add(7)
	if c.Value() != 7 {
		t.Fatalf("post-wrap counter = %d, want 7", c.Value())
	}
}

func TestNilCounterNoops(t *testing.T) {
	var c *Counter
	c.Inc()
	c.Add(5)
	if c.Value() != 0 {
		t.Fatalf("nil counter Value = %d, want 0", c.Value())
	}
}

func TestGaugeBasics(t *testing.T) {
	var g Gauge
	g.Set(-5)
	if g.Value() != -5 {
		t.Fatalf("gauge = %d, want -5", g.Value())
	}
	g.SetMax(3) // raises: 3 > -5
	if g.Value() != 3 {
		t.Fatalf("SetMax(3) on -5 = %d, want 3", g.Value())
	}
	g.SetMax(1) // no-op: 1 <= 3
	if g.Value() != 3 {
		t.Fatalf("SetMax(1) on 3 = %d, want 3", g.Value())
	}
}

func TestNilGaugeNoops(t *testing.T) {
	var g *Gauge
	g.Set(1)
	g.SetMax(1)
	if g.Value() != 0 {
		t.Fatalf("nil gauge Value = %d, want 0", g.Value())
	}
}

func TestNilRegistryHandsOutNoopInstruments(t *testing.T) {
	var r *Registry
	if r.Counter("x") != nil || r.Gauge("x") != nil || r.Histogram("x") != nil || r.Tracer() != nil {
		t.Fatal("nil registry must hand out nil instruments")
	}
	// The full chain must be callable without panics.
	r.Counter("x").Inc()
	r.Gauge("x").Set(1)
	r.Histogram("x").Record(1)
	sp := r.Tracer().Begin("op", 0)
	r.Tracer().Finish(sp, 0, "ok")
	if s := r.Snapshot(); len(s.Counters)+len(s.Gauges)+len(s.Histograms) != 0 {
		t.Fatal("nil registry snapshot must be empty")
	}
	if e := r.Export(); len(e.Trace.Spans) != 0 {
		t.Fatal("nil registry export must be empty")
	}
}

func TestRegistryGetOrCreateShares(t *testing.T) {
	r := NewRegistry()
	if r.Counter("a") != r.Counter("a") {
		t.Fatal("same counter name must share storage")
	}
	if r.Gauge("a") != r.Gauge("a") {
		t.Fatal("same gauge name must share storage")
	}
	if r.Histogram("a") != r.Histogram("a") {
		t.Fatal("same histogram name must share storage")
	}
}

func TestSnapshotSortedByName(t *testing.T) {
	r := NewRegistry()
	for _, name := range []string{"zeta", "alpha", "mid"} {
		r.Counter(name).Inc()
		r.Gauge(name).Set(1)
		r.Histogram(name).Record(1)
	}
	s := r.Snapshot()
	for i := 1; i < len(s.Counters); i++ {
		if s.Counters[i-1].Name >= s.Counters[i].Name {
			t.Fatalf("counters not sorted: %q before %q", s.Counters[i-1].Name, s.Counters[i].Name)
		}
	}
	for i := 1; i < len(s.Gauges); i++ {
		if s.Gauges[i-1].Name >= s.Gauges[i].Name {
			t.Fatalf("gauges not sorted")
		}
	}
	for i := 1; i < len(s.Histograms); i++ {
		if s.Histograms[i-1].Name >= s.Histograms[i].Name {
			t.Fatalf("histograms not sorted")
		}
	}
}

func TestHistogramEdgeCases(t *testing.T) {
	const overflow = sim.Duration(math.MaxInt64 / 2) // far beyond the covered range

	cases := []struct {
		name    string
		samples []sim.Duration
		count   uint64
		min     int64 // checked only when count > 0
		max     int64
		mean    int64
	}{
		{name: "empty", samples: nil, count: 0},
		{
			name:    "single sample",
			samples: []sim.Duration{1500},
			count:   1, min: 1500, max: 1500, mean: 1500,
		},
		{
			name:    "negative clamps to zero",
			samples: []sim.Duration{-50},
			count:   1, min: 0, max: 0, mean: 0,
		},
		{
			name:    "bucket boundary power of two",
			samples: []sim.Duration{1024, 1024, 1024},
			count:   3, min: 1024, max: 1024, mean: 1024,
		},
		{
			name:    "overflow lands in last bucket",
			samples: []sim.Duration{overflow},
			count:   1, min: int64(overflow), max: int64(overflow), mean: int64(overflow),
		},
		{
			name:    "mixed spread",
			samples: []sim.Duration{10, 100, 1000, 10000, 100000},
			count:   5, min: 10, max: 100000, mean: 22222,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			h := newHistogram()
			for _, d := range tc.samples {
				h.Record(d)
			}
			s := h.snap("h")
			if s.Count != tc.count {
				t.Fatalf("count = %d, want %d", s.Count, tc.count)
			}
			if tc.count == 0 {
				if len(s.Buckets) != 0 || s.Min != 0 || s.Max != 0 {
					t.Fatalf("empty histogram must export a bare snap, got %+v", s)
				}
				return
			}
			if s.Min != tc.min || s.Max != tc.max {
				t.Fatalf("min/max = %d/%d, want %d/%d", s.Min, s.Max, tc.min, tc.max)
			}
			if s.Mean != tc.mean {
				t.Fatalf("mean = %d, want %d", s.Mean, tc.mean)
			}
			// Every quantile must respect the recorded range and be
			// monotone in q.
			if s.P50 < s.Min || s.P999 > s.Max {
				t.Fatalf("quantiles outside [min,max]: %+v", s)
			}
			if s.P50 > s.P90 || s.P90 > s.P99 || s.P99 > s.P999 {
				t.Fatalf("quantiles not monotone: %+v", s)
			}
			var total uint64
			for _, b := range s.Buckets {
				total += b.Count
			}
			if total != tc.count {
				t.Fatalf("bucket counts sum to %d, want %d", total, tc.count)
			}
		})
	}
}

func TestHistogramSingleSampleQuantilesExact(t *testing.T) {
	h := newHistogram()
	h.Record(7777)
	s := h.snap("h")
	for _, got := range []int64{s.Min, s.P50, s.P90, s.P99, s.P999, s.Max} {
		if got != 7777 {
			t.Fatalf("snap %+v, want every quantile exactly 7777", s)
		}
	}
}

func TestHistogramQuantileInterpolation(t *testing.T) {
	// Two well-separated clusters: the median must sit in the low
	// cluster's bucket, p99 in the high one, and interpolation must keep
	// both within one bucket width (2^(1/8) ≈ 9 %) of the true value.
	h := newHistogram()
	for i := 0; i < 90; i++ {
		h.Record(1000)
	}
	for i := 0; i < 10; i++ {
		h.Record(1_000_000)
	}
	s := h.snap("h")
	p50 := s.P50
	if p50 < 1000 || p50 > 1100 {
		t.Fatalf("p50 = %d, want within one bucket of 1000", p50)
	}
	p99 := s.P99
	if p99 < 930_000 || p99 > 1_000_000 {
		t.Fatalf("p99 = %d, want within one bucket of 1e6 (clamped at max)", p99)
	}
	if q0 := quantile(&[numBuckets]uint64{}, 1, s.Min, s.Max, 0); q0 != 1000 {
		t.Fatalf("quantile 0 = %d, want min 1000", q0)
	}
	if q1 := quantile(&[numBuckets]uint64{}, 1, s.Min, s.Max, 1); q1 != 1_000_000 {
		t.Fatalf("quantile 1 = %d, want max 1e6", q1)
	}
}

func TestBucketIndexMonotone(t *testing.T) {
	prev := -1
	for _, d := range []sim.Duration{0, 1, 2, 3, 255, 256, 257, 1 << 20, 1 << 39, math.MaxInt64} {
		idx := bucketIndex(d)
		if idx < 0 || idx >= numBuckets {
			t.Fatalf("bucketIndex(%d) = %d out of range", d, idx)
		}
		if idx < prev {
			t.Fatalf("bucketIndex not monotone at %d: %d < %d", d, idx, prev)
		}
		prev = idx
	}
	if bucketIndex(math.MaxInt64) != numBuckets-1 {
		t.Fatal("max duration must land in the overflow bucket")
	}
}

func TestTracerScopeAndParentage(t *testing.T) {
	tr := newTracer(16)
	root := tr.Begin("root", 10)
	if root.Parent != 0 {
		t.Fatalf("unscoped span parent = %d, want 0", root.Parent)
	}
	prev := tr.SetScope(root.ID)
	if prev != 0 {
		t.Fatalf("previous scope = %d, want 0", prev)
	}
	child := tr.Begin("child", 20)
	if child.Parent != root.ID {
		t.Fatalf("scoped span parent = %d, want %d", child.Parent, root.ID)
	}
	tr.SetScope(prev)
	after := tr.Begin("after", 30)
	if after.Parent != 0 {
		t.Fatalf("post-restore span parent = %d, want 0", after.Parent)
	}
	tr.Finish(child, 25, "ok")
	tr.Finish(root, 40, "ok")
	snap := tr.Snapshot()
	if len(snap.Spans) != 2 {
		t.Fatalf("snapshot has %d spans, want 2", len(snap.Spans))
	}
	// Completion order, not begin order.
	if snap.Spans[0].Name != "child" || snap.Spans[1].Name != "root" {
		t.Fatalf("spans out of completion order: %+v", snap.Spans)
	}
	if snap.Spans[0].Duration() != 5 {
		t.Fatalf("child duration = %v, want 5", snap.Spans[0].Duration())
	}
}

func TestTracerRingEviction(t *testing.T) {
	tr := newTracer(4)
	for i := 0; i < 10; i++ {
		sp := tr.Begin("op", sim.Time(i))
		tr.Finish(sp, sim.Time(i+1), "ok")
	}
	snap := tr.Snapshot()
	if len(snap.Spans) != 4 {
		t.Fatalf("ring holds %d spans, want 4", len(snap.Spans))
	}
	if snap.Evicted != 6 {
		t.Fatalf("evicted = %d, want 6", snap.Evicted)
	}
	// The survivors are the newest four, still in completion order.
	if snap.Spans[0].ID != 7 || snap.Spans[3].ID != 10 {
		t.Fatalf("wrong survivors: %+v", snap.Spans)
	}
}

func TestNilTracerNoops(t *testing.T) {
	var tr *Tracer
	sp := tr.Begin("x", 0)
	if sp.ID != 0 {
		t.Fatal("nil tracer must hand out zero spans")
	}
	tr.Finish(sp, 1, "ok")
	tr.SetScope(5)
	if s := tr.Snapshot(); len(s.Spans) != 0 {
		t.Fatal("nil tracer snapshot must be empty")
	}
}

func TestFinishDropsZeroSpan(t *testing.T) {
	tr := newTracer(4)
	tr.Finish(Span{}, 10, "ok") // from a nil tracer's Begin
	if s := tr.Snapshot(); len(s.Spans) != 0 {
		t.Fatal("zero span must not be recorded")
	}
}

func TestWriteTextFormat(t *testing.T) {
	r := NewRegistry()
	r.Counter("requests_total").Add(3)
	r.Gauge("depth").Set(-2)
	r.Histogram("lat_ns").Record(1000)
	sp := r.Tracer().Begin("serve.request", 5)
	r.Tracer().Finish(sp, 15, "ok")

	var sb strings.Builder
	if err := r.Export().WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	want := "counter requests_total 3\n" +
		"gauge depth -2\n" +
		"hist lat_ns count=1 sum=1000 min=1000 max=1000 mean=1000 p50=1000 p90=1000 p99=1000 p999=1000\n" +
		"span 1 parent=0 serve.request start=5 end=15 dur=10 code=ok\n"
	if sb.String() != want {
		t.Fatalf("text exposition mismatch:\ngot:\n%s\nwant:\n%s", sb.String(), want)
	}
}

// TestRecordPathZeroAlloc is the hot-path guard: counter increments,
// gauge stores, histogram records, and span begin/finish must not
// allocate (ISSUE 6 acceptance: zero allocations on the record path).
func TestRecordPathZeroAlloc(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c")
	g := r.Gauge("g")
	h := r.Histogram("h")
	tr := r.Tracer()
	if n := mallocs(1000, func() {
		c.Inc()
		c.Add(2)
		g.Set(9)
		g.SetMax(12)
		h.Record(12345)
		sp := tr.Begin("op", 1)
		tr.Finish(sp, 2, "ok")
	}); n != 0 {
		t.Fatalf("1000 passes over the record path allocate %d times, want 0", n)
	}
}

func TestSnapshotConcurrentWithRecording(t *testing.T) {
	// Smoke for the -race matrix: hammer every instrument from several
	// goroutines while snapshotting. Correctness of totals is asserted
	// after the recorders quiesce.
	r := NewRegistry()
	const goroutines = 8
	const per = 2000
	done := make(chan struct{})
	for i := 0; i < goroutines; i++ {
		go func() {
			defer func() { done <- struct{}{} }()
			c := r.Counter("c")
			g := r.Gauge("g")
			h := r.Histogram("h")
			tr := r.Tracer()
			for j := 0; j < per; j++ {
				c.Inc()
				g.Set(int64(j))
				h.Record(sim.Duration(j))
				sp := tr.Begin("op", sim.Time(j))
				tr.Finish(sp, sim.Time(j+1), "ok")
			}
		}()
	}
	stop := make(chan struct{})
	go func() {
		for {
			select {
			case <-stop:
				return
			default:
				_ = r.Snapshot()
				_ = r.Export()
			}
		}
	}()
	for i := 0; i < goroutines; i++ {
		<-done
	}
	close(stop)
	if got := r.Counter("c").Value(); got != goroutines*per {
		t.Fatalf("counter = %d, want %d", got, goroutines*per)
	}
	if got := r.Histogram("h").count.Load(); got != goroutines*per {
		t.Fatalf("histogram count = %d, want %d", got, goroutines*per)
	}
}

func newHistogram() *Histogram {
	h := &Histogram{}
	h.init()
	return h
}

// mallocs runs f runs times to reach steady state, then runs times more,
// and returns what the second pass allocated in total:
// testing.AllocsPerRun's integer average would hide up to runs-1
// allocations.
func mallocs(runs int, f func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	for i := 0; i < runs; i++ {
		f()
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs
}
