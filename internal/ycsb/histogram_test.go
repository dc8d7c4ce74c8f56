package ycsb

import (
	"testing"

	"viyojit/internal/sim"
)

func TestHistogramEmpty(t *testing.T) {
	var h Histogram
	if h.Mean() != 0 || h.Quantile(0.99) != 0 || h.count != 0 {
		t.Fatal("empty histogram returned non-zero stats")
	}
}

func TestHistogramMeanExact(t *testing.T) {
	var h Histogram
	h.Record(100)
	h.Record(200)
	h.Record(300)
	if h.Mean() != 200 {
		t.Fatalf("mean = %v, want 200", h.Mean())
	}
	if h.min != 100 || h.max != 300 {
		t.Fatalf("min/max = %v/%v", h.min, h.max)
	}
	if h.count != 3 {
		t.Fatalf("count = %d", h.count)
	}
}

func TestHistogramQuantileApproximate(t *testing.T) {
	var h Histogram
	// 99 samples at ~1 µs, 1 sample at ~1 ms.
	for i := 0; i < 99; i++ {
		h.Record(sim.Microsecond)
	}
	h.Record(sim.Millisecond)
	p50 := h.Quantile(0.50)
	p999 := h.Quantile(0.999)
	if p50 < sim.Microsecond/2 || p50 > 2*sim.Microsecond {
		t.Fatalf("p50 = %v, want ~1 µs", p50)
	}
	if p999 < sim.Millisecond/2 {
		t.Fatalf("p99.9 = %v, want ~1 ms", p999)
	}
}

func TestHistogramQuantileEdges(t *testing.T) {
	var h Histogram
	for i := 1; i <= 100; i++ {
		h.Record(sim.Duration(i) * sim.Microsecond)
	}
	if h.Quantile(0) != h.min {
		t.Fatal("Quantile(0) != min")
	}
	if h.Quantile(1) != h.max {
		t.Fatal("Quantile(1) != max")
	}
	p99 := h.Quantile(0.99)
	if p99 < 80*sim.Microsecond || p99 > 100*sim.Microsecond {
		t.Fatalf("p99 = %v, want ~99 µs", p99)
	}
}

func TestHistogramQuantileMonotone(t *testing.T) {
	var h Histogram
	rng := sim.NewRNG(3)
	for i := 0; i < 10000; i++ {
		h.Record(sim.Duration(rng.Intn(1_000_000)))
	}
	prev := sim.Duration(-1)
	for _, q := range []float64{0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 0.999} {
		v := h.Quantile(q)
		if v < prev {
			t.Fatalf("quantiles not monotone at %v: %v < %v", q, v, prev)
		}
		prev = v
	}
}

func TestHistogramNegativeClamped(t *testing.T) {
	var h Histogram
	h.Record(-5)
	if h.min != 0 {
		t.Fatalf("negative sample recorded as %v", h.min)
	}
}

func TestHistogramMerge(t *testing.T) {
	var a, b Histogram
	a.Record(100)
	b.Record(300)
	a.Merge(&b)
	if a.count != 2 {
		t.Fatalf("merged count = %d", a.count)
	}
	if a.Mean() != 200 {
		t.Fatalf("merged mean = %v", a.Mean())
	}
	if a.min != 100 || a.max != 300 {
		t.Fatalf("merged min/max = %v/%v", a.min, a.max)
	}
	var empty Histogram
	a.Merge(&empty) // no-op
	if a.count != 2 {
		t.Fatal("merging empty changed count")
	}
}

func TestHistogramHugeSampleClamped(t *testing.T) {
	var h Histogram
	h.Record(1 << 62) // beyond the bucket range
	if h.count != 1 {
		t.Fatal("huge sample lost")
	}
	if h.Quantile(0.5) != h.max {
		t.Fatalf("quantile of single huge sample = %v, want max %v", h.Quantile(0.5), h.max)
	}
}

func TestHistogramSnapshot(t *testing.T) {
	var h Histogram
	for i := 1; i <= 1000; i++ {
		h.Record(sim.Duration(i) * sim.Microsecond)
	}
	if h.count != 1000 || h.min != sim.Microsecond || h.max != 1000*sim.Microsecond {
		t.Fatalf("count/min/max = %d/%v/%v", h.count, h.min, h.max)
	}
	p50, p90, p99, p999 := h.Quantile(0.50), h.Quantile(0.90), h.Quantile(0.99), h.Quantile(0.999)
	if !(p50 <= p90 && p90 <= p99 && p99 <= p999) {
		t.Fatalf("percentiles not ordered: %v %v %v %v", p50, p90, p99, p999)
	}
	if p50 < 400*sim.Microsecond || p50 > 600*sim.Microsecond {
		t.Fatalf("p50 = %v, want ~500us", p50)
	}
}
