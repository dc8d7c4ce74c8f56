package dist

import (
	"testing"

	"viyojit/internal/sim"
)

func drawCounts(g Generator, n int64, draws int) map[int64]uint64 {
	counts := make(map[int64]uint64)
	for i := 0; i < draws; i++ {
		v := g.Next()
		counts[v]++
	}
	return counts
}

func assertInRange(t *testing.T, g Generator, n int64, draws int) map[int64]uint64 {
	t.Helper()
	counts := drawCounts(g, n, draws)
	for v := range counts {
		if v < 0 || v >= n {
			t.Fatalf("draw %d outside [0,%d)", v, n)
		}
	}
	return counts
}

func TestUniformRangeAndSpread(t *testing.T) {
	rng := sim.NewRNG(1)
	counts := assertInRange(t, NewUniform(rng, 100), 100, 50000)
	if len(counts) < 95 {
		t.Fatalf("uniform over 100 items hit only %d distinct", len(counts))
	}
	for v, c := range counts {
		if c > 1200 { // expected 500 ± noise
			t.Fatalf("uniform item %d drawn %d times; too skewed", v, c)
		}
	}
}

func TestZipfianHeadIsHot(t *testing.T) {
	rng := sim.NewRNG(2)
	counts := assertInRange(t, NewZipfian(rng, 1000, ZipfianConstant), 1000, 100000)
	// Item 0 must dominate: classic zipf head.
	if counts[0] < counts[500]*10 {
		t.Fatalf("item 0 drawn %d times vs item 500 %d; head not hot", counts[0], counts[500])
	}
	// The top 20% of items should cover well over half the draws.
	var headSum, total uint64
	for v, c := range counts {
		total += c
		if v < 200 {
			headSum += c
		}
	}
	if float64(headSum)/float64(total) < 0.6 {
		t.Fatalf("head coverage = %v, want > 0.6", float64(headSum)/float64(total))
	}
}

func TestZipfianPanicsOnBadArgs(t *testing.T) {
	rng := sim.NewRNG(1)
	for _, fn := range []func(){
		func() { NewZipfian(rng, 0, 0.99) },
		func() { NewZipfian(rng, 10, 0) },
		func() { NewZipfian(rng, 10, 1) },
		func() { NewUniform(rng, 0) },
		func() { NewHotSpot(rng, 0, 0.2, 0.8) },
		func() { NewHotSpot(rng, 10, 0, 0.8) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			fn()
		}()
	}
}

func TestScrambledZipfianSpreadsHotKeys(t *testing.T) {
	rng := sim.NewRNG(3)
	const n = 1000
	counts := assertInRange(t, NewScrambledZipfian(rng, n, ZipfianConstant), n, 100000)
	// Still skewed: some item dominates.
	var max uint64
	var hot int64
	for v, c := range counts {
		if c > max {
			max, hot = c, v
		}
	}
	if max < 5000 {
		t.Fatalf("scrambled zipfian max count %d; lost its skew", max)
	}
	// But the hottest item is scattered, not item 0 (with overwhelming
	// probability under FNV).
	if hot == 0 {
		t.Log("hottest item is 0; possible but unlikely — check scrambling")
	}
	// Spread check: the top-10 hottest items should not all be in the
	// first 1% of the keyspace.
	inHead := 0
	for v, c := range counts {
		if c > max/100 && v < n/100 {
			inHead++
		}
	}
	if inHead > 5 {
		t.Fatalf("%d very hot items clustered in the first 1%% of the keyspace", inHead)
	}
}

func TestLatestFavoursNewest(t *testing.T) {
	rng := sim.NewRNG(4)
	l := NewLatest(rng, 1000, ZipfianConstant)
	counts := drawCounts(l, 1000, 100000)
	if counts[999] < counts[100]*5 {
		t.Fatalf("newest item drawn %d vs old item %d; recency bias missing", counts[999], counts[100])
	}
}

func TestLatestGrowsWithInserts(t *testing.T) {
	rng := sim.NewRNG(5)
	l := NewLatest(rng, 100, ZipfianConstant)
	for i := 0; i < 100; i++ {
		l.AddItem()
	}
	if l.items != 200 {
		t.Fatalf("items = %d, want 200", l.items)
	}
	counts := drawCounts(l, 200, 50000)
	for v := range counts {
		if v < 0 || v >= 200 {
			t.Fatalf("draw %d outside grown window", v)
		}
	}
	// The newly inserted tail must now be the hot region.
	var newHalf, oldHalf uint64
	for v, c := range counts {
		if v >= 100 {
			newHalf += c
		} else {
			oldHalf += c
		}
	}
	if newHalf < oldHalf {
		t.Fatalf("new half drawn %d vs old half %d; window did not shift", newHalf, oldHalf)
	}
}

func TestHotSpotFractions(t *testing.T) {
	rng := sim.NewRNG(6)
	const n = 1000
	h := NewHotSpot(rng, n, 0.1, 0.9)
	counts := assertInRange(t, h, n, 100000)
	var hot, cold uint64
	for v, c := range counts {
		if v < 100 {
			hot += c
		} else {
			cold += c
		}
	}
	frac := float64(hot) / float64(hot+cold)
	if frac < 0.87 || frac > 0.93 {
		t.Fatalf("hot fraction = %v, want ~0.9", frac)
	}
}

func TestHotSpotFullHotSet(t *testing.T) {
	rng := sim.NewRNG(7)
	h := NewHotSpot(rng, 10, 1.0, 0.5)
	for i := 0; i < 1000; i++ {
		if v := h.Next(); v < 0 || v >= 10 {
			t.Fatalf("draw %d out of range", v)
		}
	}
}

func TestDeterminismAcrossGenerators(t *testing.T) {
	mk := func() []int64 {
		rng := sim.NewRNG(42)
		g := NewScrambledZipfian(rng, 500, ZipfianConstant)
		out := make([]int64, 100)
		for i := range out {
			out[i] = g.Next()
		}
		return out
	}
	a, b := mk(), mk()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same-seed generators diverged at draw %d", i)
		}
	}
}
