package dist

import (
	"math"
	"testing"
	"testing/quick"

	"viyojit/internal/sim"
)

func TestZipfCoverageBasics(t *testing.T) {
	// Covering 100% of draws needs all items that have mass — for zipf,
	// that's every item.
	if got := ZipfCoverage(100, 0.99, 1.0); got != 1.0 {
		t.Fatalf("100%% coverage = %v, want 1.0", got)
	}
	// Covering 90% needs far fewer than 90% of items.
	got := ZipfCoverage(100000, 0.99, 0.90)
	if got > 0.5 {
		t.Fatalf("90%% coverage of zipf = %v items fraction; not skewed enough", got)
	}
}

// Fig 5's central claim: the fraction needed for a fixed percentile
// SHRINKS as the total item count grows.
func TestZipfCoverageShrinksWithScale(t *testing.T) {
	small := ZipfCoverage(10_000, 0.99, 0.90)
	medium := ZipfCoverage(100_000, 0.99, 0.90)
	large := ZipfCoverage(1_000_000, 0.99, 0.90)
	if !(small > medium && medium > large) {
		t.Fatalf("coverage fractions did not shrink with scale: %v, %v, %v", small, medium, large)
	}
}

func TestZipfCoverageMonotoneInPercentile(t *testing.T) {
	p90 := ZipfCoverage(100_000, 0.99, 0.90)
	p95 := ZipfCoverage(100_000, 0.99, 0.95)
	p99 := ZipfCoverage(100_000, 0.99, 0.99)
	if !(p90 < p95 && p95 < p99) {
		t.Fatalf("coverage not monotone in percentile: %v, %v, %v", p90, p95, p99)
	}
}

func TestZipfCoverageSeriesShape(t *testing.T) {
	counts := []int64{1_000, 10_000, 100_000}
	pcts := []float64{0.90, 0.99}
	series := ZipfCoverageSeries(counts, 0.99, pcts)
	if len(series) != 2 || len(series[0]) != 3 {
		t.Fatalf("series shape = %dx%d", len(series), len(series[0]))
	}
	for pi := range series {
		for ni := 1; ni < len(series[pi]); ni++ {
			if series[pi][ni].Fraction >= series[pi][ni-1].Fraction {
				t.Fatalf("series %d not decreasing at point %d", pi, ni)
			}
		}
	}
}

func TestZipfCoveragePanics(t *testing.T) {
	for _, fn := range []func(){
		func() { ZipfCoverage(0, 0.99, 0.9) },
		func() { ZipfCoverage(10, 0.99, 0) },
		func() { ZipfCoverage(10, 0.99, 1.1) },
		func() { EmpiricalCoverage(nil, 0, 0.9) },
		func() { EmpiricalCoverage(map[int64]uint64{1: 1}, 10, 2) },
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

func TestEmpiricalCoverageKnownCase(t *testing.T) {
	// Item 0: 90 draws; items 1..10: 1 draw each. 90% of 100 draws is
	// covered by exactly the first item.
	counts := map[int64]uint64{0: 90}
	for i := int64(1); i <= 10; i++ {
		counts[i] = 1
	}
	got := EmpiricalCoverage(counts, 100, 0.90)
	if got != 1.0/100 {
		t.Fatalf("coverage = %v, want 0.01", got)
	}
	// 99% needs the top item plus 9 of the singletons.
	got = EmpiricalCoverage(counts, 100, 0.99)
	if got != 10.0/100 {
		t.Fatalf("99%% coverage = %v, want 0.10", got)
	}
}

func TestEmpiricalCoverageEmpty(t *testing.T) {
	if got := EmpiricalCoverage(map[int64]uint64{}, 10, 0.9); got != 0 {
		t.Fatalf("empty coverage = %v", got)
	}
}

// The analytic and empirical computations must agree on sampled zipf
// draws.
func TestAnalyticMatchesEmpirical(t *testing.T) {
	rng := sim.NewRNG(11)
	const n = 10000
	z := NewZipfian(rng, n, 0.99)
	counts := make(map[int64]uint64)
	for i := 0; i < 500000; i++ {
		counts[z.Next()]++
	}
	analytic := ZipfCoverage(n, 0.99, 0.90)
	empirical := EmpiricalCoverage(counts, n, 0.90)
	ratio := empirical / analytic
	if ratio < 0.5 || ratio > 2.0 {
		t.Fatalf("analytic %v vs empirical %v diverge", analytic, empirical)
	}
}

// Property: EmpiricalCoverage is in [0, 1] and monotone in percentile for
// arbitrary count multisets.
func TestEmpiricalCoverageProperty(t *testing.T) {
	f := func(raw []uint8) bool {
		counts := make(map[int64]uint64)
		for i, c := range raw {
			if c > 0 {
				counts[int64(i)] = uint64(c)
			}
		}
		n := int64(len(raw) + 1)
		c90 := EmpiricalCoverage(counts, n, 0.90)
		c99 := EmpiricalCoverage(counts, n, 0.99)
		return c90 >= 0 && c99 <= 1 && c90 <= c99
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestSortDescending(t *testing.T) {
	a := []uint64{3, 1, 4, 1, 5, 9, 2, 6}
	sortDescending(a)
	for i := 1; i < len(a); i++ {
		if a[i] > a[i-1] {
			t.Fatalf("not descending: %v", a)
		}
	}
	sortDescending(nil) // must not panic
}

// naiveZipfCoverage is the two-step reference: sum ζ(n) from 1, then
// walk the partial sums again until they reach percentile·ζ(n).
func naiveZipfCoverage(n int64, theta, percentile float64) float64 {
	total := 0.0
	for i := int64(1); i <= n; i++ {
		total += 1 / math.Pow(float64(i), theta)
	}
	target := percentile * total
	sum := 0.0
	for i := int64(1); i <= n; i++ {
		sum += 1 / math.Pow(float64(i), theta)
		if sum >= target {
			return float64(i) / float64(n)
		}
	}
	return 1.0
}

// The one-pass series sums in the reference's order, so every point
// equals the reference bit for bit, whatever the order of its inputs.
func TestZipfCoverageSeriesMatchesNaive(t *testing.T) {
	counts := []int64{100_000, 1, 7, 1_000, 2, 12_345, 1_000, 100}
	pcts := []float64{0.99, 0.5, 1, 0.9, 0.95, 0.01}
	for _, theta := range []float64{0, 0.5, 0.99, 1.2, math.NaN()} {
		series := ZipfCoverageSeries(counts, theta, pcts)
		for pi, p := range pcts {
			for ni, n := range counts {
				got, want := series[pi][ni], naiveZipfCoverage(n, theta, p)
				if got.TotalItems != n || math.Float64bits(got.Fraction) != math.Float64bits(want) {
					t.Errorf("θ=%v n=%d p=%v: got %v (n=%d), reference %v", theta, n, p, got.Fraction, got.TotalItems, want)
				}
			}
		}
	}
}
