package dist

import (
	"cmp"
	"fmt"
	"math"
	"slices"
)

// ZipfCoverage returns the fraction of items (of n total) needed to
// account for the given percentile of draws under a Zipf distribution
// with skew theta — analytically, from the generalized harmonic numbers,
// so Fig 5 is exact rather than sampled.
//
// percentile is in (0, 1], e.g. 0.90 for "90% of the writes".
func ZipfCoverage(n int64, theta, percentile float64) float64 {
	return ZipfCoverageSeries([]int64{n}, theta, []float64{percentile})[0][0].Fraction
}

// CoveragePoint is one (totalItems → coverage fraction) sample in a Fig-5
// series.
type CoveragePoint struct {
	TotalItems int64
	Fraction   float64
}

// ZipfCoverageSeries computes Fig 5's series: for each item count, the
// fraction of items covering each percentile of draws. The result is
// indexed [percentile][point].
//
// Every point reads the same running sum of 1/i^theta, so the series
// takes two passes over it whatever its size: the first records ζ(n) at
// each item count, the second finds each point's crossing of
// percentile·ζ(n), in ascending order of those targets.
func ZipfCoverageSeries(itemCounts []int64, theta float64, percentiles []float64) [][]CoveragePoint {
	var maxN int64
	for _, n := range itemCounts {
		if n <= 0 {
			panic(fmt.Sprintf("dist: ZipfCoverage with n=%d", n))
		}
		maxN = max(maxN, n)
	}
	for _, p := range percentiles {
		if p <= 0 || p > 1 {
			panic(fmt.Sprintf("dist: ZipfCoverage percentile %v outside (0,1]", p))
		}
	}
	counts := slices.Clone(itemCounts)
	slices.Sort(counts)
	zeta := make(map[int64]float64, len(counts))
	sum := 0.0
	for i, k := int64(1), 0; k < len(counts); i++ {
		sum += 1 / math.Pow(float64(i), theta)
		for ; k < len(counts) && counts[k] == i; k++ {
			zeta[i] = sum
		}
	}

	type crossing struct {
		target float64
		pi, ni int
	}
	var targets []crossing
	out := make([][]CoveragePoint, len(percentiles))
	for pi, p := range percentiles {
		out[pi] = make([]CoveragePoint, len(itemCounts))
		for ni, n := range itemCounts {
			// A target no partial sum reaches (theta NaN) covers everything.
			out[pi][ni] = CoveragePoint{TotalItems: n, Fraction: 1}
			targets = append(targets, crossing{p * zeta[n], pi, ni})
		}
	}
	slices.SortFunc(targets, func(a, b crossing) int { return cmp.Compare(a.target, b.target) })
	sum = 0
	for i, k := int64(1), 0; i <= maxN && k < len(targets); i++ {
		sum += 1 / math.Pow(float64(i), theta)
		for ; k < len(targets) && sum >= targets[k].target; k++ {
			c := targets[k]
			out[c.pi][c.ni].Fraction = float64(i) / float64(itemCounts[c.ni])
		}
	}
	return out
}

// EmpiricalCoverage computes the same quantity from observed draw counts:
// the fraction of distinct items (of total n) whose cumulative count
// reaches the percentile of all draws, counting the most-drawn items
// first. It is the measurement the trace analysis (Figs 3–4) applies to
// real event streams.
func EmpiricalCoverage(counts map[int64]uint64, n int64, percentile float64) float64 {
	if n <= 0 {
		panic(fmt.Sprintf("dist: EmpiricalCoverage with n=%d", n))
	}
	if percentile <= 0 || percentile > 1 {
		panic(fmt.Sprintf("dist: EmpiricalCoverage percentile %v outside (0,1]", percentile))
	}
	if len(counts) == 0 {
		return 0
	}
	var total uint64
	all := make([]uint64, 0, len(counts))
	for _, c := range counts {
		all = append(all, c)
		total += c
	}
	// Sort descending by count.
	sortDescending(all)
	target := percentile * float64(total)
	var cum uint64
	for i, c := range all {
		cum += c
		if float64(cum) >= target {
			return float64(i+1) / float64(n)
		}
	}
	return float64(len(all)) / float64(n)
}

// sortDescending sorts counts high-to-low without pulling in sort's
// interface machinery for a hot analysis loop (simple introsort via
// stdlib would be fine too; this keeps the dependency footprint minimal
// and is easily testable).
func sortDescending(a []uint64) {
	// Heapsort: O(n log n), in place, deterministic.
	n := len(a)
	for i := n/2 - 1; i >= 0; i-- {
		siftDownMin(a, i, n)
	}
	for end := n - 1; end > 0; end-- {
		a[0], a[end] = a[end], a[0]
		siftDownMin(a, 0, end)
	}
}

// siftDownMin maintains a min-heap so the heapsort above yields
// descending order.
func siftDownMin(a []uint64, start, end int) {
	root := start
	for {
		child := 2*root + 1
		if child >= end {
			return
		}
		if child+1 < end && a[child+1] < a[child] {
			child++
		}
		if a[root] <= a[child] {
			return
		}
		a[root], a[child] = a[child], a[root]
		root = child
	}
}
