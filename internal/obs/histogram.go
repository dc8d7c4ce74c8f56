package obs

import (
	"math"
	"sync/atomic"

	"viyojit/internal/sim"
)

// Histogram is a concurrent log-bucketed duration histogram: constant
// memory, lock-free recording, exact mean once quiescent, and quantiles
// accurate to the bucket growth factor (2^(1/8) ≈ 9 % relative error)
// refined by linear interpolation within the landing bucket. The bucket
// geometry matches internal/ycsb's single-threaded histogram so the two
// report comparable shapes.
type Histogram struct {
	buckets [numBuckets]atomic.Uint64
	count   atomic.Uint64
	sum     atomic.Int64
	min     atomic.Int64 // math.MaxInt64 while empty
	max     atomic.Int64 // math.MinInt64 while empty
}

const (
	// bucketsPerOctave sub-buckets per power of two.
	bucketsPerOctave = 8
	// maxOctaves covers 1 ns .. ~2^40 ns (~18 minutes of virtual time).
	maxOctaves = 40
	numBuckets = bucketsPerOctave * maxOctaves
)

// init empties a zero Histogram.
func (h *Histogram) init() {
	h.min.Store(math.MaxInt64)
	h.max.Store(math.MinInt64)
}

// bucketIndex maps a duration to its bucket. Durations below 1 ns land
// in bucket 0; durations beyond the covered range land in the overflow
// (last) bucket.
func bucketIndex(d sim.Duration) int {
	if d < 1 {
		d = 1
	}
	idx := int(math.Log2(float64(d)) * bucketsPerOctave)
	if idx < 0 {
		idx = 0
	}
	if idx >= numBuckets {
		idx = numBuckets - 1
	}
	return idx
}

// bucketLower returns the inclusive lower bound of a bucket.
func bucketLower(idx int) float64 {
	return math.Exp2(float64(idx) / bucketsPerOctave)
}

// Record adds one sample. Negative durations clamp to zero. Safe from
// any goroutine; no-op on a nil histogram; never allocates.
func (h *Histogram) Record(d sim.Duration) {
	if h == nil {
		return
	}
	if d < 0 {
		d = 0
	}
	h.buckets[bucketIndex(d)].Add(1)
	h.count.Add(1)
	h.sum.Add(int64(d))
	v := int64(d)
	for {
		cur := h.min.Load()
		if v >= cur || h.min.CompareAndSwap(cur, v) {
			break
		}
	}
	for {
		cur := h.max.Load()
		if v <= cur || h.max.CompareAndSwap(cur, v) {
			break
		}
	}
}

// snap freezes the histogram into an exportable summary. Only non-empty
// buckets are exported, keeping golden files and JSON payloads small.
func (h *Histogram) snap(name string) HistogramSnap {
	s := HistogramSnap{Name: name}
	var counts [numBuckets]uint64
	for i := range h.buckets {
		if c := h.buckets[i].Load(); c > 0 {
			counts[i] = c
			s.Buckets = append(s.Buckets, BucketSnap{Index: i, Count: c})
		}
	}
	s.Count = h.count.Load()
	if s.Count == 0 {
		return s
	}
	s.Sum = h.sum.Load()
	s.Min = h.min.Load()
	s.Max = h.max.Load()
	s.Mean = s.Sum / int64(s.Count)
	s.P50 = quantile(&counts, s.Count, s.Min, s.Max, 0.50)
	s.P90 = quantile(&counts, s.Count, s.Min, s.Max, 0.90)
	s.P99 = quantile(&counts, s.Count, s.Min, s.Max, 0.99)
	s.P999 = quantile(&counts, s.Count, s.Min, s.Max, 0.999)
	return s
}

// quantile walks the cumulative bucket counts to the target rank and
// linearly interpolates within the landing bucket, clamping to the
// recorded min/max so single-sample and boundary cases are exact.
func quantile(counts *[numBuckets]uint64, total uint64, min, max int64, q float64) int64 {
	if q <= 0 {
		return min
	}
	if q >= 1 {
		return max
	}
	target := uint64(math.Ceil(q * float64(total)))
	if target == 0 {
		target = 1
	}
	if target > total {
		target = total
	}
	var cum uint64
	for i, c := range counts {
		if c == 0 {
			continue
		}
		cum += c
		if cum < target {
			continue
		}
		// Rank `target` lands in bucket i. Interpolate between the
		// bucket's bounds by the rank's position within the bucket.
		before := cum - c
		frac := float64(target-before) / float64(c)
		lo, hi := bucketLower(i), bucketLower(i+1)
		v := int64(lo + frac*(hi-lo))
		if v > max {
			v = max
		}
		if v < min {
			v = min
		}
		return v
	}
	return max
}
