package ycsb

import (
	"math"

	"viyojit/internal/sim"
)

// Histogram is a log-bucketed latency histogram: constant memory, exact
// mean, and quantiles accurate to the bucket growth factor (2^(1/8) ≈ 9 %
// relative error), which is plenty for reproducing latency *shapes*.
type Histogram struct {
	buckets [numBuckets]uint64
	count   uint64
	sum     sim.Duration
	min     sim.Duration
	max     sim.Duration
}

const (
	// bucketsPerOctave sub-buckets per power of two.
	bucketsPerOctave = 8
	// maxOctaves covers 1 ns .. ~2^40 ns (~18 minutes).
	maxOctaves = 40
	numBuckets = bucketsPerOctave * maxOctaves
)

// bucketIndex maps a duration to its bucket.
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

// bucketValue returns the representative duration of a bucket (geometric
// midpoint of its range).
func bucketValue(idx int) sim.Duration {
	return sim.Duration(math.Exp2((float64(idx) + 0.5) / bucketsPerOctave))
}

// Record adds one latency sample.
func (h *Histogram) Record(d sim.Duration) {
	if d < 0 {
		d = 0
	}
	h.buckets[bucketIndex(d)]++
	h.count++
	h.sum += d
	if h.count == 1 || d < h.min {
		h.min = d
	}
	if d > h.max {
		h.max = d
	}
}

// Mean returns the exact mean of the recorded samples.
func (h *Histogram) Mean() sim.Duration {
	if h.count == 0 {
		return 0
	}
	return h.sum / sim.Duration(h.count)
}

// Quantile returns the approximate q-quantile (q in [0,1]); q = 0.99
// gives the 99th percentile the paper reports.
func (h *Histogram) Quantile(q float64) sim.Duration {
	if h.count == 0 {
		return 0
	}
	if q <= 0 {
		return h.min
	}
	if q >= 1 {
		return h.max
	}
	target := uint64(math.Ceil(q * float64(h.count)))
	if target == 0 {
		target = 1
	}
	if target > h.count {
		target = h.count
	}
	var cum uint64
	for i, c := range h.buckets {
		cum += c
		if cum >= target {
			v := bucketValue(i)
			if v > h.max {
				return h.max
			}
			if v < h.min {
				return h.min
			}
			return v
		}
	}
	return h.max
}

// Merge folds other's samples into h.
func (h *Histogram) Merge(other *Histogram) {
	if other.count == 0 {
		return
	}
	for i, c := range other.buckets {
		h.buckets[i] += c
	}
	if h.count == 0 || other.min < h.min {
		h.min = other.min
	}
	if other.max > h.max {
		h.max = other.max
	}
	h.count += other.count
	h.sum += other.sum
}
