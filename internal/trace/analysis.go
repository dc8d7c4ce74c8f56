package trace

import (
	"fmt"

	"viyojit/internal/dist"
	"viyojit/internal/sim"
)

// WorstIntervalWrittenFraction slices the trace into intervals of the
// given length and returns the worst interval's written bytes as a
// fraction of the volume size — the Fig 2 metric. Each write is treated
// as landing on unique NV-DRAM pages (the paper's conservative,
// log-structured-file-system assumption), so the written data is simply
// the sum of write sizes.
func (v *Volume) WorstIntervalWrittenFraction(interval sim.Duration) float64 {
	if interval <= 0 {
		panic(fmt.Sprintf("trace: non-positive interval %v", interval))
	}
	nIntervals := int(int64(v.Duration)/int64(interval)) + 1
	written := make([]int64, nIntervals)
	for _, e := range v.Events {
		if !e.Write {
			continue
		}
		idx := int(int64(e.At) / int64(interval))
		written[idx] += int64(e.Bytes)
	}
	var worst int64
	for _, w := range written {
		if w > worst {
			worst = w
		}
	}
	frac := float64(worst) / float64(v.Spec.SizeBytes)
	if frac > 1 {
		frac = 1
	}
	return frac
}

// writeCounts tallies writes per logical page and the set of touched
// pages (read or written).
func (v *Volume) writeCounts() (writes map[int64]uint64, touched map[int64]struct{}) {
	writes = make(map[int64]uint64)
	touched = make(map[int64]struct{})
	for _, e := range v.Events {
		touched[e.Page] = struct{}{}
		if e.Write {
			writes[e.Page]++
		}
	}
	return writes, touched
}

// SkewTouched returns, for each percentile, the number of pages needed to
// account for that percentile of all writes as a fraction of the pages
// *touched* during the trace — the Fig 3 metric.
func (v *Volume) SkewTouched(percentiles []float64) []float64 {
	writes, touched := v.writeCounts()
	out := make([]float64, len(percentiles))
	for i, p := range percentiles {
		out[i] = dist.EmpiricalCoverage(writes, int64(len(touched)), p)
	}
	return out
}

// SkewTotal is SkewTouched with the volume's *total* page count as the
// denominator — the Fig 4 metric (always ≤ the Fig 3 value).
func (v *Volume) SkewTotal(percentiles []float64) []float64 {
	writes, _ := v.writeCounts()
	out := make([]float64, len(percentiles))
	for i, p := range percentiles {
		out[i] = dist.EmpiricalCoverage(writes, v.TotalPages(), p)
	}
	return out
}
