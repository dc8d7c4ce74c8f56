// Package trace models the file-system volume traces behind the paper's
// §3 analysis. The original inputs are proprietary Microsoft production
// traces (Azure blob storage, Cosmos, Page rank, Search index serving);
// per the substitution rule, this package generates synthetic per-volume
// event streams parameterised to the four skew categories §3 identifies:
//
//  1. low write fraction, writes mostly to unique pages;
//  2. low write fraction, writes further skewed (the best case for
//     Viyojit);
//  3. high write fraction, writes highly skewed;
//  4. high write fraction, writes to mostly unique pages (the worst
//     case).
//
// The analyses (worst-interval written fraction; pages covering a write
// percentile, relative to touched and to total pages) are the same
// computations Figures 2, 3, and 4 report.
package trace

import (
	"fmt"

	"viyojit/internal/dist"
	"viyojit/internal/sim"
)

// Event is one file-system access in a volume trace.
type Event struct {
	// At is the event time within the trace.
	At sim.Time
	// Page is the logical page in the volume the access touches.
	Page int64
	// Bytes is the access size.
	Bytes int
	// Write distinguishes writes from reads.
	Write bool
}

// SkewKind selects how a volume's writes distribute over its pages.
type SkewKind int

// Skew kinds matching §3's categories.
const (
	// SkewUnique spreads writes over mostly unique pages (log-structured
	// behaviour; §3's conservative assumption).
	SkewUnique SkewKind = iota
	// SkewZipf concentrates writes zipfian-ly with the spec's Theta.
	SkewZipf
	// SkewHot sends 99% of writes to the spec's HotFraction of pages.
	SkewHot
)

// VolumeSpec parameterises one synthetic volume.
type VolumeSpec struct {
	Name string
	// SizeBytes is the volume size.
	SizeBytes int64
	// PageSize is the tracking granularity; 0 selects 4096.
	PageSize int
	// WorstHourWriteFraction is the data written in the busiest hour as
	// a fraction of the volume size — the quantity Fig 2 plots.
	WorstHourWriteFraction float64
	// Skew selects the write distribution.
	Skew SkewKind
	// Theta is the zipf exponent for SkewZipf.
	Theta float64
	// HotFraction is the hot set size for SkewHot.
	HotFraction float64
	// TouchedFraction is the fraction of volume pages touched (read or
	// written) over the whole trace — the denominator of Fig 3.
	TouchedFraction float64
	// ReadWriteRatio is reads per write in the event stream.
	ReadWriteRatio float64
}

// Volume is a generated trace.
type Volume struct {
	Spec     VolumeSpec
	Duration sim.Duration
	Events   []Event
}

// burstCycle shapes the arrival process: each 10-minute window has one
// hot minute at burstHigh× the base rate and nine at burstLow×, averaging
// 1×. This reproduces Fig 2's sublinearity (the worst minute carries far
// more than 1/60 of the worst hour).
const (
	burstHigh = 6.0
	burstLow  = (10.0 - burstHigh) / 9.0
)

// rateMultiplier returns the burst multiplier at time t.
func rateMultiplier(t sim.Time) float64 {
	minute := int64(t) / int64(sim.Second*60)
	if minute%10 == 0 {
		return burstHigh
	}
	return burstLow
}

// Generate builds a volume trace of the given duration.
func Generate(spec VolumeSpec, duration sim.Duration, seed uint64) (*Volume, error) {
	if spec.PageSize == 0 {
		spec.PageSize = 4096
	}
	if spec.SizeBytes <= 0 || spec.SizeBytes%int64(spec.PageSize) != 0 {
		return nil, fmt.Errorf("trace: volume %s size %d not a positive multiple of page size %d", spec.Name, spec.SizeBytes, spec.PageSize)
	}
	// Each check is written so that NaN fails it.
	if !(spec.WorstHourWriteFraction > 0 && spec.WorstHourWriteFraction <= 1) {
		return nil, fmt.Errorf("trace: volume %s worst-hour fraction %v outside (0,1]", spec.Name, spec.WorstHourWriteFraction)
	}
	if !(spec.TouchedFraction > 0 && spec.TouchedFraction <= 1) {
		return nil, fmt.Errorf("trace: volume %s touched fraction %v outside (0,1]", spec.Name, spec.TouchedFraction)
	}
	// 0 selects the default for Theta and HotFraction.
	if spec.Theta != 0 && !(spec.Theta > 0 && spec.Theta < 1) {
		return nil, fmt.Errorf("trace: volume %s zipf theta %v outside (0,1)", spec.Name, spec.Theta)
	}
	if spec.HotFraction != 0 && !(spec.HotFraction > 0 && spec.HotFraction <= 1) {
		return nil, fmt.Errorf("trace: volume %s hot fraction %v outside (0,1]", spec.Name, spec.HotFraction)
	}
	if duration <= 0 {
		return nil, fmt.Errorf("trace: non-positive duration %v", duration)
	}

	rng := sim.NewRNG(seed)
	totalPages := spec.SizeBytes / int64(spec.PageSize)
	touchedPages := int64(float64(totalPages) * spec.TouchedFraction)
	if touchedPages < 1 {
		touchedPages = 1
	}

	var writeDist dist.Generator
	switch spec.Skew {
	case SkewUnique:
		// Sequential unique pages (log-structured): handled inline.
	case SkewZipf:
		theta := spec.Theta
		if theta == 0 {
			theta = dist.ZipfianConstant
		}
		writeDist = dist.NewScrambledZipfian(rng.Fork(), touchedPages, theta)
	case SkewHot:
		hot := spec.HotFraction
		if hot == 0 {
			hot = 0.1
		}
		writeDist = dist.NewHotSpot(rng.Fork(), touchedPages, hot, 0.99)
	default:
		return nil, fmt.Errorf("trace: volume %s has unknown skew kind %d", spec.Name, spec.Skew)
	}

	// Average write size: mixed 4–64 KiB extents.
	const avgWriteBytes = 24 * 1024
	// The burst cycle averages 1×, and the worst hour carries roughly the
	// average hourly volume (every hour shares the same cycle), so base
	// the rate on the worst-hour fraction directly.
	bytesPerHour := spec.WorstHourWriteFraction * float64(spec.SizeBytes)
	writesPerHour := bytesPerHour / avgWriteBytes
	if writesPerHour < 1 {
		writesPerHour = 1
	}
	baseInterval := sim.Duration(float64(sim.Second*3600) / writesPerHour)

	readRatio := spec.ReadWriteRatio
	if readRatio == 0 {
		readRatio = 2
	}
	readDist := dist.NewUniform(rng.Fork(), touchedPages)

	v := &Volume{Spec: spec, Duration: duration}
	var seq int64 // sequential page cursor for SkewUnique
	now := sim.Time(0)
	for now < sim.Time(duration) {
		// Write event.
		var page int64
		if spec.Skew == SkewUnique {
			page = seq % touchedPages
			seq++
		} else {
			page = writeDist.Next()
		}
		size := (4 + rng.Intn(44)) * 1024 // 4..48 KiB, mean ≈ avgWriteBytes
		v.Events = append(v.Events, Event{At: now, Page: page, Bytes: size, Write: true})

		// Interleaved reads keep the touched-page set realistic.
		nReads := int(readRatio)
		if rng.Float64() < readRatio-float64(nReads) {
			nReads++
		}
		for r := 0; r < nReads; r++ {
			v.Events = append(v.Events, Event{At: now, Page: readDist.Next(), Bytes: 4096, Write: false})
		}

		step := sim.Duration(float64(baseInterval) / rateMultiplier(now))
		if step < 1 {
			step = 1
		}
		now = now.Add(step)
	}
	return v, nil
}

// TotalPages returns the number of pages in the volume.
func (v *Volume) TotalPages() int64 { return v.Spec.SizeBytes / int64(v.Spec.PageSize) }
