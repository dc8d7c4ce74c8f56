package experiments

import (
	"fmt"
	"math"

	"viyojit/internal/battery"
	"viyojit/internal/power"
)

// The technology-growth gap that motivates the paper (§2.2, Fig 1): DRAM
// capacity per rack unit has grown more than four orders of magnitude
// since 1990 while lithium battery energy density grew only ~3.3×, so
// batteries sized to back up all of DRAM cannot keep scaling. Fig-1's
// anchor points: over 1990–2015, DRAM GB/RU grew more than 50,000× and
// Li-ion J/volume ≈ 3.3×.
const (
	baseYear        = 1990
	anchorYear      = 2015
	dramGrowth25y   = 50_000.0
	lithiumGrowth25 = 3.3
)

// annualRate converts a 25-year growth factor into a per-year rate.
func annualRate(growth25 float64) float64 {
	return math.Pow(growth25, 1.0/float64(anchorYear-baseYear))
}

// dramRelativeGrowth returns DRAM capacity per rack unit in year,
// relative to 1990 (=1.0). Years beyond 2015 are projected on the same
// trend, as Fig 1 does.
func dramRelativeGrowth(year int) float64 {
	return math.Pow(annualRate(dramGrowth25y), float64(year-baseYear))
}

// lithiumRelativeGrowth returns Li-ion energy density in year, relative
// to 1990 (=1.0).
func lithiumRelativeGrowth(year int) float64 {
	return math.Pow(annualRate(lithiumGrowth25), float64(year-baseYear))
}

// growthPoint is one Fig-1 sample.
type growthPoint struct {
	Year      int
	DRAM      float64
	Lithium   float64
	Projected bool
}

// growthSeries returns Fig 1's two curves over [from, to] in steps of
// step years. Points after 2015 are flagged as projected.
func growthSeries(from, to, step int) ([]growthPoint, error) {
	if from < baseYear || to < from || step <= 0 {
		return nil, fmt.Errorf("scaling: bad series range [%d, %d] step %d", from, to, step)
	}
	var out []growthPoint
	for y := from; y <= to; y += step {
		out = append(out, growthPoint{
			Year:      y,
			DRAM:      dramRelativeGrowth(y),
			Lithium:   lithiumRelativeGrowth(y),
			Projected: y > anchorYear,
		})
	}
	return out, nil
}

// Reference constants for the §2.2 sizing example (4 TB server → ~300 KJ
// → ~10× a phone battery, ≥25× after real-world deratings).
const (
	// phoneBatteryJoules is a typical 2000 mAh, 3.7 V smartphone battery.
	phoneBatteryJoules = 2000.0 / 1000 * 3.7 * 3600 // ≈ 26.6 KJ

	// datacenterDensityPenalty: datacenter batteries use ~30% less dense
	// material to support higher power levels (§2.2).
	datacenterDensityPenalty = 0.7
)

// sizingReport is the §2.2 worked example for a given server.
type sizingReport struct {
	FlushSeconds      float64
	EnergyJoules      float64 // raw energy to flush all DRAM
	PhoneBatteryRatio float64 // raw volume as a multiple of a phone battery
	EffectiveRatio    float64 // after DoD, derating, and density penalty
	EstimatedCostUSD  float64
}

// sizeFullBackup computes what a *full-DRAM* battery backup costs for a
// server: the quantity Viyojit's dirty budget replaces. dod and derating
// follow battery.Config semantics (0 selects 0.5 and 1.0).
func sizeFullBackup(pm power.Model, dramBytes, ssdWriteBandwidth int64, dod, derating float64) sizingReport {
	cfg := battery.ProvisionFor(pm, dramBytes, ssdWriteBandwidth, dramBytes, dod, derating)
	energy := pm.FlushEnergyJoules(dramBytes, ssdWriteBandwidth, dramBytes)
	return sizingReport{
		FlushSeconds:      power.FlushTime(dramBytes, ssdWriteBandwidth).Seconds(),
		EnergyJoules:      energy,
		PhoneBatteryRatio: energy / phoneBatteryJoules,
		// Volume multiple after nameplate over-provisioning and the
		// lower-density datacenter cells.
		EffectiveRatio: cfg.CapacityJoules / datacenterDensityPenalty / phoneBatteryJoules,
		// §2.2: "each server's battery may cost over 250$" for the 4 TB
		// example; scale linearly with provisioned energy.
		EstimatedCostUSD: 250 * cfg.CapacityJoules / referenceProvisionedJoules(pm),
	}
}

// referenceProvisionedJoules is the §2.2 reference point (4 TB at 4 GB/s,
// DoD 0.5) the $250 estimate is anchored to.
func referenceProvisionedJoules(pm power.Model) float64 {
	return battery.ProvisionFor(pm, 4<<40, 4<<30, 4<<40, 0.5, 1.0).CapacityJoules
}
