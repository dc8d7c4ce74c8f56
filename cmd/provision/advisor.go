package main

import (
	"fmt"
	"math"

	"viyojit/internal/battery"
	"viyojit/internal/power"
	"viyojit/internal/trace"
)

// The advisor turns §3-style trace analysis into a provisioning
// recommendation: how much dirty budget — and therefore how much battery
// — a volume actually needs. It operationalises the paper's workflow
// ("potentially determined using an analysis of the expected workloads
// similar to the one in Section 3", §5) for data-center operators.
//
// The recommendation works from two §3 measurements:
//
//   - the worst-interval written fraction (how much can get dirty within
//     one proactive-cleaning horizon), and
//   - the write-skew coverage (how many pages hold the target percentile
//     of writes — the set Viyojit will keep dirty at steady state).
//
// The budget must cover whichever is larger, plus headroom for the burst
// the EWMA threshold absorbs.

// ssdWriteBandwidth is the flush bandwidth the battery conversion
// assumes (2 GB/s).
const ssdWriteBandwidth = 2 << 30

// recommendation is the advisor's output for one volume.
type recommendation struct {
	Volume string
	// BudgetPages is the recommended dirty budget.
	BudgetPages int
	// BudgetFraction is BudgetPages over the volume's total pages.
	BudgetFraction float64
	// Battery is a provisioned-battery configuration whose effective
	// energy covers the budget (with the default deratings).
	Battery battery.Config
	// Drivers of the recommendation, for the operator's understanding:
	WorstHourPages int     // pages dirtied in the worst hour (burst bound)
	HotSetPages    int     // pages covering the target write percentile
	Headroom       float64 // multiplicative safety margin applied
	// Category classifies the volume per §3: "skewed-light",
	// "skewed-heavy", "unique-light", or "unique-heavy". The paper's
	// guidance: decoupling pays off least for "unique-heavy".
	Category string
	// WorthIt is false for §3's fourth category, where the budget
	// approaches the full capacity and decoupling buys little.
	WorthIt bool
}

// The -percentile and -headroom flags' defaults.
const (
	defaultPercentile = 0.99
	defaultHeadroom   = 1.25
)

// options tunes the advisor.
type options struct {
	// Percentile of writes the steady-state dirty set should cover, in
	// (0,1].
	Percentile float64
	// Headroom is the multiplicative safety margin, at least 1.
	Headroom float64
}

// provision returns the battery whose effective energy covers
// budgetBytes of dirty data on a region of regionBytes, under
// power.Default() and battery.ProvisionFor's default depth of discharge
// and derating.
func provision(budgetBytes, regionBytes int64) battery.Config {
	return battery.ProvisionFor(power.Default(), budgetBytes, ssdWriteBandwidth, regionBytes, 0, 0)
}

// classify assigns §3's category from the measured fractions. Skew is
// judged against the pages *touched* (Fig 3's denominator): unique-write
// volumes need ~all touched pages even at the 90th percentile, while
// skewed ones concentrate.
func classify(writtenFraction, touchedCoverage float64) (string, bool) {
	heavy := writtenFraction > 0.30
	skewed := touchedCoverage < 0.50
	switch {
	case !heavy && skewed:
		return "skewed-light", true // §3 category 2: the best case
	case heavy && skewed:
		return "skewed-heavy", true // category 3
	case !heavy && !skewed:
		return "unique-light", true // category 1
	default:
		return "unique-heavy", false // category 4: decoupling buys little
	}
}

// analyze recommends a budget and battery for one volume trace.
func analyze(v *trace.Volume, opts options) (recommendation, error) {
	if v == nil || len(v.Events) == 0 {
		return recommendation{}, fmt.Errorf("advisor: empty volume trace")
	}
	// Both checks are written so that NaN fails them.
	if !(opts.Percentile > 0 && opts.Percentile <= 1) {
		return recommendation{}, fmt.Errorf("advisor: percentile %v outside (0,1]", opts.Percentile)
	}
	if !(opts.Headroom >= 1) || math.IsInf(opts.Headroom, 1) {
		return recommendation{}, fmt.Errorf("advisor: headroom %v is not a finite value ≥ 1", opts.Headroom)
	}

	pageSize := v.Spec.PageSize
	totalPages := v.TotalPages()

	// Burst bound: the worst hour's unique-page writes (the paper's
	// conservative one-write-one-page assumption).
	writtenFrac := v.WorstIntervalWrittenFraction(trace.Hour)
	worstHourPages := int(writtenFrac * float64(totalPages))

	// Steady-state bound: the hot set covering the target percentile
	// (absolute pages, Fig 4's denominator).
	coverageFrac := v.SkewTotal([]float64{opts.Percentile})[0]
	hotSetPages := int(coverageFrac * float64(totalPages))
	// Skew classification uses the touched-pages denominator (Fig 3).
	touchedCoverage := v.SkewTouched([]float64{opts.Percentile})[0]

	need := max(worstHourPages, hotSetPages)
	budget := min(max(int(float64(need)*opts.Headroom), 1), int(totalPages))

	category, worth := classify(writtenFrac, touchedCoverage)
	return recommendation{
		Volume:         v.Spec.Name,
		BudgetPages:    budget,
		BudgetFraction: float64(budget) / float64(totalPages),
		Battery:        provision(int64(budget)*int64(pageSize), v.Spec.SizeBytes),
		WorstHourPages: worstHourPages,
		HotSetPages:    hotSetPages,
		Headroom:       opts.Headroom,
		Category:       category,
		WorthIt:        worth,
	}, nil
}

// analyzeApplication recommends per volume and returns the machine-level
// aggregate (the sum of per-volume budgets, which one shared battery must
// cover).
func analyzeApplication(app trace.Application, opts options) ([]recommendation, recommendation, error) {
	if len(app.Volumes) == 0 {
		return nil, recommendation{}, fmt.Errorf("advisor: application %q has no volumes", app.Name)
	}
	var recs []recommendation
	var totalBudget int
	var totalPages int64
	var totalBytes int64
	worthAny := false
	for _, v := range app.Volumes {
		r, err := analyze(v, opts)
		if err != nil {
			return nil, recommendation{}, fmt.Errorf("advisor: volume %s: %w", v.Spec.Name, err)
		}
		recs = append(recs, r)
		totalBudget += r.BudgetPages
		totalPages += v.TotalPages()
		totalBytes += v.Spec.SizeBytes
		worthAny = worthAny || r.WorthIt
	}
	pageSize := app.Volumes[0].Spec.PageSize
	if pageSize == 0 {
		pageSize = 4096
	}
	agg := recommendation{
		Volume:         app.Name + " (machine total)",
		BudgetPages:    totalBudget,
		BudgetFraction: float64(totalBudget) / float64(totalPages),
		Battery:        provision(int64(totalBudget)*int64(pageSize), totalBytes),
		Headroom:       opts.Headroom,
		WorthIt:        worthAny,
		Category:       "aggregate",
	}
	return recs, agg, nil
}

// savings returns 1 − recommended/full nameplate: the battery fraction
// Viyojit eliminates for this volume. The full nameplate is what a
// non-Viyojit deployment needs for the same volume (flush everything).
func savings(r recommendation, v *trace.Volume) float64 {
	full := provision(v.Spec.SizeBytes, v.Spec.SizeBytes).CapacityJoules
	if full <= 0 {
		return 0
	}
	return max(1-r.Battery.CapacityJoules/full, 0)
}
