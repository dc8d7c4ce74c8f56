package main

import (
	"math"
	"testing"

	"viyojit/internal/trace"
)

func genVolume(t testing.TB, spec trace.VolumeSpec) *trace.Volume {
	t.Helper()
	v, err := trace.Generate(spec, 4*trace.Hour, 7)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

func skewedLight(t testing.TB) *trace.Volume {
	return genVolume(t, trace.VolumeSpec{
		Name: "skewed-light", SizeBytes: 64 << 20,
		WorstHourWriteFraction: 0.08,
		Skew:                   trace.SkewHot, HotFraction: 0.08,
		TouchedFraction: 0.5,
	})
}

func uniqueHeavy(t testing.TB) *trace.Volume {
	return genVolume(t, trace.VolumeSpec{
		Name: "unique-heavy", SizeBytes: 64 << 20,
		WorstHourWriteFraction: 0.75,
		Skew:                   trace.SkewUnique,
		TouchedFraction:        0.9,
	})
}

// defaults is what the command passes when no flag is set.
var defaults = options{Percentile: defaultPercentile, Headroom: defaultHeadroom}

func TestAnalyzeValidation(t *testing.T) {
	if _, err := analyze(nil, defaults); err == nil {
		t.Fatal("nil volume accepted")
	}
	v := skewedLight(t)
	for _, bad := range []options{
		{Percentile: 2, Headroom: defaultHeadroom},
		{Percentile: 0, Headroom: defaultHeadroom},
		{Percentile: math.NaN(), Headroom: defaultHeadroom},
		{Percentile: defaultPercentile, Headroom: 0.5},
		{Percentile: defaultPercentile, Headroom: 0},
		{Percentile: defaultPercentile, Headroom: math.NaN()},
		{Percentile: defaultPercentile, Headroom: math.Inf(1)},
	} {
		if _, err := analyze(v, bad); err == nil {
			t.Fatalf("%+v accepted", bad)
		}
	}
}

func TestSkewedLightGetsSmallBudget(t *testing.T) {
	v := skewedLight(t)
	r, err := analyze(v, defaults)
	if err != nil {
		t.Fatal(err)
	}
	if !r.WorthIt {
		t.Fatalf("skewed-light volume judged not worth decoupling: %+v", r)
	}
	if r.Category != "skewed-light" {
		t.Fatalf("category = %q", r.Category)
	}
	// A volume with ~8% hot set and ~8% hourly writes should need well
	// under a third of its capacity in budget.
	if r.BudgetFraction > 0.35 {
		t.Fatalf("budget fraction = %.2f, want small", r.BudgetFraction)
	}
	if r.BudgetPages < 1 || r.Battery.CapacityJoules <= 0 {
		t.Fatalf("degenerate recommendation: %+v", r)
	}
	// The savings vs a full battery must be substantial.
	if s := savings(r, v); s < 0.5 {
		t.Fatalf("savings = %.2f, want > 0.5", s)
	}
}

func TestUniqueHeavyFlaggedNotWorthIt(t *testing.T) {
	v := uniqueHeavy(t)
	r, err := analyze(v, defaults)
	if err != nil {
		t.Fatal(err)
	}
	if r.WorthIt {
		t.Fatalf("unique-heavy volume judged worth decoupling: %+v", r)
	}
	if r.Category != "unique-heavy" {
		t.Fatalf("category = %q", r.Category)
	}
	// And its budget approaches capacity, as §3 predicts.
	if r.BudgetFraction < 0.5 {
		t.Fatalf("budget fraction = %.2f, want large for category 4", r.BudgetFraction)
	}
}

func TestBudgetCoversBothDrivers(t *testing.T) {
	v := skewedLight(t)
	r, err := analyze(v, options{Percentile: defaultPercentile, Headroom: 1.0})
	if err != nil {
		t.Fatal(err)
	}
	need := r.WorstHourPages
	if r.HotSetPages > need {
		need = r.HotSetPages
	}
	if r.BudgetPages < need {
		t.Fatalf("budget %d below max(burst %d, hot %d)", r.BudgetPages, r.WorstHourPages, r.HotSetPages)
	}
}

func TestHigherPercentileNeedsMoreBudget(t *testing.T) {
	v := skewedLight(t)
	lo, err := analyze(v, options{Percentile: 0.90, Headroom: defaultHeadroom})
	if err != nil {
		t.Fatal(err)
	}
	hi, err := analyze(v, options{Percentile: 0.999, Headroom: defaultHeadroom})
	if err != nil {
		t.Fatal(err)
	}
	if hi.BudgetPages < lo.BudgetPages {
		t.Fatalf("99.9%% budget (%d) below 90%% budget (%d)", hi.BudgetPages, lo.BudgetPages)
	}
}

func TestAnalyzeApplicationAggregates(t *testing.T) {
	apps, err := trace.Applications(3)
	if err != nil {
		t.Fatal(err)
	}
	app := apps[0] // Azure blob storage
	recs, agg, err := analyzeApplication(app, defaults)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != len(app.Volumes) {
		t.Fatalf("%d recommendations for %d volumes", len(recs), len(app.Volumes))
	}
	sum := 0
	for _, r := range recs {
		sum += r.BudgetPages
	}
	if agg.BudgetPages != sum {
		t.Fatalf("aggregate %d != sum of volumes %d", agg.BudgetPages, sum)
	}
	if agg.Battery.CapacityJoules <= 0 {
		t.Fatal("aggregate battery not provisioned")
	}
	if _, _, err := analyzeApplication(trace.Application{Name: "empty"}, defaults); err == nil {
		t.Fatal("empty application accepted")
	}
}

func TestBatteryConversionMonotone(t *testing.T) {
	v := skewedLight(t)
	small, err := analyze(v, options{Percentile: defaultPercentile, Headroom: 1.0})
	if err != nil {
		t.Fatal(err)
	}
	big, err := analyze(v, options{Percentile: defaultPercentile, Headroom: 2.0})
	if err != nil {
		t.Fatal(err)
	}
	if big.Battery.CapacityJoules <= small.Battery.CapacityJoules {
		t.Fatal("more headroom did not need more battery")
	}
}
