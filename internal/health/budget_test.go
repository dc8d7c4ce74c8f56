package health

import (
	"math"
	"testing"

	"viyojit/internal/power"
	"viyojit/internal/sim"
	"viyojit/internal/ssd"
)

// The §5.1 pair round-trips: JoulesForBudget(n) backs exactly n pages —
// not n-1 (the old truncation to whole nanoseconds) and not n+1 (the
// energy halfway to the next page backs none of it) — on a grid of page
// counts, flush overheads, bandwidths, page sizes and regions up to
// 64 GiB of 256 B pages (2^28 pages).
func TestBudgetRoundTrip(t *testing.T) {
	pm := power.Default()
	overheads := []sim.Duration{
		0,
		FlushReserve,
		17*60*sim.Microsecond + sim.Millisecond, // the crash sweep's, default device
		17*60*sim.Microsecond + 16*sim.Millisecond + sim.Millisecond, // the same with 1 ms latency spikes
	}
	// Derated to §5.1's conservative 80 %: the default device, the same
	// device worn, and the slow device of the nested and sensor sweeps.
	derated := func(bw int64) int64 { return int64(float64(bw) * Derating) }
	bandwidths := []int64{
		derated(2 << 30),
		derated(ssd.DegradedBandwidth(2<<30, 3)),
		derated(16 << 20),
	}
	rng := sim.NewRNG(0x5eed)
	for _, region := range []int64{8 << 20, 1 << 30, 64 << 30} {
		for _, ps := range []int{256, 4096} {
			maxPages := int(region / int64(ps))
			// Every count up to 2^15, then powers of two and their
			// neighbours, random counts, and the region itself.
			var pages []int
			for n := 0; n <= min(maxPages, 1<<15); n++ {
				pages = append(pages, n)
			}
			for p := 1 << 15; p <= maxPages; p <<= 1 {
				pages = append(pages, p-1, p, min(p+1, maxPages))
			}
			for i := 0; i < 2000; i++ {
				pages = append(pages, 1+int(rng.Int63n(int64(maxPages))))
			}
			pages = append(pages, maxPages)
			for _, bw := range bandwidths {
				for _, ov := range overheads {
					for _, n := range pages {
						j := JoulesForBudget(pm, n, bw, region, ps, ov)
						if got := BudgetPages(pm, j, bw, region, ps, ov); got != n {
							t.Fatalf("region %d, page %d B, bw %d, overhead %v: BudgetPages(JoulesForBudget(%d)) = %d",
								region, ps, bw, ov, n, got)
						}
						if n == 0 {
							continue
						}
						mid := (JoulesForBudget(pm, n-1, bw, region, ps, ov) + j) / 2
						if got := BudgetPages(pm, mid, bw, region, ps, ov); got != n-1 {
							t.Fatalf("region %d, page %d B, bw %d, overhead %v: energy halfway to page %d backs %d pages, want %d",
								region, ps, bw, ov, n, got, n-1)
						}
					}
					over := JoulesForBudget(pm, maxPages+5, bw, region, ps, ov)
					if got := BudgetPages(pm, over, bw, region, ps, ov); got != maxPages {
						t.Fatalf("region %d, page %d B: budget %d over a region of %d pages", region, ps, got, maxPages)
					}
				}
			}
		}
	}
}

// No usable energy backs no page, whatever the poison.
func TestBudgetPagesNoEnergy(t *testing.T) {
	pm := power.Default()
	for _, j := range []float64{0, -5, math.NaN(), math.Inf(1), math.Inf(-1)} {
		if got := BudgetPages(pm, j, 2<<30, 1<<30, 4096, 0); got != 0 {
			t.Errorf("BudgetPages(%v J) = %d, want 0", j, got)
		}
	}
}

// The safe shrink holds against the monitor: a monitor tick that fires
// inside FollowBattery's drain derives its budget from the energy the
// shrink leaves, so the drain ends covered by the shrunk battery.
func TestFollowBatteryShrinkSurvivesMonitorTick(t *testing.T) {
	// Halving the battery drains ≈ 600 synchronous cleans of ≈ 62 µs
	// each, so the 2 ms monitor interval elapses inside the drain.
	r := newRig(t, rigOpts{pages: 2048, budget: 1024, targetPages: 1024.3})
	bw := int64(float64(r.dev.EffectiveWriteBandwidth()) * Derating)
	pagesFor := func(j float64) int {
		return BudgetPages(r.pm, j, bw, r.region.Size(), 4096, FlushReserve)
	}
	FollowBattery(r.batt, r.mgr, nil, pagesFor)
	for p := 0; p < 1024; p++ {
		r.writePage(t, p, byte(p+1))
	}
	ticks := r.mon.Stats().Ticks
	if err := r.batt.SetCapacityJoules(r.batt.NameplateJoules() / 2); err != nil {
		t.Fatal(err)
	}
	if r.mon.Stats().Ticks == ticks {
		t.Fatal("no monitor tick fired inside the drain; the test no longer races the writers")
	}
	cover := pagesFor(r.batt.EffectiveJoules())
	if dirty := r.mgr.DirtyCount(); dirty > cover || dirty > r.mgr.DirtyBudget() || r.mgr.Draining() {
		t.Fatalf("after the shrink: dirty %d, budget %d, draining %v; the shrunk battery covers %d",
			dirty, r.mgr.DirtyBudget(), r.mgr.Draining(), cover)
	}
}
