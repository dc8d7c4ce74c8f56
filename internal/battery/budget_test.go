package battery_test

import (
	"math"
	"testing"
	"testing/quick"

	"viyojit/internal/battery"
	"viyojit/internal/health"
	"viyojit/internal/power"
)

// budget is the dirty budget a battery backs with no flush-overhead
// reserve: health.BudgetPages of its effective joules.
func budget(b *battery.Battery, m power.Model, bw, dram int64, pageSize int) int {
	return health.BudgetPages(m, b.EffectiveJoules(), bw, dram, pageSize, 0)
}

func TestDirtyBudgetPages(t *testing.T) {
	m := power.Default()
	const bw = 2 << 30 // 2 GB/s
	const dram = 64 << 30
	const pageSize = 4096

	// A battery provisioned for exactly 1 GiB of flush should budget
	// ~1 GiB / 4 KiB pages.
	j := battery.JoulesForPages(m, (1<<30)/pageSize, bw, dram, pageSize)
	b := battery.MustNew(battery.Config{CapacityJoules: j, DepthOfDischarge: 1, Derating: 1})
	got := budget(b, m, bw, dram, pageSize)
	want := (1 << 30) / pageSize
	if math.Abs(float64(got-want)) > float64(want)/1e3 {
		t.Fatalf("budget = %d pages, want ~%d", got, want)
	}
}

func TestDirtyBudgetHalvedByDoD(t *testing.T) {
	m := power.Default()
	const bw, dram, ps = 2 << 30, 64 << 30, 4096
	full := battery.MustNew(battery.Config{CapacityJoules: 1000, DepthOfDischarge: 1})
	half := battery.MustNew(battery.Config{CapacityJoules: 1000, DepthOfDischarge: 0.5})
	f, h := budget(full, m, bw, dram, ps), budget(half, m, bw, dram, ps)
	if h > f/2+1 || h < f/2-1 {
		t.Fatalf("DoD 0.5 budget = %d, want ~%d", h, f/2)
	}
}

func TestProvisionForRoundTrips(t *testing.T) {
	m := power.Default()
	const bw, dram, ps = 4 << 30, 4 << 40, 4096
	flushBytes := int64(32 << 30)
	b := battery.MustNew(battery.ProvisionFor(m, flushBytes, bw, dram, 0.5, 0.8))
	pages := budget(b, m, bw, dram, ps)
	wantPages := int(flushBytes / ps)
	if math.Abs(float64(pages-wantPages)) > float64(wantPages)/1e3 {
		t.Fatalf("provisioned budget = %d pages, want ~%d", pages, wantPages)
	}
}

// Property: the budget is monotone in battery capacity.
func TestBudgetMonotoneProperty(t *testing.T) {
	m := power.Default()
	f := func(a, b uint32) bool {
		ja, jb := float64(a%1_000_000)+1, float64(b%1_000_000)+1
		if ja > jb {
			ja, jb = jb, ja
		}
		ba := battery.MustNew(battery.Config{CapacityJoules: ja})
		bb := battery.MustNew(battery.Config{CapacityJoules: jb})
		return budget(ba, m, 2<<30, 64<<30, 4096) <= budget(bb, m, 2<<30, 64<<30, 4096)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
