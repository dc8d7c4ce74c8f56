package experiments

import (
	"math"
	"testing"

	"viyojit/internal/power"
)

func TestGrowthAnchors(t *testing.T) {
	if got := dramRelativeGrowth(1990); got != 1.0 {
		t.Fatalf("DRAM 1990 = %v, want 1", got)
	}
	if got := lithiumRelativeGrowth(1990); got != 1.0 {
		t.Fatalf("Li 1990 = %v, want 1", got)
	}
	// The paper's anchors: 50,000× vs 3.3× over 1990–2015.
	if got := dramRelativeGrowth(2015); math.Abs(got-50000)/50000 > 0.01 {
		t.Fatalf("DRAM 2015 = %v, want ~50000", got)
	}
	if got := lithiumRelativeGrowth(2015); math.Abs(got-3.3)/3.3 > 0.01 {
		t.Fatalf("Li 2015 = %v, want ~3.3", got)
	}
}

func TestGrowthGapWidens(t *testing.T) {
	gap2000 := dramRelativeGrowth(2000) / lithiumRelativeGrowth(2000)
	gap2020 := dramRelativeGrowth(2020) / lithiumRelativeGrowth(2020)
	if gap2020 <= gap2000 {
		t.Fatalf("gap did not widen: %v vs %v", gap2000, gap2020)
	}
}

func TestGrowthSeries(t *testing.T) {
	pts, err := growthSeries(1990, 2020, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 7 {
		t.Fatalf("got %d points, want 7", len(pts))
	}
	for i := 1; i < len(pts); i++ {
		if pts[i].DRAM <= pts[i-1].DRAM || pts[i].Lithium <= pts[i-1].Lithium {
			t.Fatal("series not increasing")
		}
	}
	if pts[5].Year != 2015 && pts[5].Projected {
		t.Fatal("2015 flagged as projected")
	}
	if !pts[6].Projected {
		t.Fatal("2020 not flagged as projected")
	}
	if _, err := growthSeries(2000, 1990, 5); err == nil {
		t.Fatal("reversed range accepted")
	}
	if _, err := growthSeries(1990, 2000, 0); err == nil {
		t.Fatal("zero step accepted")
	}
}

// The §2.2 worked example: a 4 TB server at 4 GB/s needs ~300 KJ of raw
// flush energy, ~10× a phone battery's volume, and ≥25× after DoD and
// density deratings.
func TestSizingMatchesPaperExample(t *testing.T) {
	r := sizeFullBackup(power.Default(), 4<<40, 4<<30, 0.5, 1.0)
	if r.EnergyJoules < 250e3 || r.EnergyJoules > 350e3 {
		t.Fatalf("raw energy = %v J, want ~300 KJ", r.EnergyJoules)
	}
	if r.PhoneBatteryRatio < 8 || r.PhoneBatteryRatio > 14 {
		t.Fatalf("raw phone-battery ratio = %v, want ~10", r.PhoneBatteryRatio)
	}
	if r.EffectiveRatio < 25 {
		t.Fatalf("derated ratio = %v, want >= 25", r.EffectiveRatio)
	}
	if r.FlushSeconds < 900 || r.FlushSeconds > 1100 {
		t.Fatalf("flush time = %v s, want ~1024", r.FlushSeconds)
	}
	if r.EstimatedCostUSD < 200 || r.EstimatedCostUSD > 300 {
		t.Fatalf("cost = $%v, want ~$250 at the reference point", r.EstimatedCostUSD)
	}
}

func TestSizingScalesWithDRAM(t *testing.T) {
	pm := power.Default()
	small := sizeFullBackup(pm, 1<<40, 4<<30, 0.5, 1.0)
	large := sizeFullBackup(pm, 4<<40, 4<<30, 0.5, 1.0)
	if large.EnergyJoules <= small.EnergyJoules {
		t.Fatal("energy did not grow with DRAM")
	}
	if large.EstimatedCostUSD <= small.EstimatedCostUSD {
		t.Fatal("cost did not grow with DRAM")
	}
}
