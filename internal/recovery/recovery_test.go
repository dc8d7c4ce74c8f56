package recovery

import (
	"bytes"
	"testing"

	"viyojit/internal/core"
	"viyojit/internal/mmu"
	"viyojit/internal/nvdram"
	"viyojit/internal/power"
	"viyojit/internal/sim"
	"viyojit/internal/ssd"
	"viyojit/internal/trace"
)

func TestRestoreRegionRoundTrip(t *testing.T) {
	clock := sim.NewClock()
	events := sim.NewQueue()
	regionCfg := nvdram.Config{Size: 32 * 4096}
	region, err := nvdram.New(clock, regionCfg)
	if err != nil {
		t.Fatal(err)
	}
	dev := ssd.New(clock, events, ssd.Config{})
	mgr, err := core.NewManager(clock, events, region, dev, core.Config{DirtyBudgetPages: 8})
	if err != nil {
		t.Fatal(err)
	}

	// Write recognisable data across several pages.
	for p := 0; p < 12; p++ {
		payload := bytes.Repeat([]byte{byte(p + 1)}, 100)
		if err := region.WriteAt(payload, int64(p)*4096); err != nil {
			t.Fatal(err)
		}
		mgr.Pump()
	}

	// Power failure with a battery that covers the budget.
	pm := power.Default()
	joules := pm.FlushWatts(region.Size()) * (dev.FlushTimeFor(8) + 10*sim.Millisecond).Seconds()
	report := mgr.PowerFail(pm, joules)
	if !report.Survived {
		t.Fatal("power-fail flush did not survive")
	}

	// Reboot: restore a fresh region from the SSD.
	failedAt := clock.Now()
	clock2 := sim.NewClock()
	restored, rr, err := restoreInPlace(t, clock2, dev, regionCfg)
	if err != nil {
		t.Fatal(err)
	}
	// The device was built on the failed run's clock; the reboot's fresh
	// clock is the one the restore read is charged to and measured on.
	if want := streamTime(dev.Config(), rr.PagesRestored); rr.PagesRestored == 0 || rr.RestoreTime != want || sim.Duration(clock2.Now()) != want {
		t.Fatalf("restore report = %+v on a clock at %v, closed form %v", rr, clock2.Now(), want)
	}
	if clock.Now() != failedAt {
		t.Fatalf("the restore moved the failed run's clock %v → %v", failedAt, clock.Now())
	}
	for p := 0; p < 12; p++ {
		got := restored.RawPage(mmu.PageID(p))[:100]
		want := bytes.Repeat([]byte{byte(p + 1)}, 100)
		if !bytes.Equal(got, want) {
			t.Fatalf("page %d contents lost across power cycle", p)
		}
	}
}

func TestRestoreRegionPageSizeMismatch(t *testing.T) {
	clock := sim.NewClock()
	events := sim.NewQueue()
	dev := ssd.New(clock, events, ssd.Config{PageSize: 8192})
	if _, _, err := restoreInPlace(t, clock, dev, nvdram.Config{Size: 16 * 4096}); err == nil {
		t.Fatal("page-size mismatch accepted")
	}
}

func TestRestoreEmptySSD(t *testing.T) {
	clock := sim.NewClock()
	events := sim.NewQueue()
	dev := ssd.New(clock, events, ssd.Config{})
	region, rr, err := restoreInPlace(t, clock, dev, nvdram.Config{Size: 8 * 4096})
	if err != nil {
		t.Fatal(err)
	}
	if rr.PagesRestored != 0 {
		t.Fatalf("restored %d pages from an empty SSD", rr.PagesRestored)
	}
	for _, b := range region.RawPage(0) {
		if b != 0 {
			t.Fatal("fresh region not zeroed")
		}
	}
}

func TestAvailabilityMatchesPaperExample(t *testing.T) {
	// §8: 4 TB at 4 GB/s ≈ 17 minutes of shutdown flush.
	r, err := Availability(4<<40, 256<<30, 4<<30, 4<<30)
	if err != nil {
		t.Fatal(err)
	}
	mins := r.FullShutdownFlush.Seconds() / 60
	if mins < 16 || mins > 18 {
		t.Fatalf("full shutdown = %v minutes, want ~17", mins)
	}
	// Bounding to 1/16 of DRAM must cut the flush 16×.
	if r.SpeedUp < 15.9 || r.SpeedUp > 16.1 {
		t.Fatalf("speed-up = %v, want 16", r.SpeedUp)
	}
	if r.BoundedShutdownFlush >= r.FullShutdownFlush {
		t.Fatal("bounded flush not shorter")
	}
}

func TestAvailabilityValidation(t *testing.T) {
	cases := []struct{ dram, budget, wbw, rbw int64 }{
		{0, 1, 1, 1},
		{10, 0, 1, 1},
		{10, 20, 1, 1}, // budget > dram
		{10, 5, 0, 1},
		{10, 5, 1, 0},
	}
	for _, c := range cases {
		if _, err := Availability(c.dram, c.budget, c.wbw, c.rbw); err == nil {
			t.Errorf("Availability(%+v) accepted", c)
		}
	}
}

func TestWarmupComparison(t *testing.T) {
	v, err := trace.Generate(trace.VolumeSpec{
		Name:                   "warmup",
		SizeBytes:              64 << 20,
		WorstHourWriteFraction: 0.1,
		Skew:                   trace.SkewZipf,
		Theta:                  0.9,
		TouchedFraction:        0.5,
	}, trace.Hour, 3)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := WarmupComparison(v, 3<<30, 100*sim.Microsecond)
	if err != nil {
		t.Fatal(err)
	}
	// On-demand answers its first request long before the sequential
	// reload finishes (§8's availability argument).
	if rep.OnDemandFirstAccess >= rep.SequentialReady {
		t.Fatalf("on-demand first access %v not before sequential ready %v",
			rep.OnDemandFirstAccess, rep.SequentialReady)
	}
	if rep.AvailabilityGain <= 0 {
		t.Fatal("no availability gain computed")
	}
	// The penalty is bounded: at most one fetch per access.
	if rep.PenalisedAccesses > rep.TotalAccesses {
		t.Fatalf("penalised %d of %d accesses", rep.PenalisedAccesses, rep.TotalAccesses)
	}
	if rep.OnDemandPenalty != sim.Duration(rep.PenalisedAccesses)*100*sim.Microsecond {
		t.Fatal("penalty accounting inconsistent")
	}
}

func TestWarmupValidation(t *testing.T) {
	if _, err := WarmupComparison(nil, 1, 1); err == nil {
		t.Fatal("nil volume accepted")
	}
	v, err := trace.Generate(trace.VolumeSpec{
		Name: "w", SizeBytes: 1 << 20, WorstHourWriteFraction: 0.1,
		Skew: trace.SkewZipf, Theta: 0.9, TouchedFraction: 0.5,
	}, trace.Hour, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := WarmupComparison(v, 0, 1); err == nil {
		t.Fatal("zero bandwidth accepted")
	}
	if _, err := WarmupComparison(v, 1, 0); err == nil {
		t.Fatal("zero latency accepted")
	}
}

// seedDevice writes n recognisable pages synchronously and returns the
// device plus its sim plumbing.
func seedDevice(t *testing.T, n int) (*ssd.SSD, *sim.Clock) {
	t.Helper()
	clock := sim.NewClock()
	events := sim.NewQueue()
	dev := ssd.New(clock, events, ssd.Config{})
	for p := 0; p < n; p++ {
		if _, err := dev.WritePageSync(mmu.PageID(p), bytes.Repeat([]byte{byte(p + 1)}, 4096)); err != nil {
			t.Fatalf("seed write %d: %v", p, err)
		}
	}
	return dev, clock
}

// restoreInPlace builds a fresh region of cfg on clock and restores it
// from dev, which serves as its own survivor.
func restoreInPlace(t *testing.T, clock *sim.Clock, dev *ssd.SSD, cfg nvdram.Config) (*nvdram.Region, RestoreReport, error) {
	t.Helper()
	region, err := nvdram.New(clock, cfg)
	if err != nil {
		t.Fatal(err)
	}
	rr, err := RestoreVerified(clock, region, dev, dev)
	return region, rr, err
}

// TestVerifiedRestoreQuarantinesCorruptPage: a silently corrupted page
// must never be restored as good data — it stays zero and is listed, and
// the device of the system coming up carries no claim about it.
func TestVerifiedRestoreQuarantinesCorruptPage(t *testing.T) {
	dev, _ := seedDevice(t, 6)
	if !dev.CorruptPage(4, 1000, 0x80) {
		t.Fatal("nothing to corrupt")
	}
	clock := sim.NewClock()
	restored, err := nvdram.New(clock, nvdram.Config{Size: 8 * 4096})
	if err != nil {
		t.Fatal(err)
	}
	fresh := ssd.New(clock, sim.NewQueue(), ssd.Config{})
	rr, err := RestoreVerified(clock, restored, fresh, dev)
	if err != nil {
		t.Fatal(err)
	}
	integ := rr.Integrity
	if integ.PagesVerified != 6 || len(integ.Quarantined) != 1 || integ.Quarantined[0] != 4 {
		t.Fatalf("integrity report %+v", integ)
	}
	if integ.Clean() {
		t.Fatal("report claims clean with a quarantined page")
	}
	if rr.PagesRestored != 5 {
		t.Fatalf("restored %d pages, want 5", rr.PagesRestored)
	}
	for _, b := range restored.RawPage(4) {
		if b != 0 {
			t.Fatal("quarantined page carries restored bytes")
		}
	}
	// Against the survivor the quarantined page diverges (its corrupt
	// copy is still there); against the device the system comes up on,
	// which never adopted it, every page is restorable.
	if restored.CheckRestorable(dev, 4) == nil {
		t.Fatal("the survivor's corrupt copy of page 4 matches the restored zeroes")
	}
	for p := 0; p < restored.NumPages(); p++ {
		if err := restored.CheckRestorable(fresh, mmu.PageID(p)); err != nil {
			t.Fatalf("restored region against the new device: %v", err)
		}
	}
}

// TestVerifiedRestoreDetectsLostWrite: a page the device acked but never
// stored (fully lost write) must surface at restore as a quarantined
// page, not be silently skipped.
func TestVerifiedRestoreDetectsLostWrite(t *testing.T) {
	dev, _ := seedDevice(t, 2)
	dev.SetFaultInjector(lostInjector{})
	if _, err := dev.WritePageSync(5, bytes.Repeat([]byte{0x5A}, 4096)); err != nil {
		t.Fatalf("lost write acked with error: %v", err)
	}
	dev.SetFaultInjector(nil)
	_, rr, err := restoreInPlace(t, sim.NewClock(), dev, nvdram.Config{Size: 8 * 4096})
	if err != nil {
		t.Fatal(err)
	}
	integ := rr.Integrity
	if integ.PagesVerified != 3 {
		t.Fatalf("verified %d pages, want 3 (lost page must be visited)", integ.PagesVerified)
	}
	if len(integ.Quarantined) != 1 || integ.Quarantined[0] != 5 {
		t.Fatalf("lost write not quarantined: %+v", integ)
	}
}

// lostInjector loses every write.
type lostInjector struct{}

func (lostInjector) WriteFault(mmu.PageID, []byte) ssd.FaultDecision {
	return ssd.FaultDecision{Fault: ssd.FaultLost}
}
