package viyojit

import (
	"bytes"
	"testing"
	"testing/quick"

	"viyojit/internal/sim"
)

func newTestSystem(t testing.TB, cfg Config) *System {
	t.Helper()
	if cfg.NVDRAMSize == 0 {
		cfg.NVDRAMSize = 16 << 20
	}
	sys, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("zero NVDRAMSize accepted")
	}
	if _, err := New(Config{NVDRAMSize: 16 << 20, Battery: BatteryConfig{CapacityJoules: 1e-12}}); err == nil {
		t.Fatal("microscopic battery accepted")
	}
}

func TestDefaultBudgetIsFractionOfRegion(t *testing.T) {
	sys := newTestSystem(t, Config{})
	pages := 16 << 20 / 4096
	b := sys.DirtyBudget()
	if b < pages/16 || b > pages/4 {
		t.Fatalf("default budget = %d pages of %d, want ~1/8", b, pages)
	}
}

func TestMapWritePowerFailRecover(t *testing.T) {
	sys := newTestSystem(t, Config{})
	m, err := sys.Map("heap", 4<<20)
	if err != nil {
		t.Fatal(err)
	}
	payload := []byte("must survive the power cut")
	if err := m.WriteAt(payload, 12345); err != nil {
		t.Fatal(err)
	}
	sys.Pump()

	report := sys.SimulatePowerFailure()
	if !report.Survived {
		t.Fatalf("provisioned battery did not cover the flush: %+v", report)
	}
	if err := sys.VerifyDurability(); err != nil {
		t.Fatal(err)
	}

	recovered, rr, err := sys.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if rr.PagesRestored == 0 {
		t.Fatal("nothing restored")
	}
	// The recovered system can map the same range and read the data
	// back (same allocator, same base for the first mapping).
	m2, err := recovered.Map("heap", 4<<20)
	if err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(payload))
	if err := m2.ReadAt(got, 12345); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("recovered %q, want %q", got, payload)
	}
}

func TestDirtyBoundHeld(t *testing.T) {
	sys := newTestSystem(t, Config{})
	m, err := sys.Map("m", 8<<20)
	if err != nil {
		t.Fatal(err)
	}
	budget := sys.DirtyBudget()
	for p := 0; p < 2048; p++ {
		if err := m.WriteAt([]byte{byte(p)}, int64(p)*4096); err != nil {
			t.Fatal(err)
		}
		sys.Pump()
		if sys.DirtyCount() > budget {
			t.Fatalf("dirty %d exceeds budget %d", sys.DirtyCount(), budget)
		}
	}
	if sys.Stats().PagesDirtied == 0 {
		t.Fatal("no pages dirtied")
	}
}

func TestBatteryChangeRetunesBudget(t *testing.T) {
	sys := newTestSystem(t, Config{})
	before := sys.DirtyBudget()
	if err := sys.Battery().SetCapacityJoules(sys.Battery().NameplateJoules() / 2); err != nil {
		t.Fatal(err)
	}
	after := sys.DirtyBudget()
	if after >= before {
		t.Fatalf("budget did not shrink on battery loss: %d -> %d", before, after)
	}
	// Sub-linear in joules: the fixed flush overhead is reserved first,
	// so the halved battery yields somewhat less than half the budget.
	if after > before/2 || after < before/8 {
		t.Fatalf("halved battery gave budget %d of %d, want in [%d, %d]", after, before, before/8, before/2)
	}
}

func TestAdvanceTimeDrivesEpochs(t *testing.T) {
	sys := newTestSystem(t, Config{})
	sys.AdvanceTime(10 * Duration(sim.Millisecond))
	if sys.Stats().Epochs < 9 {
		t.Fatalf("epochs after 10 ms = %d", sys.Stats().Epochs)
	}
	if sys.Now() == 0 {
		t.Fatal("clock did not advance")
	}
}

func TestFlushAllThenVerify(t *testing.T) {
	sys := newTestSystem(t, Config{})
	m, _ := sys.Map("m", 1<<20)
	for p := 0; p < 100; p++ {
		if err := m.WriteAt([]byte{0xEE}, int64(p)*4096); err != nil {
			t.Fatal(err)
		}
		sys.Pump()
	}
	sys.FlushAll()
	if sys.DirtyCount() != 0 {
		t.Fatalf("dirty after FlushAll = %d", sys.DirtyCount())
	}
	if err := sys.VerifyDurability(); err != nil {
		t.Fatal(err)
	}
	sys.Close()
}

func TestUnmapThroughFacade(t *testing.T) {
	sys := newTestSystem(t, Config{})
	m, _ := sys.Map("gone", 1<<20)
	if err := m.WriteAt([]byte{1}, 0); err != nil {
		t.Fatal(err)
	}
	if err := sys.Unmap(m); err != nil {
		t.Fatal(err)
	}
	if err := m.WriteAt([]byte{1}, 0); err == nil {
		t.Fatal("write through unmapped handle succeeded")
	}
}

func TestExplicitBatteryProvisioning(t *testing.T) {
	// A battery provisioned for roughly half the region should yield a
	// budget near half the pages.
	const size = 16 << 20
	sysDefault := newTestSystem(t, Config{NVDRAMSize: size})
	sysBig := newTestSystem(t, Config{
		NVDRAMSize: size,
		Battery:    BatteryConfig{CapacityJoules: 1e6, DepthOfDischarge: 0.5},
	})
	if sysBig.DirtyBudget() <= sysDefault.DirtyBudget() {
		t.Fatal("bigger battery did not raise the budget")
	}
	if sysBig.DirtyBudget() > size/4096 {
		t.Fatalf("budget %d exceeds region pages", sysBig.DirtyBudget())
	}
}

// Property at the facade level: arbitrary write workloads against a
// default-provisioned System never exceed the budget, never lose data
// across a power failure, and always recover byte-for-byte.
func TestFacadeDurabilityProperty(t *testing.T) {
	f := func(seed uint64, nOps uint8) bool {
		sys, err := New(Config{NVDRAMSize: 8 << 20})
		if err != nil {
			return false
		}
		m, err := sys.Map("prop", 4<<20)
		if err != nil {
			return false
		}
		rng := sim.NewRNG(seed)
		shadow := make(map[int64]byte)
		for i := 0; i < int(nOps)%200+1; i++ {
			page := rng.Int63n(4 << 20 / 4096)
			b := byte(rng.Uint64()) | 1
			if err := m.WriteAt([]byte{b}, page*4096); err != nil {
				return false
			}
			shadow[page] = b
			sys.Pump()
			if sys.DirtyCount() > sys.DirtyBudget() {
				return false
			}
			if rng.Intn(5) == 0 {
				sys.AdvanceTime(Duration(sim.Millisecond))
			}
		}
		report := sys.SimulatePowerFailure()
		if !report.Survived || sys.VerifyDurability() != nil {
			return false
		}
		recovered, _, err := sys.Recover()
		if err != nil {
			return false
		}
		m2, err := recovered.Map("prop", 4<<20)
		if err != nil {
			return false
		}
		buf := make([]byte, 1)
		for page, want := range shadow {
			if err := m2.ReadAt(buf, page*4096); err != nil || buf[0] != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

// TestFacadeScrubRepairs: the on-demand scrub detects a silently
// corrupted durable page and repairs it through the budget-enforced
// re-clean path; the integrity report records the episode.
func TestFacadeScrubRepairs(t *testing.T) {
	sys := newTestSystem(t, Config{})
	defer sys.Close()
	m, err := sys.Map("heap", 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.WriteAt([]byte("precious bytes"), 4096); err != nil {
		t.Fatal(err)
	}
	sys.Pump()
	sys.FlushAll()
	pages := sys.SSD().DurablePageList()
	if len(pages) == 0 {
		t.Fatal("flush left nothing durable")
	}
	if !sys.SSD().CorruptPage(pages[0], 3, 0x40) {
		t.Fatal("nothing to corrupt")
	}
	if got := sys.Scrub(); got != 1 {
		t.Fatalf("Scrub detected %d corruptions, want 1", got)
	}
	sys.FlushAll() // let the repair's re-clean land
	if err := sys.SSD().VerifyPage(pages[0]); err != nil {
		t.Fatalf("page still corrupt after scrub repair: %v", err)
	}
	rep := sys.IntegrityReport()
	if rep.Scrub.Detections != 1 || rep.Scrub.Repairs != 1 || len(rep.Quarantined) != 0 {
		t.Fatalf("integrity report %+v", rep)
	}
	if rep.VerifyFailures == 0 || rep.VerifyChecks < rep.VerifyFailures {
		t.Fatalf("device verify counters %d/%d", rep.VerifyChecks, rep.VerifyFailures)
	}
	if err := sys.VerifyDurability(); err != nil {
		t.Fatalf("durability after repair: %v", err)
	}
}

// TestFacadeBackgroundScrubberDefaultOn: the scrubber runs by default
// and DisableScrubber turns it off.
func TestFacadeBackgroundScrubberDefaultOn(t *testing.T) {
	sys := newTestSystem(t, Config{})
	if !sys.scrubber.Running() {
		t.Fatal("background scrubber not running by default")
	}
	sys.Close()
	if sys.scrubber.Running() {
		t.Fatal("scrubber still running after Close")
	}
	off := newTestSystem(t, Config{DisableScrubber: true})
	defer off.Close()
	if off.scrubber.Running() {
		t.Fatal("DisableScrubber left the scrubber running")
	}
}

// TestFacadeRecoverQuarantinesCorruption: a corruption the scrubber
// never got to is caught at Recover — the page is quarantined and
// reported, never restored as plausible good bytes.
func TestFacadeRecoverQuarantinesCorruption(t *testing.T) {
	sys := newTestSystem(t, Config{DisableScrubber: true})
	m, err := sys.Map("heap", 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.WriteAt(bytes.Repeat([]byte{0x77}, 200), 2*4096); err != nil {
		t.Fatal(err)
	}
	sys.Pump()
	report := sys.SimulatePowerFailure()
	if !report.Survived {
		t.Fatalf("flush did not survive: %+v", report)
	}
	pages := sys.SSD().DurablePageList()
	if len(pages) == 0 {
		t.Fatal("nothing durable after the flush")
	}
	bad := pages[0]
	sys.SSD().CorruptPage(bad, 123, 0xFF) // rot while powered off
	ns, rr, err := sys.Recover()
	if err != nil {
		t.Fatal(err)
	}
	defer ns.Close()
	integ := rr.Integrity
	if integ.PagesVerified != len(pages) {
		t.Fatalf("verified %d pages, want %d", integ.PagesVerified, len(pages))
	}
	if len(integ.Quarantined) != 1 || integ.Quarantined[0] != bad {
		t.Fatalf("integrity report %+v, want page %d quarantined", integ, bad)
	}
	if rr.PagesRestored != len(pages)-1 {
		t.Fatalf("restored %d pages, want %d", rr.PagesRestored, len(pages)-1)
	}
	// The quarantined page must not exist in the recovered system: no
	// durable claim, zeroed NV-DRAM.
	if _, ok := ns.SSD().Durable(bad); ok {
		t.Fatal("corrupt page laundered into the recovered system's durable store")
	}
	if err := ns.VerifyDurability(); err != nil {
		t.Fatalf("recovered system durability: %v", err)
	}
}
