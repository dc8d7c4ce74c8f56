package viyojit

import (
	"bytes"
	"sync"
	"testing"

	"viyojit/internal/mmu"
)

// TestCloseIdempotent: Close twice (and after a power failure) must be
// a no-op the second time, not a double-stop.
func TestCloseIdempotent(t *testing.T) {
	sys := newTestSystem(t, Config{})
	sys.Close()
	sys.Close()

	failed := newTestSystem(t, Config{})
	if rep := failed.SimulatePowerFailure(); !rep.Survived {
		t.Fatalf("power failure not survived: %+v", rep)
	}
	failed.Close()
	failed.Close()
}

// TestRecoverQuiescesOldSystem: Recover closes the source system, and a
// later explicit Close is absorbed. The durable source stays readable,
// so Recover is itself repeatable — each call yields an independent
// fresh System with the same restored bytes.
func TestRecoverQuiescesOldSystem(t *testing.T) {
	sys := newTestSystem(t, Config{})
	m, err := sys.Map("heap", 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	payload := []byte("survives any number of reboots")
	if err := m.WriteAt(payload, 512); err != nil {
		t.Fatal(err)
	}
	if rep := sys.SimulatePowerFailure(); !rep.Survived {
		t.Fatalf("power failure not survived: %+v", rep)
	}

	readBack := func(ns *System) []byte {
		t.Helper()
		nm, err := ns.Map("heap", 1<<20)
		if err != nil {
			t.Fatal(err)
		}
		got := make([]byte, len(payload))
		if err := nm.ReadAt(got, 512); err != nil {
			t.Fatal(err)
		}
		return got
	}

	first, _, err := sys.Recover()
	if err != nil {
		t.Fatal(err)
	}
	defer first.Close()
	second, _, err := sys.Recover()
	if err != nil {
		t.Fatalf("second Recover from the same source: %v", err)
	}
	defer second.Close()
	if got := readBack(first); !bytes.Equal(got, payload) {
		t.Fatalf("first recovery read %q, want %q", got, payload)
	}
	if got := readBack(second); !bytes.Equal(got, payload) {
		t.Fatalf("second recovery read %q, want %q", got, payload)
	}
	// The three device objects share each adopted page's buffer, and are
	// independent all the same: what the first system writes, and damage
	// to its device, reach neither the second nor the source.
	fm, err := first.Map("heap", 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if err := fm.WriteAt([]byte("rewritten by the first reboot"), 512); err != nil {
		t.Fatal(err)
	}
	first.FlushAll()
	if !first.SSD().CorruptPage(0, 600, 0x01) {
		t.Fatal("the first system's device holds no page 0 to corrupt")
	}
	for name, other := range map[string]*System{"second recovery": second, "source": sys} {
		durable, ok := other.SSD().Durable(0)
		if !ok || !bytes.Equal(durable[512:512+len(payload)], payload) {
			t.Fatalf("%s: durable page 0 changed under the first recovery's writes", name)
		}
		if err := other.SSD().VerifyPage(0); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
	sys.Close() // already quiesced by Recover; must be a no-op
}

// TestRecoverEpochBacklog: the restore holds the reboot's clock for
// several epochs before anything pumps events; the first pump afterwards
// runs one tick, not one replayed tick per epoch the restore covered.
func TestRecoverEpochBacklog(t *testing.T) {
	sys := newTestSystem(t, Config{NVDRAMSize: 16 << 20})
	m, err := sys.Map("heap", 8<<20)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2000; i++ {
		if err := m.WriteAt([]byte{byte(i)}, int64(i)*4096); err != nil {
			t.Fatal(err)
		}
	}
	if rep := sys.SimulatePowerFailure(); !rep.Survived {
		t.Fatalf("power failure not survived: %+v", rep)
	}
	ns, rr, err := sys.Recover()
	if err != nil {
		t.Fatal(err)
	}
	defer ns.Close()
	epoch := ns.Manager().Config().Epoch
	if rr.RestoreTime < 2*epoch {
		t.Fatalf("restore took %v, under two epochs of %v: the test needs a longer one", rr.RestoreTime, epoch)
	}
	ns.Pump()
	if got := ns.Stats().Epochs; got > 1 {
		t.Fatalf("first pump after Recover fired %d epoch ticks, want at most 1", got)
	}
}

// TestCloseRecoverRace: the lifecycle entry points must be safe to race
// (run under -race in CI). Many goroutines close and recover the same
// system at once; exactly the usual shutdown-path hazard.
func TestCloseRecoverRace(t *testing.T) {
	sys := newTestSystem(t, Config{})
	m, err := sys.Map("heap", 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.WriteAt([]byte("raced"), 0); err != nil {
		t.Fatal(err)
	}
	if rep := sys.SimulatePowerFailure(); !rep.Survived {
		t.Fatalf("power failure not survived: %+v", rep)
	}

	var wg sync.WaitGroup
	recovered := make([]*System, 4)
	for i := 0; i < 4; i++ {
		wg.Add(2)
		go func() {
			defer wg.Done()
			sys.Close()
		}()
		go func(slot int) {
			defer wg.Done()
			ns, _, err := sys.Recover()
			if err != nil {
				t.Errorf("racing Recover: %v", err)
				return
			}
			recovered[slot] = ns
		}(i)
	}
	wg.Wait()
	for _, ns := range recovered {
		if ns != nil {
			ns.Close()
		}
	}
}

// TestRecoverWithBudgetScale: the recovered system comes up under a
// budget re-derived from the battery charge on hand, scaled for the
// sagged-battery regime — and the scaled figure is what the manager
// actually enforces.
func TestRecoverWithBudgetScale(t *testing.T) {
	sys := newTestSystem(t, Config{})
	if _, err := sys.Map("heap", 1<<20); err != nil {
		t.Fatal(err)
	}
	if rep := sys.SimulatePowerFailure(); !rep.Survived {
		t.Fatalf("power failure not survived: %+v", rep)
	}

	full, fullReport, err := sys.RecoverWith(RecoverOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer full.Close()
	if fullReport.BudgetPages < 1 {
		t.Fatalf("full-scale recovery budget %d, want >= 1", fullReport.BudgetPages)
	}
	if got := full.DirtyBudget(); got != fullReport.BudgetPages {
		t.Fatalf("manager budget %d != reported %d", got, fullReport.BudgetPages)
	}

	half, halfReport, err := sys.RecoverWith(RecoverOptions{BudgetScale: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	defer half.Close()
	if halfReport.BudgetPages >= fullReport.BudgetPages {
		t.Fatalf("half-scale budget %d not below full-scale %d", halfReport.BudgetPages, fullReport.BudgetPages)
	}
	if halfReport.BudgetPages < 1 {
		t.Fatalf("half-scale budget %d below the one-page floor", halfReport.BudgetPages)
	}
	if got := half.DirtyBudget(); got != halfReport.BudgetPages {
		t.Fatalf("manager budget %d != reported %d", got, halfReport.BudgetPages)
	}

	if _, _, err := sys.RecoverWith(RecoverOptions{BudgetScale: 1.5}); err == nil {
		t.Fatal("budget scale 1.5 accepted")
	}
	if _, _, err := sys.RecoverWith(RecoverOptions{BudgetScale: -0.1}); err == nil {
		t.Fatal("budget scale -0.1 accepted")
	}
}

// TestRecoverErrorLeavesNothingScheduled: a recovery that fails late —
// here in the restore walk, on a durable page outside the region — must
// close the system it had half built. Before, only the budget error did:
// the health monitor, scrubber and epoch task stayed armed on the
// abandoned queue.
func TestRecoverErrorLeavesNothingScheduled(t *testing.T) {
	sys := newTestSystem(t, Config{BlackBox: true})
	m, err := sys.Map("heap", 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.WriteAt([]byte("durable"), 0); err != nil {
		t.Fatal(err)
	}
	if rep := sys.SimulatePowerFailure(); !rep.Survived {
		t.Fatalf("power failure not survived: %+v", rep)
	}
	beyond := mmu.PageID(sys.region.NumPages() + 3)
	sys.SSD().SeedDurable(beyond, bytes.Repeat([]byte{0x5A}, sys.region.PageSize()))

	if ns, _, err := sys.Recover(); err == nil || ns != nil {
		t.Fatalf("Recover with a durable page outside the region: system %v, err %v", ns, err)
	}

	// The same failure one level down, where the half-built system is
	// still in hand to inspect.
	ns, err := New(sys.cfg)
	if err != nil {
		t.Fatal(err)
	}
	if ns.events.Len() == 0 {
		t.Fatal("a fresh system has nothing scheduled: the test would prove nothing")
	}
	if _, err := ns.restoreFrom(sys.dev, sys.batt.EffectiveJoules(), 1); err == nil {
		t.Fatal("restore of a durable page outside the region succeeded")
	}
	if !ns.closed || ns.events.Len() != 0 || ns.scrubber.Running() {
		t.Fatalf("failed recovery left its system live: closed %v, %d events scheduled, scrubber running %v",
			ns.closed, ns.events.Len(), ns.scrubber.Running())
	}
}

// TestRecoverAllocationsPerPage is the restore walk's allocation guard:
// beyond what building the stack costs, a recovery allocates nothing per
// page — the new device shares each verified buffer with the survivor —
// but the amortised growth of the device's page maps.
func TestRecoverAllocationsPerPage(t *testing.T) {
	cfg := Config{NVDRAMSize: 16 << 20}
	sys := newTestSystem(t, cfg)
	m, err := sys.Map("heap", 8<<20)
	if err != nil {
		t.Fatal(err)
	}
	page := make([]byte, 4096)
	for i := 0; i < 1500; i++ {
		page[0], page[1] = byte(i), byte(i>>8)
		if err := m.WriteAt(page, int64(i)*4096); err != nil {
			t.Fatal(err)
		}
	}
	if rep := sys.SimulatePowerFailure(); !rep.Survived {
		t.Fatalf("power failure not survived: %+v", rep)
	}
	build := testing.AllocsPerRun(5, func() {
		s, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		s.Close()
	})
	restored := 0
	rec := testing.AllocsPerRun(5, func() {
		ns, rr, err := sys.Recover()
		if err != nil {
			t.Fatal(err)
		}
		restored = rr.PagesRestored
		ns.Close()
	})
	if restored < 1500 {
		t.Fatalf("restored %d pages, want at least the 1500 written", restored)
	}
	if perPage := (rec - build) / float64(restored); perPage > 0.1 {
		t.Fatalf("Recover allocates %.2f times per restored page beyond stack construction (%.0f − %.0f over %d pages), want under 0.1",
			perPage, rec, build, restored)
	}
}
