package viyojit

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"

	"viyojit/internal/battery"
	"viyojit/internal/health"
	"viyojit/internal/intent"
	"viyojit/internal/mmu"
	"viyojit/internal/power"
	"viyojit/internal/recovery"
	"viyojit/internal/sim"
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

	for _, scale := range []float64{1.5, -0.1, math.NaN()} {
		if _, _, err := sys.RecoverWith(RecoverOptions{BudgetScale: scale}); err == nil {
			t.Fatalf("budget scale %v accepted", scale)
		}
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
	if _, err := ns.restoreFrom(sys); err == nil {
		t.Fatal("restore of a durable page outside the region succeeded")
	}
	if !ns.closed || ns.events.Len() != 0 {
		t.Fatalf("failed recovery left its system live: closed %v, %d events scheduled",
			ns.closed, ns.events.Len())
	}
}

// backedChunks counts the 64-page chunks of sys's region that a store
// has backed: a page that reads a shared device image does not count.
func backedChunks(t *testing.T, sys *System) int {
	t.Helper()
	n := 0
	for p := 0; p < sys.region.NumPages(); p += 64 {
		for q := p; q < min(p+64, sys.region.NumPages()); q++ {
			if sys.region.Backed(mmu.PageID(q)) && !sharesDurable(sys, mmu.PageID(q)) {
				n++
				break
			}
		}
	}
	return n
}

// sharesDurable reports whether page reads the device's stored image
// itself: the same memory, not a copy of it.
func sharesDurable(sys *System, page mmu.PageID) bool {
	durable, ok := sys.SSD().Durable(page)
	return ok && &sys.region.RawPage(page)[0] == &durable[0]
}

// TestRecoverAllocationsPerPage is the restore walk's allocation guard:
// beyond what building the stack costs, a recovery allocates nothing per
// page — the new device shares each verified buffer with the survivor,
// and the region reads each restored page from that buffer — but the
// amortised growth of the device's page table and the region's one table
// of shared images, and it backs no chunk: every restored page reads the
// device's image, and the chunks backed are the ones New backs. It
// recovers one source again and again; only the first call finds the
// source's chunks to take over (TestRecoverChainReusesChunks covers the
// reuse). Each call retires the closed attempt before it, so the lineage
// holds two Systems, not every attempt.
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
	fresh := newTestSystem(t, cfg)
	newBacks := backedChunks(t, fresh)
	fresh.Close()
	build := testing.AllocsPerRun(5, func() {
		s, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		s.Close()
	})
	var start, built, before, after runtime.MemStats
	runtime.ReadMemStats(&start)
	for i := 0; i < 6; i++ {
		s, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		s.Close()
	}
	runtime.ReadMemStats(&built)
	perBuild := (built.TotalAlloc - start.TotalAlloc) / 6
	restored, backed, unshared := 0, 0, 0
	runtime.ReadMemStats(&before)
	rec := testing.AllocsPerRun(5, func() {
		ns, rr, err := sys.Recover()
		if err != nil {
			t.Fatal(err)
		}
		restored = rr.PagesRestored
		backed = backedChunks(t, ns)
		unshared = 0
		for _, p := range ns.SSD().DurablePageList() {
			if !sharesDurable(ns, p) {
				unshared++
			}
		}
		ns.Close()
	})
	runtime.ReadMemStats(&after)
	if restored < 1500 {
		t.Fatalf("restored %d pages, want at least the 1500 written", restored)
	}
	if backed != newBacks || unshared != 0 {
		t.Fatalf("after Recover %d chunks are backed (New backs %d) and %d restored pages read a copy: the restore backed memory",
			backed, newBacks, unshared)
	}
	// A reboot costs the stack and two page-indexed tables, not the
	// ≈ 6 MiB of durable pages nor the 16 MiB the region could hold.
	if perRecover := (after.TotalAlloc - before.TotalAlloc) / 6; perRecover >= perBuild+1<<20 {
		t.Fatalf("Recover of %d pages into a 16 MiB region allocates %d bytes, stack construction (%d) included, want under 1 MiB more",
			restored, perRecover, perBuild)
	}
	if perPage := (rec - build) / float64(restored); perPage > 0.02 {
		t.Fatalf("Recover allocates %.3f times per restored page beyond stack construction (%.0f − %.0f over %d pages), want under 0.02",
			perPage, rec, build, restored)
	}
	// Each Recover retired the attempt before it, closed: the lineage
	// holds the source and the last attempt, not all six.
	if n := len(sys.lin.live); n != 2 {
		t.Fatalf("the lineage holds %d Systems after six recoveries from one source, each closed, want 2", n)
	}
}

// TestRecoverChainReusesChunks: a reboot of a reboot restores without
// allocating what its predecessor lost again. sys → r1 → r2: r2's Recover
// allocates under 1 KiB per restored page, stack construction included,
// where fresh chunks alone would cost the 4 KiB page itself, and the
// first stores after it — one into every restored page — land in the
// chunks r1 lost. Every clean of r2's stores and the FlushAll after them
// takes a device buffer the reboot recycled, so together they allocate
// under 512 bytes per clean.
func TestRecoverChainReusesChunks(t *testing.T) {
	sys := newTestSystem(t, Config{NVDRAMSize: 16 << 20})
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
	r1, _, err := sys.Recover()
	if err != nil {
		t.Fatal(err)
	}
	// r1 stores into every page it restored, so its chunks are backed
	// when it loses power.
	m1, err := r1.Map("heap", 8<<20)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1500; i++ {
		if err := m1.WriteAt([]byte{byte(i >> 8)}, int64(i)*4096+1); err != nil {
			t.Fatal(err)
		}
	}
	if rep := r1.SimulatePowerFailure(); !rep.Survived {
		t.Fatalf("second power failure not survived: %+v", rep)
	}
	lost := map[*byte]bool{} // where each page of r1's backed chunks lives
	for p := mmu.PageID(0); int(p) < r1.region.NumPages(); p++ {
		if r1.region.Backed(p) && !sharesDurable(r1, p) {
			lost[&r1.region.RawPage(p)[0]] = true
		}
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	r2, rr, err := r1.Recover()
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Close()
	if rr.PagesRestored < 1500 {
		t.Fatalf("restored %d pages, want at least the 1500 written", rr.PagesRestored)
	}
	perPage := (after.TotalAlloc - before.TotalAlloc) / uint64(rr.PagesRestored)
	if perPage > 1024 {
		t.Fatalf("the second Recover allocates %d bytes per restored page, want ≤ 1 KiB", perPage)
	}
	t.Logf("the second Recover allocates %d bytes per restored page", perPage)
	m2, err := r2.Map("heap", 8<<20)
	if err != nil {
		t.Fatal(err)
	}
	cleans := r2.Stats().CleansCompleted
	runtime.ReadMemStats(&before)
	for i := 0; i < 1500; i++ {
		off := int64(i)*4096 + 2
		if err := m2.WriteAt([]byte{byte(i)}, off); err != nil {
			t.Fatal(err)
		}
		if p := r2.region.PageOf(m2.Base() + off); !lost[&r2.region.RawPage(p)[0]] {
			t.Fatalf("the first store into page %d after the second Recover backed a chunk r1 did not lose", p)
		}
	}
	r2.FlushAll()
	runtime.ReadMemStats(&after)
	// Every clean after the second reboot takes its device buffer from
	// the ones the reboot recycled when it retired sys, whose flush
	// images r1 displaced: a clean that allocated its buffer would cost
	// the 4 KiB page itself.
	cleans = r2.Stats().CleansCompleted - cleans
	if cleans < 1500 {
		t.Fatalf("%d cleans after the second Recover, want one per page stored into", cleans)
	}
	perClean := (after.TotalAlloc - before.TotalAlloc) / cleans
	if perClean > 512 {
		t.Fatalf("r2's stores and FlushAll allocate %d bytes per clean, want ≤ 512", perClean)
	}
	t.Logf("r2's stores and FlushAll allocate %d bytes per clean", perClean)
	if err := r2.VerifyDurability(); err != nil {
		t.Fatal(err)
	}
}

// TestRecoverAllocatesNothingRegionSized: a reboot that retires a System
// is built on the retiree's capacity-sized tables — dirty set, page table
// and TLB, span ring — and restores through no list of durable pages, so
// it allocates a small fraction of what one page-indexed table of a
// 64 MiB region costs. sys → r1 → r2 → r3 → r4, each losing power with a
// few thousand pages written: r1's Recover retires nothing and builds
// afresh; from r2's on, each retires its grandparent and must allocate
// ≤ 256 KiB, where building the tables anew costs ≈ 1.3 MiB.
func TestRecoverAllocatesNothingRegionSized(t *testing.T) {
	const size, pages = 64 << 20, 3000
	sys := newTestSystem(t, Config{NVDRAMSize: size, DisableScrubber: true})
	page := make([]byte, 4096)
	write := func(s *System, round int) {
		t.Helper()
		m, err := s.Map("heap", pages*4096)
		if err != nil {
			t.Fatal(err)
		}
		for i := round; i < pages; i += 1 + round {
			page[0], page[1], page[2] = byte(i), byte(i>>8), byte(round)
			if err := m.WriteAt(page, int64(i)*4096); err != nil {
				t.Fatal(err)
			}
		}
		if rep := s.SimulatePowerFailure(); !rep.Survived {
			t.Fatalf("power failure %d not survived: %+v", round, rep)
		}
	}
	cur := sys
	for round := 0; round < 4; round++ {
		write(cur, round)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		next, rr, err := cur.Recover()
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		if rr.PagesRestored < pages {
			t.Fatalf("reboot %d restored %d pages, want at least %d", round+1, rr.PagesRestored, pages)
		}
		n := after.TotalAlloc - before.TotalAlloc
		t.Logf("Recover %d allocates %d bytes", round+1, n)
		if round > 0 && n > 256<<10 {
			t.Fatalf("Recover %d, which retires a System, allocates %d bytes, want ≤ 256 KiB", round+1, n)
		}
		cur = next
	}
	defer cur.Close()
	if err := cur.VerifyDurability(); err != nil {
		t.Fatal(err)
	}
}

// TestPowerCycleReopenAllocatesLittle: one power cycle of a store and
// journal in use — cut, Recover, OpenStore, OpenIntentJournal,
// ReplayPendingWith — on a 64 MiB region, with sixteen clients' windows
// in the journal, allocates little once the lineage is warm: the reboot
// reopens the heap and the journal on its retiree's class table, dedup
// table and buffers, and the cut copies the dirty pages in place. After
// three warm-up cycles the measured cycle allocated 127 296 bytes before
// this hand-off (a heap class table and a journal built anew, a payload
// per replayed record, and a map of the dirty set at the cut) and 64 248
// after it, most of that the stack's instruments, on a linux/amd64 box
// with Go 1.24; the byte bound sits between the two. That was 259
// objects; with the instruments carved from blocks, the pools and small
// tables taken from the retiree and the pending intents copied into one
// buffer it is 65, and the object bound is 100.
func TestPowerCycleReopenAllocatesLittle(t *testing.T) {
	const size, heapBytes, journalBytes, clients, ops = 64 << 20, 16 << 20, 1 << 20, 16, 2000
	sys := newTestSystem(t, Config{NVDRAMSize: size, DisableScrubber: true})
	store, err := sys.NewStore("store", heapBytes)
	if err != nil {
		t.Fatal(err)
	}
	journal, err := sys.NewIntentJournal("journal", journalBytes, IntentConfig{})
	if err != nil {
		t.Fatal(err)
	}
	var seqs [clients + 1]uint64
	key, val := make([]byte, 16), make([]byte, 100)
	// work runs ops exactly-once puts round-robin over the clients; the
	// last request of each is left in flight for ReplayPendingWith.
	work := func(round int) {
		t.Helper()
		for i := 0; i < ops; i++ {
			c := uint64(1 + i%clients)
			seqs[c]++
			copy(key, fmt.Sprintf("user%012d", (i*7919+round)%4096))
			val[0], val[1] = byte(i), byte(round)
			if err := journal.Begin(c, seqs[c], intent.Checksum(key, val, 0), key, val, false); err != nil {
				t.Fatal(err)
			}
			if err := store.Put(key, val); err != nil {
				t.Fatal(err)
			}
			if i < ops-clients {
				if err := journal.Complete(c, seqs[c], 0, nil); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	cycle := func() {
		t.Helper()
		if rep := sys.SimulatePowerFailure(); !rep.Survived {
			t.Fatalf("power failure not survived: %+v", rep)
		}
		next, _, err := sys.Recover()
		if err != nil {
			t.Fatal(err)
		}
		if store, err = next.OpenStore("store", heapBytes); err != nil {
			t.Fatal(err)
		}
		if journal, err = next.OpenIntentJournal("journal", journalBytes); err != nil {
			t.Fatal(err)
		}
		st, err := next.ReplayPendingWith(store, journal, nil)
		if err != nil || st.Redone != clients {
			t.Fatalf("the replay redid %d intents (err %v), want the %d left in flight", st.Redone, err, clients)
		}
		sys = next
	}
	for round := 0; round < 3; round++ {
		work(round)
		cycle()
	}
	work(3)
	if n := journal.Stats().Clients; n != clients {
		t.Fatalf("the journal holds %d clients' windows, want %d", n, clients)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	cycle()
	runtime.ReadMemStats(&after)
	defer sys.Close()
	n, objs := after.TotalAlloc-before.TotalAlloc, after.Mallocs-before.Mallocs
	t.Logf("the power cycle allocates %d objects and %d bytes", objs, n)
	if n > 96<<10 {
		t.Fatalf("a warm power cycle with its store and journal reopened allocates %d bytes, want ≤ 96 KiB", n)
	}
	if objs > 100 {
		t.Fatalf("a warm power cycle with its store and journal reopened allocates %d objects, want ≤ 100", objs)
	}
	sys.FlushAll()
	if err := sys.VerifyDurability(); err != nil {
		t.Fatal(err)
	}
}

// TestServedPowerCycleAllocatesLittle: a warm power cycle of a served
// stack in the benchmark's powerfail_cycle shape — health monitor, fused
// sensor and background scrubber on, a store and an intent journal on a
// 64 MiB region, sixteen clients' exactly-once puts through Serve, then
// the cut, Recover, reopen and replay — allocates a small constant number
// of objects. The keys, values and requests are built before the timed
// part, so every malloc counted is the system's: its reboot reuses the
// retiree's instruments, pools and tables instead of re-warming them.
// On a linux/amd64 box with Go 1.24 a cycle allocated 535 objects while
// every reboot rebuilt them and 70 since, almost all of them one object
// per component a boot builds; each cycle's new Server adds its one item
// and channel (73). The bound is 100, under -race too, since nothing on
// the path recycles through a sync.Pool.
func TestServedPowerCycleAllocatesLittle(t *testing.T) {
	const (
		size, heapBytes, journalBytes = 64 << 20, 32 << 20, 1 << 20
		clients, records, ops, cycles = 16, 4096, 2000, 4
	)
	// The battery backs 11 % of the heap, so the cycle cleans as it runs.
	var writeBW int64 = 2 << 30 // the ssd default
	joules := health.JoulesForBudget(power.Default(), heapBytes/4096*11/100,
		int64(float64(writeBW)*health.Derating), size, 4096, health.FlushReserve)
	sys := newTestSystem(t, Config{NVDRAMSize: size, Battery: battery.Provision(joules, 0, 0)})
	store, err := sys.NewStore("heap", heapBytes)
	if err != nil {
		t.Fatal(err)
	}
	journal, err := sys.NewIntentJournal("intent", journalBytes, IntentConfig{})
	if err != nil {
		t.Fatal(err)
	}
	keys := make([][]byte, records)
	val := make([]byte, 1024)
	for i := range keys {
		keys[i] = fmt.Appendf(nil, "user%012d", i)
		if err := store.Put(keys[i], val); err != nil {
			t.Fatal(err)
		}
		sys.Pump()
	}
	// One cycle's requests, rebuilt in place between cycles: the client
	// ids and keys stay, the sequence numbers move on.
	reqs := make([]ServeRequest, ops)
	ids := make([]IdemOp, ops)
	rng := sim.NewRNG(7)
	for i := range reqs {
		ids[i] = IdemOp{Kind: IdemPut, Key: keys[rng.Intn(records)], Value: val}
		reqs[i] = ServeRequest{Priority: PriorityNormal, Write: true, ClientID: uint64(1 + i%clients), Idem: &ids[i]}
	}
	var seq uint64
	ctx := context.Background()
	cycle := func() {
		t.Helper()
		srv, err := sys.Serve(store, ServeConfig{Journal: journal})
		if err != nil {
			t.Fatal(err)
		}
		seq++
		for i := range reqs {
			reqs[i].RequestSeq = seq*ops + uint64(i)
			if _, err := srv.Submit(ctx, reqs[i]); err != nil {
				t.Fatal(err)
			}
		}
		srv.Stop()
		if rep := sys.SimulatePowerFailure(); !rep.Survived {
			t.Fatalf("power failure not survived: %+v", rep)
		}
		next, _, err := sys.Recover()
		if err != nil {
			t.Fatal(err)
		}
		if store, err = next.OpenStore("heap", heapBytes); err != nil {
			t.Fatal(err)
		}
		if journal, err = next.OpenIntentJournal("intent", journalBytes); err != nil {
			t.Fatal(err)
		}
		if _, err := next.ReplayPendingWith(store, journal, nil); err != nil {
			t.Fatal(err)
		}
		sys = next
	}
	for range 3 {
		cycle()
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range cycles {
		cycle()
	}
	runtime.ReadMemStats(&after)
	defer sys.Close()
	n := (after.Mallocs - before.Mallocs) / cycles
	t.Logf("a warm served power cycle allocates %d objects and %d bytes", n, (after.TotalAlloc-before.TotalAlloc)/cycles)
	if n > 100 {
		t.Fatalf("a warm served power cycle allocates %d objects, want ≤ 100", n)
	}
}

// TestRecoverRetiresGrandparent: a reboot of a reboot retires the System
// its source was recovered from, and the closed Systems recovered from
// that one beside its source, and recycles their device buffers into the
// new device, while every System still in use keeps its bytes. sys is
// recovered three times: r1, a sibling closed at once, and one left open.
// r1's reboot r2 retires sys and the closed sibling: their Recover returns
// ErrRetired and their devices panic on use; r2 is built on sys's
// tables, so sys's mapping and manager panic too, while its counters
// still read. r2 reopens its store and journal on the heap and journal
// sys opened, and reads what sys wrote through them; sys's store and
// journal then panic, naming retirement. r1 stays recoverable, twice
// (a and b), with the same bytes; a third reboot of r1, closed, retires
// when r1 is recovered from a fourth time. The open sibling stays
// recoverable too, and its reboot c in turn retires r1, closed beside it. r2 and then c clean every page
// with buffers their retirements handed on; afterwards a, b and the open
// sibling still read what they restored, and a durable page of r1's that
// only a's and b's device objects still store is unchanged.
func TestRecoverRetiresGrandparent(t *testing.T) {
	sys := newTestSystem(t, Config{DisableScrubber: true})
	m, err := sys.Map("heap", 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	const pages = 40
	for i := 0; i < pages; i++ {
		if err := m.WriteAt(bytes.Repeat([]byte{byte(i + 1)}, 4096), int64(i)*4096); err != nil {
			t.Fatal(err)
		}
	}
	const storeBytes, journalBytes = 256 << 10, 64 << 10
	store, err := sys.NewStore("store", storeBytes)
	if err != nil {
		t.Fatal(err)
	}
	journal, err := sys.NewIntentJournal("journal", journalBytes, IntentConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if err := journal.Begin(1, 1, 7, []byte("k"), []byte("v"), false); err != nil {
		t.Fatal(err)
	}
	if err := store.Put([]byte("k"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	if err := journal.Complete(1, 1, 0, nil); err != nil {
		t.Fatal(err)
	}
	if rep := sys.SimulatePowerFailure(); !rep.Survived {
		t.Fatalf("power failure not survived: %+v", rep)
	}
	r1, _, err := sys.Recover()
	if err != nil {
		t.Fatal(err)
	}
	closedSib, _, err := sys.Recover()
	if err != nil {
		t.Fatal(err)
	}
	openSib, _, err := sys.Recover()
	if err != nil {
		t.Fatal(err)
	}
	defer openSib.Close()
	closedSib.Close()
	// r1 and the open sibling each rewrite the even pages and flush them,
	// so sys's images of those are read by nothing live, and of the odd
	// ones by both.
	for k, s := range []*System{r1, openSib} {
		m, err := s.Map("heap", 1<<20)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < pages; i += 2 {
			if err := m.WriteAt(bytes.Repeat([]byte{byte(0x40*(k+1) + i)}, 4096), int64(i)*4096); err != nil {
				t.Fatal(err)
			}
		}
	}
	openSib.FlushAll()
	if rep := r1.SimulatePowerFailure(); !rep.Survived {
		t.Fatalf("second power failure not survived: %+v", rep)
	}
	image := func(s *System) []byte {
		t.Helper()
		out := make([]byte, 0, pages*4096)
		for p := mmu.PageID(0); p < pages; p++ {
			out = append(out, s.region.RawPage(p)...)
		}
		return out
	}
	sysStats, sysMetrics := sys.Stats(), sys.Metrics().Snapshot()
	r2, _, err := r1.Recover()
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Close()
	want := image(r2)
	// r2 maps in sys's order, so its store and journal land on the bytes
	// sys's did, and reopens them on sys's heap and journal.
	m2, err := r2.Map("heap", 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	store2, err := r2.OpenStore("store", storeBytes)
	if err != nil {
		t.Fatal(err)
	}
	journal2, err := r2.OpenIntentJournal("journal", journalBytes)
	if err != nil {
		t.Fatal(err)
	}
	if v, ok, err := store2.Get([]byte("k")); err != nil || !ok || string(v) != "v" {
		t.Fatalf("r2's reopened store reads %q, %v, %v for the key sys put", v, ok, err)
	}
	if _, state := journal2.Lookup(1, 1); state != intent.StateDone {
		t.Fatalf("r2's reopened journal reads sys's request as %v, want done", state)
	}
	for name, gone := range map[string]*System{"sys": sys, "the closed sibling": closedSib} {
		if ns, _, err := gone.Recover(); !errors.Is(err, ErrRetired) || ns != nil {
			t.Fatalf("Recover of %s after r2: system %v, err %v, want ErrRetired", name, ns, err)
		}
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s's device served a read after it was retired", name)
				}
			}()
			gone.SSD().Durable(0)
		}()
	}
	// r2 was built on the tables of sys, the first System it retired:
	// sys's mapping and manager panic, naming retirement, and so do its
	// store's heap and its journal, whose tables r2 reopened on; its
	// counters still read what they did.
	for what, use := range map[string]struct {
		fn     func()
		prefix string // the package whose retirement the panic names
	}{
		"a mapping write":         {func() { _ = m.WriteAt([]byte{1}, 0) }, "mmu"},
		"DirtyCount":              {func() { sys.DirtyCount() }, "core"},
		"a Get from its store":    {func() { _, _, _ = store.Get([]byte("k")) }, "pheap"},
		"a Lookup in its journal": {func() { journal.Lookup(1, 1) }, "intent"},
	} {
		func() {
			defer func() {
				if r := fmt.Sprint(recover()); !strings.HasPrefix(r, use.prefix+":") || !strings.Contains(r, "retired") {
					t.Fatalf("%s on sys after r2 was built on its tables: panic %q, want %s's naming retirement", what, r, use.prefix)
				}
			}()
			use.fn()
		}()
	}
	if got := sys.Stats(); got != sysStats {
		t.Fatalf("sys's Stats after the hand-off: %+v, want %+v", got, sysStats)
	}
	if got := sys.Metrics().Snapshot(); !reflect.DeepEqual(got, sysMetrics) {
		t.Fatal("sys's Metrics snapshot changed across the hand-off")
	}
	a, _, err := r1.Recover()
	if err != nil {
		t.Fatalf("first Recover of r1 after r2: %v", err)
	}
	defer a.Close()
	b, _, err := r1.Recover()
	if err != nil {
		t.Fatalf("second Recover of r1 after r2: %v", err)
	}
	defer b.Close()
	// A closed System retires when its source is recovered from again.
	d, _, err := r1.Recover()
	if err != nil {
		t.Fatal(err)
	}
	d.Close()
	e, _, err := r1.Recover()
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	if _, _, err := d.Recover(); !errors.Is(err, ErrRetired) {
		t.Fatalf("Recover of a closed System after its source's next reboot: %v, want ErrRetired", err)
	}
	openImage := image(openSib)
	// r2 stores into every page and cleans them all: those cleans take
	// the buffers retiring sys and the closed sibling handed r2.
	for i := 0; i < pages; i++ {
		if err := m2.WriteAt(bytes.Repeat([]byte{0xF0}, 4096), int64(i)*4096); err != nil {
			t.Fatal(err)
		}
	}
	r2.FlushAll()
	if err := r2.VerifyDurability(); err != nil {
		t.Fatal(err)
	}
	for name, s := range map[string]*System{"r1's first reboot": a, "r1's second reboot": b, "r1's fourth reboot": e} {
		if !bytes.Equal(image(s), want) {
			t.Fatalf("%s does not read the bytes r2 restored", name)
		}
		if err := s.VerifyDurability(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
	if !bytes.Equal(image(openSib), openImage) {
		t.Fatal("the open sibling's bytes changed under r2's cleans")
	}
	if err := openSib.VerifyDurability(); err != nil {
		t.Fatalf("open sibling: %v", err)
	}
	// a and b store into page 0 and leave it dirty, so r1's image of it
	// is read by their device objects alone. The open sibling is
	// recoverable, and its reboot c retires r1, closed beside it; c's
	// cleans take the buffers r1 handed on, and none of them is that one.
	kept := map[*System][]byte{}
	for _, s := range []*System{a, b} {
		if err := s.region.WriteAt([]byte{0x3C}, 7); err != nil {
			t.Fatal(err)
		}
		durable, _ := s.SSD().Durable(0)
		kept[s] = bytes.Clone(durable)
	}
	c, _, err := openSib.Recover()
	if err != nil {
		t.Fatalf("Recover of the open sibling: %v", err)
	}
	defer c.Close()
	if !bytes.Equal(image(c), openImage) {
		t.Fatal("the open sibling's reboot does not read what it held")
	}
	mc, err := c.Map("heap", 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < pages; i++ {
		if err := mc.WriteAt(bytes.Repeat([]byte{0x0F}, 4096), int64(i)*4096); err != nil {
			t.Fatal(err)
		}
	}
	c.FlushAll()
	if _, _, err := r1.Recover(); !errors.Is(err, ErrRetired) {
		t.Fatalf("Recover of r1 after its sibling's reboot: %v, want ErrRetired", err)
	}
	for s, want := range kept {
		if durable, _ := s.SSD().Durable(0); !bytes.Equal(durable, want) {
			t.Fatal("a durable page that only r1's reboots stored changed when r1 retired")
		}
		s.FlushAll()
	}
	for name, s := range map[string]*System{"r2": r2, "r1's first reboot": a, "r1's second reboot": b, "c": c} {
		if err := s.VerifyDurability(); err != nil {
			t.Fatalf("%s after r1 retired: %v", name, err)
		}
	}
}

// TestRecoverTakeoverLeaksNoLostByte: the recovered System restores into
// the memory its predecessor lost, and no byte of that memory survives in
// a page without a trusted durable copy. The old region holds a pattern
// in a page whose durable copy rots after the flush (quarantined) and in
// never-durable pages beside it. After Recover the restore has backed
// nothing; the first store into one never-durable page of that chunk
// backs the chunk with one the old region lost, and every lost page still
// reads zero (the stored one but for its byte). The old region reads as
// never written.
func TestRecoverTakeoverLeaksNoLostByte(t *testing.T) {
	sys := newTestSystem(t, Config{DisableScrubber: true})
	m, err := sys.Map("heap", 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if err := m.WriteAt(bytes.Repeat([]byte{0x77}, 4096), int64(i)*4096); err != nil {
			t.Fatal(err)
		}
	}
	if rep := sys.SimulatePowerFailure(); !rep.Survived {
		t.Fatalf("power failure not survived: %+v", rep)
	}
	durable := sys.SSD().DurablePageList()
	if len(durable) < 10 {
		t.Fatalf("%d durable pages after the flush, want the 10 written", len(durable))
	}
	bad := durable[3]
	sys.SSD().CorruptPage(bad, 100, 0xFF) // rot while powered off
	chunkPages := mmu.PageID(64)
	first := bad / chunkPages * chunkPages
	isDurable := make(map[mmu.PageID]bool, len(durable))
	for _, p := range durable {
		isDurable[p] = true
	}
	// What DRAM held when the power went: the pattern everywhere the
	// device has no copy of, beside the written pages.
	lost := []mmu.PageID{bad}
	for p := first; p < first+chunkPages; p++ {
		if !isDurable[p] {
			if err := sys.region.RestorePage(p, bytes.Repeat([]byte{0xA5}, 4096)); err != nil {
				t.Fatal(err)
			}
			lost = append(lost, p)
		}
	}
	oldPages := map[*byte]bool{} // where each page of a backed chunk lives
	for p := mmu.PageID(0); int(p) < sys.region.NumPages(); p++ {
		if sys.region.Backed(p) {
			oldPages[&sys.region.RawPage(p)[0]] = true
		}
	}

	ns, rr, err := sys.Recover()
	if err != nil {
		t.Fatal(err)
	}
	defer ns.Close()
	if len(rr.Integrity.Quarantined) != 1 || rr.Integrity.Quarantined[0] != bad {
		t.Fatalf("integrity report %+v, want page %d quarantined", rr.Integrity, bad)
	}
	written := lost[1]
	if ns.region.Backed(written) {
		t.Fatalf("page %d, never durable, is backed after Recover: the restore backed its chunk", written)
	}
	if err := ns.region.WriteAt([]byte{0x3C}, int64(written)*4096); err != nil {
		t.Fatal(err)
	}
	if !oldPages[&ns.region.RawPage(written)[0]] {
		t.Fatal("the first store did not reuse a chunk the old region lost: the test would prove nothing")
	}
	zero := make([]byte, 4096)
	for _, p := range lost {
		want := zero
		if p == written {
			want = append([]byte{0x3C}, zero[1:]...)
		}
		if !bytes.Equal(ns.region.RawPage(p), want) {
			t.Fatalf("page %d holds bytes DRAM lost at the power cut, want zeros", p)
		}
	}
	for p := mmu.PageID(0); int(p) < sys.region.NumPages(); p++ {
		if sys.region.Backed(p) || !bytes.Equal(sys.region.RawPage(p), zero) {
			t.Fatalf("page %d of the region taken over is still backed or non-zero", p)
		}
	}
	ns.FlushAll()
	if err := ns.VerifyDurability(); err != nil {
		t.Fatal(err)
	}
}

// TestRecoverSharesUntilFirstStore: through a chain of reboots, every
// restored page reads the device's stored image itself, and a one-byte
// store into one copies the image into NV-DRAM first: the device's bytes
// and sum stay as they were, the page reads the image with the byte
// changed, and VerifyDurability fails on that page — so a real compare
// ran — until FlushAll makes the new bytes durable.
func TestRecoverSharesUntilFirstStore(t *testing.T) {
	sys := newTestSystem(t, Config{DisableScrubber: true})
	m, err := sys.Map("heap", 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	// Pages 0–39 and 200–203 of the heap: a reboot's first store then
	// backs its chunk with the spare the higher chunk left, whose stale
	// bytes are not the restored image, so a store that skipped copying
	// the image in would show.
	written := []int{200, 201, 202, 203}
	for i := 0; i < 40; i++ {
		written = append(written, i)
	}
	for _, i := range written {
		if err := m.WriteAt(bytes.Repeat([]byte{byte(i + 1)}, 4096), int64(i)*4096); err != nil {
			t.Fatal(err)
		}
	}
	for reboot := 0; reboot < 3; reboot++ {
		if rep := sys.SimulatePowerFailure(); !rep.Survived {
			t.Fatalf("reboot %d: power failure not survived: %+v", reboot, rep)
		}
		ns, rr, err := sys.Recover()
		if err != nil {
			t.Fatal(err)
		}
		sys = ns
		if rr.PagesRestored < 40 {
			t.Fatalf("reboot %d: restored %d pages, want the 40 written", reboot, rr.PagesRestored)
		}
		for _, p := range sys.SSD().DurablePageList() {
			if !sharesDurable(sys, p) {
				t.Fatalf("reboot %d: restored page %d reads a copy, not the device's image", reboot, p)
			}
		}
		if err := sys.VerifyDurability(); err != nil {
			t.Fatalf("reboot %d: %v", reboot, err)
		}
		if m, err = sys.Map("heap", 1<<20); err != nil {
			t.Fatal(err)
		}
		off := int64(7+reboot)*4096 + 100
		page := sys.region.PageOf(m.Base() + off)
		durable, _ := sys.SSD().Durable(page)
		image := bytes.Clone(durable)
		sum, _ := sys.SSD().DurableChecksum(page)
		if err := m.WriteAt([]byte{0xEE}, off); err != nil {
			t.Fatal(err)
		}
		if now, _ := sys.SSD().Durable(page); !bytes.Equal(now, image) || uint64(crc32.Checksum(now, crc32.MakeTable(crc32.Castagnoli))) != sum || sys.SSD().VerifyPage(page) != nil {
			t.Fatalf("reboot %d: a store into restored page %d changed the device's stored image", reboot, page)
		}
		if got, _ := sys.SSD().DurableChecksum(page); got != sum {
			t.Fatalf("reboot %d: a store into restored page %d moved the acked sum", reboot, page)
		}
		want := bytes.Clone(image)
		want[100] = 0xEE
		if !bytes.Equal(sys.region.RawPage(page), want) {
			t.Fatalf("reboot %d: page %d after a one-byte store is not the restored image with that byte changed", reboot, page)
		}
		err = sys.VerifyDurability()
		if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("page %d ", page)) {
			t.Fatalf("reboot %d: VerifyDurability = %v after a store into page %d that is not durable yet", reboot, err, page)
		}
		sys.FlushAll()
		if err := sys.VerifyDurability(); err != nil {
			t.Fatalf("reboot %d: after FlushAll: %v", reboot, err)
		}
		if now, _ := sys.SSD().Durable(page); !bytes.Equal(now, want) {
			t.Fatalf("reboot %d: FlushAll did not make page %d's store durable", reboot, page)
		}
	}
	sys.Close()
}

// TestRecoverCarriesBatteryOver: the recovered system comes up on the
// battery that survived — aged, then scaled for the outage — and the
// budget that battery backs is what it runs under for as long as the
// battery stays as it is. Before, the recovered System built a
// factory-fresh battery: the scaled figure lasted until the first
// monitor tick, which re-derived the budget from a pack that had never
// aged.
func TestRecoverCarriesBatteryOver(t *testing.T) {
	sys := newTestSystem(t, Config{})
	fresh := sys.DirtyBudget()
	if err := sys.Battery().Age(0.4); err != nil {
		t.Fatal(err)
	}
	aged := sys.DirtyBudget()
	agedJoules := sys.Battery().EffectiveJoules()
	if aged >= fresh {
		t.Fatalf("ageing left the budget at %d of %d", aged, fresh)
	}
	if rep := sys.SimulatePowerFailure(); !rep.Survived {
		t.Fatalf("power failure not survived: %+v", rep)
	}

	rec, report, err := sys.RecoverWith(RecoverOptions{BudgetScale: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	defer rec.Close()
	if got := rec.Battery().EffectiveJoules(); got != agedJoules*0.5 {
		t.Fatalf("recovered battery holds %v J, want the aged %v J scaled by 0.5", got, agedJoules)
	}
	// Half the energy backs less than half the pages: the fixed flush
	// overhead comes off the top.
	if report.BudgetPages < 1 || report.BudgetPages > aged/2 {
		t.Fatalf("recovered budget %d, want in [1, %d]", report.BudgetPages, aged/2)
	}
	rec.AdvanceTime(5 * Duration(sim.Millisecond))
	snaps := rec.Health().Snapshots()
	if len(snaps) < 2 {
		t.Fatalf("%d monitor samples in 5 ms, want ≥ 2", len(snaps))
	}
	for _, s := range snaps {
		if s.Budget > report.BudgetPages {
			t.Errorf("monitor sample at %v derived %d pages, above the %d the surviving battery backs", s.At, s.Budget, report.BudgetPages)
		}
	}
	if got := rec.DirtyBudget(); got > report.BudgetPages {
		t.Fatalf("budget %d after 5 ms, above the recovered %d", got, report.BudgetPages)
	}

	// The scale is a derating, so the recharge is reversible: back at 1
	// the budget returns to what the aged pack backs, not the fresh one.
	if err := rec.Battery().SetDerating(1); err != nil {
		t.Fatal(err)
	}
	if got := rec.DirtyBudget(); got != aged {
		t.Fatalf("recharged budget %d, want the aged pack's %d", got, aged)
	}

	// An un-aged, unscaled recovery is what it always was.
	plain := newTestSystem(t, Config{})
	plain.SimulatePowerFailure()
	again, rep, err := plain.Recover()
	if err != nil {
		t.Fatal(err)
	}
	defer again.Close()
	if rep.BudgetPages != fresh || again.DirtyBudget() != fresh {
		t.Fatalf("plain recovery budget %d (reported %d), want %d", again.DirtyBudget(), rep.BudgetPages, fresh)
	}
}

// TestRecoverRoundTripAllHandles: recorder, cursor, store and journal
// mapped in one order before the outage re-attach in the same order
// after it, each to its own restored bytes.
func TestRecoverRoundTripAllHandles(t *testing.T) {
	const storeBytes, journalBytes, cursorBytes = 1 << 20, 64 << 10, 4096
	sys := newTestSystem(t, Config{BlackBox: true})
	cursor, err := sys.NewRecoveryCursor("cursor", cursorBytes)
	if err != nil {
		t.Fatal(err)
	}
	store, err := sys.NewStore("heap", storeBytes)
	if err != nil {
		t.Fatal(err)
	}
	journal, err := sys.NewIntentJournal("intent", journalBytes, IntentConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if err := store.Put([]byte("k"), []byte("durable")); err != nil {
		t.Fatal(err)
	}
	// One intent left in flight, and a recovery the cursor is part-way
	// through: both must be found again.
	if err := journal.Begin(7, 1, 0xABCD, []byte("k"), []byte("redone"), false); err != nil {
		t.Fatal(err)
	}
	if _, _, err := cursor.BeginRecovery(sys.DirtyBudget()); err != nil {
		t.Fatal(err)
	}
	if err := cursor.Advance(recovery.PhaseWALReplay, 0); err != nil {
		t.Fatal(err)
	}
	before := cursor.Progress()
	lastSeq := sys.BlackBox().LastSeq()
	if rep := sys.SimulatePowerFailure(); !rep.Survived {
		t.Fatalf("power failure not survived: %+v", rep)
	}

	rec, _, err := sys.RecoverWith(RecoverOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer rec.Close()
	if f := rec.Forensics(); f == nil || f.Walk.LastSeq != lastSeq {
		t.Fatalf("forensics %+v, want a walk ending at the recorder's last record %d", f, lastSeq)
	}
	cursor, err = rec.OpenRecoveryCursor("cursor", cursorBytes)
	if err != nil {
		t.Fatal(err)
	}
	if cursor.FellBack() || !cursor.Resumed() || cursor.Progress() != before {
		t.Fatalf("cursor reopened at %+v (resumed %v, fell back %v), want %+v resumed", cursor.Progress(), cursor.Resumed(), cursor.FellBack(), before)
	}
	store, err = rec.OpenStore("heap", storeBytes)
	if err != nil {
		t.Fatal(err)
	}
	journal, err = rec.OpenIntentJournal("intent", journalBytes)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := cursor.BeginRecovery(rec.DirtyBudget()); err != nil {
		t.Fatal(err)
	}
	stats, err := rec.ReplayPendingWith(store, journal, cursor)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Redone != 1 {
		t.Fatalf("replay redid %d intents, want the one left in flight", stats.Redone)
	}
	if v, ok, err := store.Get([]byte("k")); err != nil || !ok || string(v) != "redone" {
		t.Fatalf("store holds %q (found %v, err %v), want the redo image", v, ok, err)
	}
	if err := cursor.Finish(); err != nil {
		t.Fatal(err)
	}
}
