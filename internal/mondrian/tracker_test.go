package mondrian

import (
	"bytes"
	"testing"
	"testing/quick"

	"viyojit/internal/faultinject"
	"viyojit/internal/power"
	"viyojit/internal/sim"
	"viyojit/internal/ssd"
)

func newTestTracker(t testing.TB, cfg Config) (*Tracker, *sim.Clock) {
	t.Helper()
	clock := sim.NewClock()
	events := sim.NewQueue()
	if cfg.Size == 0 {
		cfg.Size = 1 << 20
	}
	if cfg.BudgetBytes == 0 {
		cfg.BudgetBytes = 64 << 10
	}
	tr, err := New(clock, events, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return tr, clock
}

func TestNewValidation(t *testing.T) {
	clock := sim.NewClock()
	events := sim.NewQueue()
	bad := []Config{
		{Size: 0, BudgetBytes: 1024},
		{Size: 1000, SectorSize: 256, BudgetBytes: 1024}, // unaligned
		{Size: 1 << 20, BudgetBytes: 0},
		{Size: 1 << 20, SectorSize: -1, BudgetBytes: 1024},
	}
	for _, cfg := range bad {
		if _, err := New(clock, events, cfg); err == nil {
			t.Errorf("New(%+v) succeeded", cfg)
		}
	}
}

func TestWriteReadRoundTrip(t *testing.T) {
	tr, _ := newTestTracker(t, Config{})
	data := []byte("byte-granularity durability")
	if err := tr.WriteAt(data, 1000); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(data))
	if err := tr.ReadAt(got, 1000); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatalf("read %q", got)
	}
}

func TestBoundsChecked(t *testing.T) {
	tr, _ := newTestTracker(t, Config{Size: 4096, BudgetBytes: 1024})
	if err := tr.WriteAt([]byte{1}, 4096); err == nil {
		t.Fatal("out-of-range write succeeded")
	}
	if err := tr.ReadAt(make([]byte, 2), 4095); err == nil {
		t.Fatal("out-of-range read succeeded")
	}
}

func TestDirtyBytesTrackSectorsNotPages(t *testing.T) {
	tr, _ := newTestTracker(t, Config{SectorSize: 256})
	// A 16-byte write dirties exactly one 256 B sector — not a 4 KiB
	// page. This is the §7 battery-utilisation win.
	if err := tr.WriteAt(make([]byte, 16), 0); err != nil {
		t.Fatal(err)
	}
	if tr.DirtyBytes() != 256 {
		t.Fatalf("dirty bytes = %d, want 256", tr.DirtyBytes())
	}
	// A write spanning a sector boundary dirties two.
	if err := tr.WriteAt(make([]byte, 16), 512-8); err != nil {
		t.Fatal(err)
	}
	if tr.DirtyBytes() != 3*256 {
		t.Fatalf("dirty bytes = %d, want 768", tr.DirtyBytes())
	}
}

func TestBudgetEnforced(t *testing.T) {
	tr, _ := newTestTracker(t, Config{SectorSize: 256, BudgetBytes: 4 * 256})
	for i := 0; i < 64; i++ {
		if err := tr.WriteAt([]byte{byte(i + 1)}, int64(i)*256); err != nil {
			t.Fatal(err)
		}
		tr.Pump()
		if tr.DirtySectors() > 4 {
			t.Fatalf("dirty sectors %d exceed budget 4", tr.DirtySectors())
		}
	}
	if tr.Stats().ForcedCleans == 0 && tr.Stats().ProactiveCleans == 0 {
		t.Fatal("no cleaning despite exceeding the budget")
	}
}

func TestProactiveCleaningUnderPressure(t *testing.T) {
	tr, clock := newTestTracker(t, Config{SectorSize: 256, BudgetBytes: 64 * 256})
	sector := 0
	for e := 0; e < 12; e++ {
		for i := 0; i < 8; i++ {
			if err := tr.WriteAt([]byte{1}, int64(sector%4096)*256); err != nil {
				t.Fatal(err)
			}
			sector++
		}
		clock.Advance(sim.Millisecond)
		tr.Pump()
	}
	// Let the last epoch's in-flight cleans complete before checking.
	clock.Advance(sim.Millisecond)
	tr.Pump()
	if tr.Stats().ProactiveCleans == 0 {
		t.Fatal("no proactive cleaning under sustained dirtying")
	}
	if tr.DirtySectors() >= 64 {
		t.Fatal("no slack maintained below the budget")
	}
}

func TestVictimIsColdSector(t *testing.T) {
	tr, clock := newTestTracker(t, Config{SectorSize: 256, BudgetBytes: 3 * 256})
	// Sectors 0 (cold), 1, 2 (hot).
	for _, s := range []int64{0, 1, 2} {
		if err := tr.WriteAt([]byte{byte(s + 1)}, s*256); err != nil {
			t.Fatal(err)
		}
	}
	for e := 0; e < 5; e++ {
		clock.Advance(sim.Millisecond)
		tr.Pump()
		if err := tr.WriteAt([]byte{9}, 1*256); err != nil {
			t.Fatal(err)
		}
		if err := tr.WriteAt([]byte{9}, 2*256); err != nil {
			t.Fatal(err)
		}
	}
	if err := tr.WriteAt([]byte{7}, 3*256); err != nil { // forces eviction
		t.Fatal(err)
	}
	if _, still := tr.dirty[0]; still {
		t.Fatal("cold sector not evicted")
	}
	for _, hot := range []SectorID{1, 2} {
		if _, ok := tr.dirty[hot]; !ok {
			t.Fatalf("hot sector %d evicted", hot)
		}
	}
}

func TestFlushAllAndVerify(t *testing.T) {
	tr, _ := newTestTracker(t, Config{})
	for i := 0; i < 100; i++ {
		if err := tr.WriteAt([]byte{byte(i + 1)}, int64(i)*300); err != nil {
			t.Fatal(err)
		}
		tr.Pump()
	}
	tr.FlushAll()
	if tr.DirtySectors() != 0 {
		t.Fatalf("dirty after FlushAll = %d", tr.DirtySectors())
	}
	if err := tr.VerifyDurability(); err != nil {
		t.Fatal(err)
	}
	tr.Close()
	tr.Close() // idempotent
}

func TestPowerFailDurability(t *testing.T) {
	tr, _ := newTestTracker(t, Config{SectorSize: 256, BudgetBytes: 32 * 256})
	for i := 0; i < 200; i++ {
		if err := tr.WriteAt([]byte{byte(i | 1)}, int64(i)*256); err != nil {
			t.Fatal(err)
		}
		tr.Pump()
	}
	pm := power.Default()
	// Energy for the budget's bytes plus fixed overhead.
	watts := pm.FlushWatts(tr.Size())
	seconds := float64(tr.BudgetBytes())/float64(tr.SSD().Config().WriteBandwidth) + 0.001
	report := tr.PowerFail(pm, watts*seconds)
	if !report.Survived {
		t.Fatalf("flush did not survive: %+v", report)
	}
	if err := tr.VerifyDurability(); err != nil {
		t.Fatal(err)
	}
}

func TestBatteryBytesAdvantageOverPages(t *testing.T) {
	// The §7 claim, quantified: under small scattered writes, the bytes
	// a byte-granularity battery must cover are far below the page-
	// granularity equivalent (sectors dirtied × 4 KiB).
	tr, _ := newTestTracker(t, Config{SectorSize: 256, BudgetBytes: 1 << 20, Size: 4 << 20})
	rng := sim.NewRNG(3)
	const writes = 500
	pages := map[int64]struct{}{}
	for i := 0; i < writes; i++ {
		off := rng.Int63n(tr.Size() - 64)
		if err := tr.WriteAt(make([]byte, 64), off); err != nil {
			t.Fatal(err)
		}
		pages[off/4096] = struct{}{}
		tr.Pump()
	}
	pageBytes := int64(len(pages)) * 4096
	if tr.DirtyBytes()*4 > pageBytes {
		t.Fatalf("byte-granularity dirty bytes %d not ≪ page-granularity %d", tr.DirtyBytes(), pageBytes)
	}
}

// Property: budget invariant + durability after flush for arbitrary
// write sequences.
func TestBudgetInvariantProperty(t *testing.T) {
	f := func(seed uint64, nOps uint8) bool {
		clock := sim.NewClock()
		events := sim.NewQueue()
		tr, err := New(clock, events, Config{Size: 64 << 10, SectorSize: 256, BudgetBytes: 8 * 256})
		if err != nil {
			return false
		}
		rng := sim.NewRNG(seed)
		shadow := make([]byte, 64<<10)
		for i := 0; i < int(nOps)%150+1; i++ {
			off := rng.Int63n(int64(len(shadow)) - 32)
			buf := make([]byte, rng.Intn(32)+1)
			for j := range buf {
				buf[j] = byte(rng.Uint64())
			}
			if tr.WriteAt(buf, off) != nil {
				return false
			}
			copy(shadow[off:], buf)
			tr.Pump()
			if tr.DirtySectors() > 8 {
				return false
			}
			if rng.Intn(4) == 0 {
				clock.Advance(sim.Millisecond)
				tr.Pump()
			}
		}
		got := make([]byte, len(shadow))
		if tr.ReadAt(got, 0) != nil || !bytes.Equal(got, shadow) {
			return false
		}
		tr.FlushAll()
		return tr.VerifyDurability() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// The page manager's budget-hit bound, at sector granularity: seeded
// bursts through a small, slow, faulty device. Before every event the
// dirty set fits the budget and the in-flight counter equals a recount;
// at the first event after a budget hit — fired from the writer's own wait
// — the sectors not in flight fit under budget − pressure, unless the
// device queue was full. The faults also put writers behind sector copies
// that fail, which must release them.
func TestBudgetHitRestoresThreshold(t *testing.T) {
	var bounded, queueFull int
	for seed := uint64(1); seed <= 4; seed++ {
		tr, clock := newTestTracker(t, Config{
			Size: 256 << 10, BudgetBytes: 40 * 256,
			SSD: ssd.Config{MaxOutstanding: 4, WriteBandwidth: 1 << 20},
		})
		tr.dev.SetFaultInjector(faultinject.New(faultinject.Config{Seed: seed, TransientProb: 0.1}))
		inWrite, forcedSeen := false, uint64(0)
		tr.events.SetFireHook(func(uint64, sim.Time) {
			if len(tr.dirty) > tr.budget {
				t.Fatalf("%d dirty sectors over the budget %d", len(tr.dirty), tr.budget)
			}
			recount := 0
			for _, ds := range tr.dirty {
				if ds.cleaning {
					recount++
				}
			}
			if tr.inflight != recount {
				t.Fatalf("inflight counter %d, recount %d", tr.inflight, recount)
			}
			if !inWrite || tr.stats.ForcedCleans == forcedSeen {
				return
			}
			forcedSeen = tr.stats.ForcedCleans
			threshold := max(tr.budget-int(tr.pressure+0.5), 0)
			switch rest := len(tr.dirty) - tr.inflight; {
			case rest <= threshold:
				bounded++
			case tr.dev.Outstanding() >= tr.dev.Config().MaxOutstanding:
				queueFull++
			default:
				t.Fatalf("budget hit left %d sectors not in flight, threshold %d, device queue %d", rest, threshold, tr.dev.Outstanding())
			}
		})
		rng := sim.NewRNG(seed)
		for step := 0; step < 1500; step++ {
			if rng.Intn(6) == 0 {
				clock.Advance(sim.Duration(rng.Intn(3000)) * sim.Microsecond)
			} else {
				inWrite = true
				err := tr.WriteAt([]byte{byte(step) | 1}, rng.Int63n(tr.Size()))
				inWrite = false
				if err != nil {
					t.Fatal(err)
				}
			}
			tr.Pump()
		}
		if st := tr.Stats(); st.ForcedCleans == 0 || st.ProactiveCleans == 0 || st.CleanErrors == 0 {
			t.Fatalf("seed %d: schedule missed a path: %+v", seed, st)
		}
	}
	if bounded == 0 || queueFull == 0 {
		t.Fatalf("%d hits bounded, %d excused by a full queue: a case went unwitnessed", bounded, queueFull)
	}
}

// core's TestSteadyWriterNeverBlocks at sector granularity: a writer that
// dirties about `pressure` fresh sectors an epoch, spread over it, never
// hits the budget on a healthy idle device — the epochs that beat the
// estimate cross the wake level a clean latency before the budget.
func TestSteadyWriterNeverBlocks(t *testing.T) {
	const sectors, budget = 1 << 14, 2048
	tr, clock := newTestTracker(t, Config{Size: sectors * 256, BudgetBytes: budget * 256})
	// 60 µs + 256 B on the wire over a 1 µs trap, under the 1/16 share.
	if tr.wakeAhead != 61 {
		t.Fatalf("wakeAhead %d, want 61", tr.wakeAhead)
	}
	rng := sim.NewRNG(19)
	next := int64(0)
	for epoch := 1; epoch <= 200; epoch++ {
		for n := 32 + rng.Intn(17); n > 0; n-- {
			clock.Advance(20 * sim.Microsecond)
			if err := tr.WriteAt([]byte{byte(epoch) | 1}, next%sectors*256); err != nil {
				t.Fatal(err)
			}
			next++
			tr.Pump()
		}
		tr.events.RunUntil(clock, sim.Time(sim.Duration(epoch)*sim.Millisecond))
	}
	st := tr.Stats()
	if st.ForcedCleans != 0 {
		t.Fatalf("a steady writer blocked: %d forced cleans", st.ForcedCleans)
	}
	if st.Epochs < 199 || st.CopierWakesAhead == 0 || st.MaxDirtyObserved < budget-64 {
		t.Fatalf("the run never came near its budget: %d epochs, %d wakes ahead, max dirty %d of %d",
			st.Epochs, st.CopierWakesAhead, st.MaxDirtyObserved, budget)
	}
}

// The wake runs before the sector being written is admitted, so the copier
// cannot snapshot it ahead of the bytes the write is about to store: from
// a one-sector budget up, every write lands, the bound holds at every
// event, and after a flush the device holds what the region does.
func TestWakeNeverPicksFaultingSector(t *testing.T) {
	var wakes uint64
	for _, budget := range []int{1, 2, 3, 5, 8, 13, 16, 40, 200} {
		tr, clock := newTestTracker(t, Config{Size: 64 << 10, BudgetBytes: int64(budget) * 256})
		tr.events.SetFireHook(func(uint64, sim.Time) {
			if len(tr.dirty) > tr.budget {
				t.Fatalf("budget %d: %d dirty sectors", tr.budget, len(tr.dirty))
			}
		})
		rng := sim.NewRNG(uint64(budget))
		buf := make([]byte, 700)
		for step := 0; step < 2000; step++ {
			if rng.Intn(8) == 0 {
				clock.Advance(sim.Duration(rng.Intn(400)) * sim.Microsecond)
			}
			// Up to four sectors a write.
			n := 1 + rng.Intn(min(len(buf), budget*256))
			for i := range buf[:n] {
				buf[i] = byte(step) | 1
			}
			if err := tr.WriteAt(buf[:n], rng.Int63n(tr.Size()-int64(n))); err != nil {
				t.Fatal(err)
			}
			tr.Pump()
		}
		tr.FlushAll()
		if err := tr.VerifyDurability(); err != nil {
			t.Fatalf("budget %d: %v", budget, err)
		}
		wakes += tr.Stats().CopierWakesAhead
	}
	if wakes == 0 {
		t.Fatal("the wake level never started a clean")
	}
}
