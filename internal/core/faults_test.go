package core

import (
	"testing"
	"testing/quick"

	"viyojit/internal/faultinject"
	"viyojit/internal/mmu"
	"viyojit/internal/power"
	"viyojit/internal/sim"
	"viyojit/internal/ssd"
)

// newFaultedHarness is newHarness plus a faultinject.Injector wired into
// the SSD, so tests can script clean-path write failures.
func newFaultedHarness(t testing.TB, pages int, cfg Config, fcfg faultinject.Config) (*harness, *faultinject.Injector) {
	t.Helper()
	h := newHarness(t, pages, cfg)
	inj := faultinject.New(fcfg)
	h.dev.SetFaultInjector(inj)
	return h, inj
}

// retryPending reports whether any dirty page is waiting on a scheduled
// clean retry (failed at least once, not currently being cleaned).
func (m *Manager) retryPending() bool {
	for _, page := range m.dirty.list() {
		if dp := m.dirty.get(page); !dp.cleaning && dp.attempts > 0 {
			return true
		}
	}
	return false
}

// settle advances virtual time in small steps until the SSD is idle and
// no retry is pending — bounded, unlike draining the queue (the epoch
// tick reschedules itself forever).
func settle(t testing.TB, h *harness) {
	t.Helper()
	for i := 0; i < 1000; i++ {
		h.clock.Advance(100 * sim.Microsecond)
		h.mgr.Pump()
		if h.dev.Outstanding() == 0 && !h.mgr.retryPending() {
			return
		}
	}
	t.Fatal("simulation did not settle within 100 ms of virtual time")
}

// TestCleanRetryRecoversFromTransientError is the deterministic
// retry-with-backoff scenario: the SSD rejects the first two attempts to
// clean a page, the manager retries with exponential backoff, the third
// attempt lands — and the dirty count never exceeds the budget at any
// point in between. (Forced cleans on the blocked-write path resubmit
// inline instead — see TestBudgetEnforcedDespiteFailingCleans.)
func TestCleanRetryRecoversFromTransientError(t *testing.T) {
	const budget = 4
	h, inj := newFaultedHarness(t, 8, Config{DirtyBudgetPages: budget}, faultinject.Config{})
	inj.FailNextWrites(2)

	h.writePage(t, 0, 0xA1)
	h.writePage(t, 1, 0xB2)
	h.mgr.startClean(0) // the proactive path: async, retried on failure

	for i := 0; i < 200 && h.mgr.Stats().CleansCompleted == 0; i++ {
		h.clock.Advance(50 * sim.Microsecond)
		h.mgr.Pump()
		if got := h.mgr.DirtyCount(); got > budget {
			t.Fatalf("dirty count %d exceeds budget %d while retrying", got, budget)
		}
	}
	st := h.mgr.Stats()
	if st.CleansCompleted == 0 {
		t.Fatal("clean never completed despite retries")
	}
	if st.CleanErrors != 2 {
		t.Fatalf("CleanErrors = %d, want 2 (both scripted failures hit the clean path)", st.CleanErrors)
	}
	if st.CleanRetries != 2 {
		t.Fatalf("CleanRetries = %d, want 2 (each failure resubmitted after backoff)", st.CleanRetries)
	}
	if got := h.dev.Stats().WriteErrors; got != 2 {
		t.Fatalf("SSD WriteErrors = %d, want 2", got)
	}

	// The retried page's final contents are the ones that became durable.
	h.mgr.FlushAll()
	if err := h.mgr.VerifyDurability(); err != nil {
		t.Fatalf("durability after retry recovery: %v", err)
	}
}

// TestCleanRetryBacksOffExponentially pins the retry schedule: with a
// 100 µs base, the first resubmission comes ~100 µs after the failure,
// the second ~200 µs after the next.
func TestCleanRetryBacksOffExponentially(t *testing.T) {
	h, inj := newFaultedHarness(t, 4,
		Config{DirtyBudgetPages: 4},
		faultinject.Config{})
	inj.FailNextWrites(2)

	h.writePage(t, 0, 0x01)
	h.mgr.startClean(0)

	until := func(cond func(Stats) bool) sim.Duration {
		start := h.clock.Now()
		for i := 0; i < 10000 && !cond(h.mgr.Stats()); i++ {
			h.clock.Advance(5 * sim.Microsecond)
			h.mgr.Pump()
		}
		if !cond(h.mgr.Stats()) {
			t.Fatalf("condition not reached; stats %+v", h.mgr.Stats())
		}
		return h.clock.Now().Sub(start)
	}
	until(func(s Stats) bool { return s.CleanErrors == 1 })
	d1 := until(func(s Stats) bool { return s.CleanRetries == 1 })
	if d1 < 80*sim.Microsecond || d1 > 120*sim.Microsecond {
		t.Fatalf("first retry after %v, want ~100 µs", d1)
	}
	until(func(s Stats) bool { return s.CleanErrors == 2 })
	d2 := until(func(s Stats) bool { return s.CleanRetries == 2 })
	if d2 < 180*sim.Microsecond || d2 > 220*sim.Microsecond {
		t.Fatalf("second retry after %v, want ~200 µs (doubled)", d2)
	}
	until(func(s Stats) bool { return s.CleansCompleted >= 1 })
}

// TestBudgetEnforcedDespiteFailingCleans: a write blocked on a full
// budget cannot afford backoff — the forced-clean loop resubmits inline
// until a clean lands, and the budget holds throughout.
func TestBudgetEnforcedDespiteFailingCleans(t *testing.T) {
	const budget = 2
	h, inj := newFaultedHarness(t, 8, Config{DirtyBudgetPages: budget}, faultinject.Config{})
	inj.FailNextWrites(3)

	h.writePage(t, 0, 0xA1)
	h.writePage(t, 1, 0xB2)
	h.writePage(t, 2, 0xC3) // blocks until a clean finally lands
	if got := h.mgr.DirtyCount(); got > budget {
		t.Fatalf("dirty count %d exceeds budget %d after forced clean", got, budget)
	}
	st := h.mgr.Stats()
	if st.CleanErrors != 3 {
		t.Fatalf("CleanErrors = %d, want 3", st.CleanErrors)
	}
	if st.CleansCompleted == 0 {
		t.Fatal("forced clean never landed")
	}
	settle(t, h)
	h.mgr.FlushAll()
	if err := h.mgr.VerifyDurability(); err != nil {
		t.Fatalf("durability: %v", err)
	}
}

// TestDegradedModeEntersAndHeals: enough consecutive clean failures trip
// degraded mode; a streak of healAfterCleans successes heals it.
func TestDegradedModeEntersAndHeals(t *testing.T) {
	const budget = 1
	h, inj := newFaultedHarness(t, 16, Config{DirtyBudgetPages: budget}, faultinject.Config{})
	inj.FailNextWrites(degradeAfterErrors)

	h.writePage(t, 0, 0x11)
	h.writePage(t, 1, 0x22) // forced clean of page 0 fails 3× then lands
	settle(t, h)
	st := h.mgr.Stats()
	if st.DegradedEnters != 1 || st.CleanErrors != degradeAfterErrors {
		t.Fatalf("DegradedEnters = %d after %d failures, want 1 after %d", st.DegradedEnters, st.CleanErrors, degradeAfterErrors)
	}

	// Every success since then extends the streak; each write forces
	// another (now healthy) clean.
	for p := 2; h.mgr.HealthState() >= StateDegraded; p++ {
		if got := h.mgr.Stats().CleansCompleted; got >= healAfterCleans || p == 16 {
			t.Fatalf("manager still degraded after %d clean successes", got)
		}
		h.writePage(t, p, byte(p))
		settle(t, h)
	}
	if got := h.mgr.Stats().CleansCompleted; got < healAfterCleans {
		t.Fatalf("manager healed after %d clean successes, want %d", got, healAfterCleans)
	}
}

// TestDegradedEpochsCountAndExtraCleaning: while degraded, epoch ticks
// are counted and the proactive-clean threshold shrinks (cleaning starts
// earlier, keeping more headroom against an unreliable SSD).
func TestDegradedEpochsCountAndExtraCleaning(t *testing.T) {
	const budget = 8
	h, inj := newFaultedHarness(t, 32, Config{DirtyBudgetPages: budget}, faultinject.Config{})
	inj.FailNextWrites(degradeAfterErrors)

	// Dirty past the degraded threshold (budget/2 = 4 after halving)
	// but below the healthy one, then trip degradation via three failed
	// proactive cleans.
	for p := 0; p < 6; p++ {
		h.writePage(t, p, byte(0x40+p))
	}
	h.clock.Advance(sim.Millisecond) // epoch tick → proactive cleans → 3 failures
	h.mgr.Pump()
	settle(t, h)
	if h.mgr.HealthState() < StateDegraded {
		t.Fatalf("not degraded after %d clean errors (streak threshold %d)", h.mgr.Stats().CleanErrors, degradeAfterErrors)
	}
	before := h.mgr.Stats().DegradedEpochs
	h.clock.Advance(sim.Millisecond)
	h.mgr.Pump()
	after := h.mgr.Stats().DegradedEpochs
	if after <= before {
		t.Fatalf("DegradedEpochs did not advance across an epoch tick while degraded (%d → %d)", before, after)
	}
}

// TestTornCleanIsRetriedAndConverges: a torn page program leaves garbage
// on the SSD, but the page stays dirty in DRAM and the retry overwrites
// the torn copy — the stores converge.
func TestTornCleanIsRetriedAndConverges(t *testing.T) {
	const budget = 1
	h, inj := newFaultedHarness(t, 4, Config{DirtyBudgetPages: budget}, faultinject.Config{})
	inj.ScriptAt(0, ssd.FaultDecision{Fault: ssd.FaultTorn})

	h.writePage(t, 0, 0x77)
	h.writePage(t, 1, 0x88) // forces a clean of page 0, which tears
	settle(t, h)
	if got := h.dev.Stats().TornWrites; got != 1 {
		t.Fatalf("TornWrites = %d, want 1", got)
	}
	h.mgr.FlushAll()
	if err := h.mgr.VerifyDurability(); err != nil {
		t.Fatalf("durability after torn clean: %v", err)
	}
}

// TestBudgetInvariantUnderSSDFaults is the fault-injected version of
// TestBudgetInvariantProperty: a random mix of reads and writes over
// many epochs with transient, torn, and latency-spiked SSD writes — the
// dirty count must respect the budget after every single operation, and
// the data must survive a final flush.
func TestBudgetInvariantUnderSSDFaults(t *testing.T) {
	f := func(seed uint64, budgetRaw uint8, nOps uint16) bool {
		const pages = 48
		budget := int(budgetRaw)%12 + 2
		h, _ := newFaultedHarness(t, pages, Config{DirtyBudgetPages: budget}, faultinject.Config{
			Seed:          seed ^ 0xF0F0,
			TransientProb: 0.10,
			TornProb:      0.05,
			SpikeProb:     0.10,
			MaxFaults:     48,
		})
		rng := sim.NewRNG(seed)
		shadow := make([]byte, pages)
		buf := make([]byte, 1)
		ops := int(nOps)%400 + 50
		for i := 0; i < ops; i++ {
			p := rng.Intn(pages)
			if rng.Float64() < 0.4 { // mixed workload: 40% reads
				if err := h.region.ReadAt(buf, int64(p)*4096); err != nil {
					return false
				}
				if buf[0] != shadow[p] {
					return false
				}
			} else {
				marker := byte(rng.Uint64()) | 1
				if err := h.region.WriteAt([]byte{marker}, int64(p)*4096); err != nil {
					return false
				}
				shadow[p] = marker
			}
			h.mgr.Pump()
			if h.mgr.DirtyCount() > budget {
				return false
			}
			if rng.Intn(4) == 0 {
				h.clock.Advance(sim.Millisecond)
				h.mgr.Pump()
			}
		}
		settle(t, h)
		if h.mgr.DirtyCount() > budget {
			return false
		}
		h.mgr.FlushAll()
		return h.mgr.VerifyDurability() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// recountInflight is what inflight used to be computed as on every use:
// a walk of the dirty set.
func (m *Manager) recountInflight() int {
	n := 0
	for _, page := range m.dirty.list() {
		if m.dirty.get(page).cleaning {
			n++
		}
	}
	return n
}

// TestInflightCounterMatchesRecount drives every path that starts,
// fails, retries, completes or abandons a clean — forced and proactive
// cleans under transient, torn and spiked writes, backoff retries,
// repairs, budget retunes, emergency drains with bounded attempts,
// resumes, in both trap and hardware-assist mode — and checks after each
// step that the maintained counter equals a recount of the dirty map.
func TestInflightCounterMatchesRecount(t *testing.T) {
	for _, hw := range []bool{false, true} {
		for seed := uint64(1); seed <= 6; seed++ {
			const pages = 48
			h, _ := newFaultedHarness(t, pages, Config{DirtyBudgetPages: 10, HardwareAssist: hw}, faultinject.Config{
				Seed:          seed,
				TransientProb: 0.25,
				TornProb:      0.10,
				SpikeProb:     0.10,
			})
			check := func(step int, what string) {
				t.Helper()
				if got, want := h.mgr.inflight, h.mgr.recountInflight(); got != want {
					t.Fatalf("hw=%v seed %d step %d (%s): inflight counter %d, recount %d", hw, seed, step, what, got, want)
				}
			}
			rng := sim.NewRNG(seed)
			for step := 0; step < 600; step++ {
				switch r := rng.Intn(20); {
				case r == 0:
					h.mgr.EnterEmergencyFlush() // bounded attempts: may leave pages dirty
					check(step, "emergency drain")
					h.mgr.RetryDrain()
					check(step, "retry drain")
					if err := h.mgr.Resume(StateHealthy); err != nil {
						t.Fatal(err)
					}
				case r == 1:
					if err := h.mgr.SetDirtyBudget(4 + rng.Intn(8)); err != nil {
						t.Fatal(err)
					}
				case r == 2:
					_ = h.mgr.RepairPage(mmu.PageID(rng.Intn(pages)))
				case r < 6:
					h.clock.Advance(sim.Duration(rng.Intn(1500)) * sim.Microsecond)
					h.mgr.Pump()
				default:
					if err := h.region.WriteAt([]byte{byte(step) | 1}, int64(rng.Intn(pages))*4096); err != nil {
						t.Fatalf("hw=%v seed %d step %d: write: %v", hw, seed, step, err)
					}
					h.mgr.Pump()
				}
				check(step, "step")
			}
			if st := h.mgr.Stats(); st.CleanErrors == 0 || st.CleanRetries == 0 || st.EmergencyCleans == 0 || st.ForcedCleans == 0 {
				t.Fatalf("hw=%v seed %d: schedule missed a path: %+v", hw, seed, st)
			}
			h.mgr.PowerFail(power.Default(), 1e6)
			check(600, "power-fail flush")
		}
	}
}
