package core

import (
	"slices"
	"strings"
	"testing"

	"viyojit/internal/mmu"
	"viyojit/internal/sim"
	"viyojit/internal/ssd"
)

// writeLog is a fault injector that fails nothing and records the page
// of every clean's device write, in submission order: the victim order.
type writeLog []mmu.PageID

func (w *writeLog) WriteFault(page mmu.PageID, _ []byte) ssd.FaultDecision {
	*w = append(*w, page)
	return ssd.FaultDecision{}
}

// runScript drives h through a seeded schedule of writes — mostly to a
// hot quarter of the pages, so histories differ — and time advances
// across epochs, and returns the victim order it produced.
func runScript(t *testing.T, h *harness, seed uint64, steps int) writeLog {
	t.Helper()
	var log writeLog
	h.dev.SetFaultInjector(&log)
	rng := sim.NewRNG(seed)
	pages := h.region.NumPages()
	for step := 0; step < steps; step++ {
		switch r := rng.Intn(10); {
		case r < 7:
			page := rng.Intn(pages)
			if rng.Intn(10) < 7 {
				page = rng.Intn(pages / 4)
			}
			h.writePage(t, page, byte(step))
		default:
			h.events.RunUntil(h.clock, h.clock.Now().Add(sim.Duration(rng.Intn(3000))*sim.Microsecond))
		}
	}
	h.dev.SetFaultInjector(nil)
	return log
}

// TestRecycledDirtySetMatchesFresh: a manager built on a retired
// manager's dirty-set tables and clean records (Config.Retired) behaves
// as one built afresh. The donor runs a schedule that leaves pages dirty, histories
// parked for pages it cleaned and the member slices grown; then one
// seeded schedule runs on the recycled manager and on a fresh one, and
// the victim order, the counters, the virtual time and the dirty set
// must match. The donor panics on use afterwards, naming retirement, and
// its counters still read.
func TestRecycledDirtySetMatchesFresh(t *testing.T) {
	const pages, budget = 64, 8
	for seed := uint64(1); seed <= 4; seed++ {
		donor := newHarness(t, pages, Config{DirtyBudgetPages: budget})
		// The donor runs a fifth as long as the schedules compared, so
		// they reach the epochs its parked histories are stamped with.
		runScript(t, donor, seed+100, 600)
		parked := 0
		for _, h := range donor.mgr.dirty.parked {
			if h != 0 {
				parked++
			}
		}
		if donor.mgr.DirtyCount() == 0 || parked == 0 {
			t.Fatalf("seed %d: the donor has %d dirty pages and %d parked histories: the test would prove nothing",
				seed, donor.mgr.DirtyCount(), parked)
		}
		clock, events := sim.NewClock(), sim.NewQueue()
		region, err := newRegionImpl(clock, pages)
		if err != nil {
			t.Fatal(err)
		}
		dev := ssd.New(clock, events, ssd.Config{})
		if m, err := NewManager(clock, events, region, dev, Config{DirtyBudgetPages: budget, Retired: donor.mgr}); err != nil || &m.dirty.entries[0] == &donor.mgr.dirty.entries[0] {
			t.Fatalf("seed %d: a manager that is not closed handed its tables on (err %v)", seed, err)
		}
		clock, events = sim.NewClock(), sim.NewQueue()
		if region, err = newRegionImpl(clock, pages); err != nil {
			t.Fatal(err)
		}
		dev = ssd.New(clock, events, ssd.Config{})
		donor.mgr.Close()
		donorStats, entries := donor.mgr.Stats(), &donor.mgr.dirty.entries[0]
		mgr, err := NewManager(clock, events, region, dev, Config{DirtyBudgetPages: budget, Retired: donor.mgr})
		if err != nil {
			t.Fatal(err)
		}
		if &mgr.dirty.entries[0] != entries || mgr.cfg.Retired != nil {
			t.Fatalf("seed %d: the new manager did not take the donor's tables, or keeps the donor", seed)
		}
		if len(mgr.cleans) == 0 || slices.ContainsFunc(mgr.cleans, func(c *clean) bool { return c.m != mgr }) {
			t.Fatalf("seed %d: the new manager did not take the donor's clean records, each pointing at it", seed)
		}
		func() {
			defer func() {
				if r := recover(); r == nil || !strings.Contains(r.(string), "retired") {
					t.Fatalf("seed %d: DirtyCount of the donor after the hand-off: panic %v, want one naming retirement", seed, r)
				}
			}()
			donor.mgr.DirtyCount()
		}()
		if donor.mgr.Stats() != donorStats {
			t.Fatalf("seed %d: the donor's counters changed across the hand-off", seed)
		}

		recycled := &harness{clock: clock, events: events, region: region, dev: dev, mgr: mgr}
		fresh := newHarness(t, pages, Config{DirtyBudgetPages: budget})
		got, want := runScript(t, recycled, seed, 3000), runScript(t, fresh, seed, 3000)
		if len(want) == 0 {
			t.Fatalf("seed %d: the script cleaned nothing: the test would prove nothing", seed)
		}
		if !slices.Equal(got, want) {
			t.Fatalf("seed %d: victim order differs: recycled %v…, fresh %v…", seed, head(got), head(want))
		}
		if g, w := recycled.mgr.Stats(), fresh.mgr.Stats(); g != w {
			t.Fatalf("seed %d: Stats differ:\nrecycled %+v\nfresh    %+v", seed, g, w)
		}
		if g, w := recycled.clock.Now(), fresh.clock.Now(); g != w {
			t.Fatalf("seed %d: virtual time differs: recycled %v, fresh %v", seed, g, w)
		}
		g, w := recycled.mgr.dirty.members, fresh.mgr.dirty.members
		if !slices.Equal(g.Pages, w.Pages) || !slices.Equal(g.State, w.State) || g.Epoch != w.Epoch {
			t.Fatalf("seed %d: the dirty sets differ at the end", seed)
		}
	}
}

func head(log writeLog) writeLog { return log[:min(len(log), 12)] }
