package core

import (
	"fmt"
	"slices"
	"testing"

	"viyojit/internal/faultinject"
	"viyojit/internal/mmu"
	"viyojit/internal/nvdram"
	"viyojit/internal/sim"
	"viyojit/internal/ssd"
)

func allPolicies(seed uint64) []VictimPolicy {
	return []VictimPolicy{LRUUpdate{}, FIFO{}, LFU{}, NewRandom(seed), MRUUpdate{}}
}

// TestSelectorMatchesSortedOrder: popping a collection empty yields
// exactly its candidates sorted by the policy's reference comparator —
// with histories and admission sequences drawn from small ranges so every
// tie-break level of every policy is exercised, up to several batches of
// candidates, and members that are not candidates beside them: admitted
// after the cutoff, or gated out by an in-flight state.
func TestSelectorMatchesSortedOrder(t *testing.T) {
	for _, policy := range allPolicies(3) {
		rng := sim.NewRNG(11)
		sel := newVictimSelector(policy)
		for round := 0; round < 200; round++ {
			const cutoff = 6
			sel.collect(cutoff)
			ms := members{Epoch: 100}
			var want []PageInfo
			for _, p := range rng.Perm(64)[:rng.Intn(64)] {
				c := PageInfo{
					Page:       mmu.PageID(p),
					History:    uint64(rng.Intn(4)) << 59,
					DirtiedSeq: uint64(1 + rng.Intn(cutoff+2)),
				}
				// The history as stored some epochs ago: the scan ages it, to
				// nothing once 64 epochs have passed.
				age := rng.Intn(3)
				m := member{Seq: c.DirtiedSeq, Hist: c.History << age}
				if rng.Intn(8) == 0 {
					age, m.Hist, c.History = 64+rng.Intn(3), rng.Uint64(), 0
				}
				m.Aged = ms.Epoch - uint64(age)
				switch rng.Intn(8) {
				case 0:
					m.Gate = sel.gen // in flight at the collection, since failed
				case 1:
					m.Gate = inFlight | sel.gen // went in flight after it
				}
				ms.Pages, ms.State = append(ms.Pages, c.Page), append(ms.State, m)
				if c.DirtiedSeq <= cutoff && m.Gate == 0 {
					want = append(want, c)
				}
			}
			slices.SortFunc(want, refCompare(policy))
			for i, w := range want {
				got, ok := sel.pop(&ms)
				if !ok || got != w {
					t.Fatalf("%s round %d: pop %d = %+v (ok=%v), sorted order has %+v", policy.Name(), round, i, got, ok, w)
				}
			}
			if got, ok := sel.pop(&ms); ok {
				t.Fatalf("%s round %d: pop past the end returned %+v", policy.Name(), round, got)
			}
		}
	}
}

// eagerVictims is victim selection as it was before it became lazy, kept
// as the reference: every page's history aged at every tick, the
// candidates copied with their histories when they are collected, the
// whole set sorted at once by the policy's reference comparator, victims
// handed out by walking the sorted list. It shares the manager's dirty
// set (checked on its own against a map model) and nothing else.
type eagerVictims struct {
	policy   VictimPolicy
	hist     []uint64
	queue    []PageInfo
	pos      int
	collects int
}

func (e *eagerVictims) tick(m *Manager) {
	for p := range e.hist {
		e.hist[p] >>= 1
	}
	for _, i := range m.scanBuf {
		e.hist[m.dirty.Pages[i]] |= 1 << 63
	}
	e.collect(m)
}

func (e *eagerVictims) collect(m *Manager) {
	e.collects++
	e.queue = e.queue[:0]
	for _, page := range m.dirty.list() {
		if dp := m.dirty.get(page); !dp.cleaning {
			e.queue = append(e.queue, PageInfo{Page: page, History: e.hist[page], DirtiedSeq: dp.seq})
		}
	}
	slices.SortFunc(e.queue, refCompare(e.policy))
	e.pos = 0
}

func (e *eagerVictims) next(m *Manager) (mmu.PageID, bool) {
	for pass := 0; pass < 2; pass++ {
		for e.pos < len(e.queue) {
			cand := e.queue[e.pos]
			e.pos++
			if dp := m.dirty.live(cand.Page, cand.DirtiedSeq); dp != nil && !dp.cleaning {
				return cand.Page, true
			}
		}
		e.collect(m)
	}
	return 0, false
}

// TestVictimSelectionMatchesEagerSort drives a manager and the eager
// reference through seeded schedules — admissions, writes to dirty pages
// (which, in hardware-assist mode, mark in-flight pages rewritten), epoch
// ticks, cleans started on the chosen victims and on pages the selector
// did not choose, completions, injected failures and their backoff
// retries, and bursts of selections that run the epoch's candidates out
// and force a mid-epoch re-collection — for all five policies in both
// tracking modes, and requires the same victim (or the same "none") at
// every selection.
//
// The budget is far above the region size, so the manager never selects
// on its own and every selection goes through the test.
func TestVictimSelectionMatchesEagerSort(t *testing.T) {
	const pages = 32
	for _, hw := range []bool{false, true} {
		for _, policy := range allPolicies(5) {
			for seed := uint64(1); seed <= 3; seed++ {
				name := fmt.Sprintf("%s/hw=%v/seed=%d", policy.Name(), hw, seed)
				clock := sim.NewClock()
				events := sim.NewQueue()
				region, err := nvdram.New(clock, nvdram.Config{Size: pages * 4096})
				if err != nil {
					t.Fatal(err)
				}
				// A queue deeper than the region: submissions never stall, so
				// events fire only where the schedule steps them.
				dev := ssd.New(clock, events, ssd.Config{MaxOutstanding: 2 * pages})
				dev.SetFaultInjector(faultinject.New(faultinject.Config{Seed: seed, TransientProb: 0.2, TornProb: 0.05}))
				m, err := NewManager(clock, events, region, dev, Config{
					DirtyBudgetPages: 1 << 20,
					Policy:           policy,
					HardwareAssist:   hw,
				})
				if err != nil {
					t.Fatal(err)
				}
				ref := &eagerVictims{policy: policy, hist: make([]uint64, pages)}
				rng := sim.NewRNG(seed * 977)

				selections, victims, ticks, rewrites, outside := 0, 0, 0, 0, 0
				// Collections with cleans in flight gate those pages out, the
				// others gate nothing: count a sample of each.
				idleTicks, busyCollects := 0, 0
				sel := func() {
					selections++
					got, gotOK := m.nextVictim()
					collects := ref.collects
					want, wantOK := ref.next(m)
					if ref.collects > collects && m.inflight > 0 {
						busyCollects++
					}
					if got != want || gotOK != wantOK {
						t.Fatalf("%s: selection %d = page %d (ok=%v), eager sort picks page %d (ok=%v)",
							name, selections, got, gotOK, want, wantOK)
					}
					if gotOK {
						victims++
						m.startClean(got)
					}
				}
				// step fires one event and reports whether it was an epoch tick.
				step := func() bool {
					before, inflight := m.dirty.Epoch, m.inflight
					if !events.Step(clock) {
						t.Fatalf("%s: no pending event (the epoch tick always is)", name)
					}
					if m.dirty.Epoch == before {
						return false
					}
					ticks++
					if inflight == 0 {
						idleTicks++
					}
					ref.tick(m)
					return true
				}
				for i := 0; i < 3000; i++ {
					switch r := rng.Intn(100); {
					case r < 40:
						page := mmu.PageID(rng.Intn(pages))
						if dp := m.dirty.get(page); dp != nil && dp.cleaning {
							if !hw {
								continue // a trap-mode write here would block on the clean
							}
							rewrites++
						}
						if err := region.WriteAt([]byte{byte(i)}, int64(page)*4096); err != nil {
							t.Fatalf("%s: write page %d: %v", name, page, err)
						}
					case r < 50:
						sel()
					case r < 52:
						for n := m.dirty.len() + 2; n > 0; n-- {
							sel()
						}
					case r < 64:
						// A clean the selector did not hand out, as Unmap, the
						// emergency drain and repair start: the page may be a
						// candidate of this collection, or have been in flight
						// at it and failed since.
						page := mmu.PageID(rng.Intn(pages))
						if dp := m.dirty.get(page); dp != nil && !dp.cleaning {
							outside++
							m.startClean(page)
						}
					case r < 85:
						step()
					default:
						for !step() {
						}
					}
				}
				st := m.Stats()
				if ticks < 100 || idleTicks < 10 || busyCollects < 10 || victims < 100 || st.CleanRetries == 0 || ref.collects-ticks < 10 || (hw && rewrites == 0) || outside < 50 {
					t.Fatalf("%s: schedule too thin: %d ticks (%d with nothing in flight), %d victims of %d selections, %d retries, %d mid-epoch collections (%d with cleans in flight), %d writes to in-flight pages, %d cleans started outside the selector",
						name, ticks, idleTicks, victims, selections, st.CleanRetries, ref.collects-ticks, busyCollects, rewrites, outside)
				}
			}
		}
	}
}
