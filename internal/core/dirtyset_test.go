package core

import (
	"slices"
	"testing"

	"viyojit/internal/mmu"
	"viyojit/internal/sim"
)

// TestDirtySetMatchesMapModel drives the dense set and a plain map
// through the same seeded schedule of admissions, removals,
// re-admissions under new sequence numbers and epoch ticks that mark
// random members updated, and after every step checks lookups (current
// and stale sequence numbers, absent pages), the length, and that the
// list holds exactly the live pages, each at the position its entry
// records and beside its sequence number, its gate and its history. The
// model ages every page's history at every tick, clean or dirty, the way
// the set's parked histories must behave.
func TestDirtySetMatchesMapModel(t *testing.T) {
	const pages = 64
	for seed := uint64(1); seed <= 8; seed++ {
		rng := sim.NewRNG(seed)
		set := newDirtySet(pages)
		model := map[mmu.PageID]uint64{} // page → admission seq
		stale := map[mmu.PageID]uint64{} // page → a seq that has left the set
		hist := make([]uint64, pages)    // page → history word
		var seq uint64
		var marked []int
		for step := 0; step < 4000; step++ {
			page := mmu.PageID(rng.Intn(pages))
			if rng.Intn(8) == 0 {
				// Ticks run from 1 to well over 64 epochs apart for a
				// parked page, so its history both ages and expires.
				marked = marked[:0]
				for i := range set.Pages {
					if rng.Intn(3) == 0 {
						marked = append(marked, i)
					}
				}
				for p := range hist {
					hist[p] >>= 1
				}
				for _, i := range marked {
					hist[set.Pages[i]] |= 1 << 63
				}
				set.tick(marked)
			} else if cur, ok := model[page]; ok && rng.Intn(2) == 0 {
				set.remove(page)
				delete(model, page)
				stale[page] = cur
			} else if !ok {
				seq++
				dp := set.add(page, seq)
				if dp.seq != seq || dp.cleaning || dp.rewritten || dp.attempts != 0 || set.State[dp.pos].Gate != 0 {
					t.Fatalf("seed %d step %d: add(%d, %d) returned %+v, gate %d", seed, step, page, seq, *dp, set.State[dp.pos].Gate)
				}
				// A gate naming its page shows it moves with its member.
				set.State[dp.pos].Gate = uint64(page)
				model[page] = seq
			} else {
				// Per-entry state must stay with the entry while other
				// pages come and go around it.
				set.get(page).attempts++
			}

			if set.len() != len(model) {
				t.Fatalf("seed %d step %d: len %d, model %d", seed, step, set.len(), len(model))
			}
			for p := mmu.PageID(0); p < pages; p++ {
				want, in := model[p]
				dp := set.get(p)
				if (dp != nil) != in || (in && dp.seq != want) {
					t.Fatalf("seed %d step %d: get(%d) = %v, model has %v (seq %d)", seed, step, p, dp, in, want)
				}
				if in && set.live(p, want) != dp {
					t.Fatalf("seed %d step %d: live(%d, %d) missed the current admission", seed, step, p, want)
				}
				if old, ok := stale[p]; ok && set.live(p, old) != nil {
					t.Fatalf("seed %d step %d: live(%d, %d) found an admission that has left the set", seed, step, p, old)
				}
			}
			got := slices.Clone(set.list())
			if len(set.State) != len(got) {
				t.Fatalf("seed %d step %d: %d member states beside %d pages", seed, step, len(set.State), len(got))
			}
			for i, p := range got {
				if set.get(p).pos != i {
					t.Fatalf("seed %d step %d: page %d at list[%d] records pos %d", seed, step, p, i, set.get(p).pos)
				}
				m := set.State[i]
				if h := m.Hist >> (set.Epoch - m.Aged); m.Seq != model[p] || h != hist[p] || m.Gate != uint64(p) {
					t.Fatalf("seed %d step %d: member %d (page %d) has sequence %d, history %#x and gate %d; want %d, %#x and %d",
						seed, step, i, p, m.Seq, h, m.Gate, model[p], hist[p], p)
				}
			}
			slices.Sort(got)
			want := make([]mmu.PageID, 0, len(model))
			for p := range model {
				want = append(want, p)
			}
			slices.Sort(want)
			if !slices.Equal(got, want) {
				t.Fatalf("seed %d step %d: list %v, model %v", seed, step, got, want)
			}
		}
	}
}

// TestDirtySetRejectsMisuse: the two states the manager must never reach.
func TestDirtySetRejectsMisuse(t *testing.T) {
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s did not panic", name)
			}
		}()
		fn()
	}
	set := newDirtySet(4)
	set.add(1, 7)
	mustPanic("double add", func() { set.add(1, 8) })
	mustPanic("remove of absent page", func() { set.remove(2) })
}
