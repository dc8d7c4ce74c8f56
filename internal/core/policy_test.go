package core

import (
	"cmp"
	"math/bits"
	"slices"
	"testing"

	"viyojit/internal/mmu"
	"viyojit/internal/sim"
)

func pi(page mmu.PageID, history uint64, seq uint64) PageInfo {
	return PageInfo{Page: page, History: history, DirtiedSeq: seq}
}

// keyOrder is the order the selector hands victims out in: policy key,
// then page.
func keyOrder(p VictimPolicy) func(a, b PageInfo) int {
	return func(a, b PageInfo) int {
		ah, al := p.Key(a)
		bh, bl := p.Key(b)
		return cmp.Or(cmp.Compare(ah, bh), cmp.Compare(al, bl), cmp.Compare(a.Page, b.Page))
	}
}

// refCompare is each policy's order written as a comparator, the way the
// policies defined it before they became keys: the reference the keys are
// held to.
func refCompare(p VictimPolicy) func(a, b PageInfo) int {
	switch p := p.(type) {
	case LRUUpdate:
		return func(a, b PageInfo) int {
			return cmp.Or(cmp.Compare(a.History, b.History), cmp.Compare(a.DirtiedSeq, b.DirtiedSeq), cmp.Compare(a.Page, b.Page))
		}
	case FIFO:
		return func(a, b PageInfo) int {
			return cmp.Or(cmp.Compare(a.DirtiedSeq, b.DirtiedSeq), cmp.Compare(a.Page, b.Page))
		}
	case LFU:
		return func(a, b PageInfo) int {
			return cmp.Or(
				cmp.Compare(bits.OnesCount64(a.History), bits.OnesCount64(b.History)),
				cmp.Compare(a.History, b.History),
				cmp.Compare(a.Page, b.Page))
		}
	case *Random:
		return func(a, b PageInfo) int {
			return cmp.Or(cmp.Compare(p.priority(a), p.priority(b)), cmp.Compare(a.Page, b.Page))
		}
	case MRUUpdate:
		return func(a, b PageInfo) int {
			return cmp.Or(cmp.Compare(b.History, a.History), cmp.Compare(a.Page, b.Page))
		}
	}
	panic("no reference comparator for policy " + p.Name())
}

// randomInfo draws a candidate from small ranges, so that pairs tie on
// every level of every policy's order: history, popcount, admission
// sequence and page.
func randomInfo(rng *sim.RNG) PageInfo {
	return PageInfo{
		Page:       mmu.PageID(rng.Intn(4)),
		History:    uint64(rng.Intn(4))<<62 | uint64(rng.Intn(2)),
		DirtiedSeq: uint64(rng.Intn(3)),
	}
}

// TestPolicyKeyMatchesComparator: for every policy, comparing two
// candidates by key and then page gives the sign the reference comparator
// gives, over random pairs that hit every tie level.
func TestPolicyKeyMatchesComparator(t *testing.T) {
	for _, p := range allPolicies(9) {
		got, want := keyOrder(p), refCompare(p)
		rng := sim.NewRNG(17)
		for i := 0; i < 20000; i++ {
			a, b := randomInfo(rng), randomInfo(rng)
			if g, w := got(a, b), want(a, b); cmp.Compare(g, 0) != cmp.Compare(w, 0) {
				t.Fatalf("%s: key order of %+v vs %+v is %d, comparator says %d", p.Name(), a, b, g, w)
			}
		}
	}
}

func firstPage(t *testing.T, p VictimPolicy, cands []PageInfo) mmu.PageID {
	t.Helper()
	cp := slices.Clone(cands)
	slices.SortFunc(cp, keyOrder(p))
	return cp[0].Page
}

func TestLRUUpdatePicksColdest(t *testing.T) {
	cands := []PageInfo{
		pi(1, 1<<63, 10),      // updated this epoch: hot
		pi(2, 1<<10, 11),      // updated 53 epochs ago: cold
		pi(3, 1<<63|1<<5, 12), // hot and old activity
	}
	if got := firstPage(t, LRUUpdate{}, cands); got != 2 {
		t.Fatalf("LRU-update victim = %d, want 2 (coldest)", got)
	}
}

func TestLRUUpdateTieBreaksByDirtiedSeqThenPage(t *testing.T) {
	cp := []PageInfo{pi(9, 0, 5), pi(4, 0, 3), pi(7, 0, 3)}
	slices.SortFunc(cp, keyOrder(LRUUpdate{}))
	if cp[0].Page != 4 || cp[1].Page != 7 || cp[2].Page != 9 {
		t.Fatalf("tie-break order = %v", cp)
	}
}

func TestFIFOOrdersByDirtiedSeq(t *testing.T) {
	cands := []PageInfo{
		pi(1, 1<<63, 30),
		pi(2, 0, 10),
		pi(3, 1<<62, 20),
	}
	if got := firstPage(t, FIFO{}, cands); got != 2 {
		t.Fatalf("FIFO victim = %d, want 2 (oldest dirtied)", got)
	}
}

func TestLFUPicksLeastFrequent(t *testing.T) {
	cands := []PageInfo{
		pi(1, 1<<63|1<<62|1<<61, 1), // 3 updates
		pi(2, 1<<63, 2),             // 1 update, most recent
		pi(3, 1<<3|1<<2, 3),         // 2 updates
	}
	if got := firstPage(t, LFU{}, cands); got != 2 {
		t.Fatalf("LFU victim = %d, want 2 (fewest updates)", got)
	}
}

func TestMRUUpdatePicksHottest(t *testing.T) {
	cands := []PageInfo{
		pi(1, 1<<63, 1),
		pi(2, 1<<10, 2),
	}
	if got := firstPage(t, MRUUpdate{}, cands); got != 1 {
		t.Fatalf("MRU-update victim = %d, want 1 (hottest)", got)
	}
}

func TestRandomIsDeterministicPerSeed(t *testing.T) {
	cands := []PageInfo{pi(1, 0, 1), pi(2, 0, 2), pi(3, 0, 3), pi(4, 0, 4), pi(5, 0, 5)}
	a, b := slices.Clone(cands), slices.Clone(cands)
	slices.SortFunc(a, keyOrder(NewRandom(7)))
	slices.SortFunc(b, keyOrder(NewRandom(7)))
	for i := range a {
		if a[i].Page != b[i].Page {
			t.Fatalf("same-seed Random orders differ: %v vs %v", a, b)
		}
	}
}

func TestRandomIsAPermutation(t *testing.T) {
	cands := make([]PageInfo, 20)
	for i := range cands {
		cands[i] = pi(mmu.PageID(i), 0, uint64(i))
	}
	slices.SortFunc(cands, keyOrder(NewRandom(1)))
	seen := map[mmu.PageID]bool{}
	for _, c := range cands {
		if seen[c.Page] {
			t.Fatalf("Random duplicated page %d", c.Page)
		}
		seen[c.Page] = true
	}
	if len(seen) != 20 {
		t.Fatalf("Random dropped pages: %d/20", len(seen))
	}
}

func TestPolicyNames(t *testing.T) {
	cases := map[string]VictimPolicy{
		"lru-update": LRUUpdate{},
		"fifo":       FIFO{},
		"lfu":        LFU{},
		"random":     NewRandom(0),
		"mru-update": MRUUpdate{},
	}
	for want, p := range cases {
		if p.Name() != want {
			t.Errorf("Name() = %q, want %q", p.Name(), want)
		}
	}
}
