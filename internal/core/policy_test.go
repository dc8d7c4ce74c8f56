package core

import (
	"slices"
	"testing"

	"viyojit/internal/mmu"
)

func pi(page mmu.PageID, history uint64, seq uint64) PageInfo {
	return PageInfo{Page: page, History: history, DirtiedSeq: seq}
}

func firstPage(t *testing.T, p VictimPolicy, cands []PageInfo) mmu.PageID {
	t.Helper()
	cp := make([]PageInfo, len(cands))
	copy(cp, cands)
	slices.SortFunc(cp, p.Compare)
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
	cands := []PageInfo{pi(9, 0, 5), pi(4, 0, 3), pi(7, 0, 3)}
	cp := make([]PageInfo, len(cands))
	copy(cp, cands)
	slices.SortFunc(cp, LRUUpdate{}.Compare)
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
	a := make([]PageInfo, len(cands))
	b := make([]PageInfo, len(cands))
	copy(a, cands)
	copy(b, cands)
	slices.SortFunc(a, NewRandom(7).Compare)
	slices.SortFunc(b, NewRandom(7).Compare)
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
	slices.SortFunc(cands, NewRandom(1).Compare)
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
