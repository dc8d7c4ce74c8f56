package core

import (
	"cmp"
	"math/bits"
	"slices"

	"viyojit/internal/mmu"
	"viyojit/internal/sim"
)

// PageInfo is the per-page evidence a victim policy orders by.
type PageInfo struct {
	Page mmu.PageID
	// History is the 64-epoch aging word: each epoch it shifts right one
	// bit, and the top bit is set if the page was updated during that
	// epoch. Larger values mean more recently (and more frequently)
	// updated.
	History uint64
	// DirtiedSeq is a monotone sequence number assigned when the page
	// last entered the dirty set.
	DirtiedSeq uint64
}

// VictimPolicy orders dirty pages victim-first: after Order returns,
// cands[0] is the page the manager should clean next. Implementations
// must be deterministic given their inputs (Random carries its own seeded
// generator).
type VictimPolicy interface {
	// Name identifies the policy in stats and benchmark output.
	Name() string
	// Order sorts cands in place, best victim first.
	Order(cands []PageInfo)
}

// LRUUpdate is the paper's policy (§5.2): clean the least recently
// updated page first, using the 64-epoch aging history. Ties (equal
// histories, common when many pages were updated in the same epochs)
// break toward the page that became dirty earliest, then by page number
// for determinism.
type LRUUpdate struct{}

// Name implements VictimPolicy.
func (LRUUpdate) Name() string { return "lru-update" }

// Order implements VictimPolicy.
func (LRUUpdate) Order(cands []PageInfo) {
	slices.SortFunc(cands, func(a, b PageInfo) int {
		// Spelled out rather than cmp.Or: this comparator is most of an
		// epoch tick, and cmp.Or evaluates all three keys every time.
		if a.History != b.History {
			return cmp.Compare(a.History, b.History)
		}
		if a.DirtiedSeq != b.DirtiedSeq {
			return cmp.Compare(a.DirtiedSeq, b.DirtiedSeq)
		}
		return cmp.Compare(a.Page, b.Page)
	})
}

// FIFO cleans pages in the order they became dirty, ignoring update
// recency. It is an ablation baseline: cheaper to maintain but blind to
// re-dirtying.
type FIFO struct{}

// Name implements VictimPolicy.
func (FIFO) Name() string { return "fifo" }

// Order implements VictimPolicy.
func (FIFO) Order(cands []PageInfo) {
	slices.SortFunc(cands, func(a, b PageInfo) int {
		return cmp.Or(
			cmp.Compare(a.DirtiedSeq, b.DirtiedSeq),
			cmp.Compare(a.Page, b.Page))
	})
}

// LFU cleans the page with the fewest updates in the history window,
// breaking ties toward the older last update. It is an ablation
// alternative that weights frequency over recency.
type LFU struct{}

// Name implements VictimPolicy.
func (LFU) Name() string { return "lfu" }

// Order implements VictimPolicy.
func (LFU) Order(cands []PageInfo) {
	slices.SortFunc(cands, func(a, b PageInfo) int {
		return cmp.Or(
			cmp.Compare(bits.OnesCount64(a.History), bits.OnesCount64(b.History)),
			cmp.Compare(a.History, b.History),
			cmp.Compare(a.Page, b.Page))
	})
}

// Random cleans a uniformly random dirty page. It is the ablation floor:
// any useful recency signal must beat it.
type Random struct {
	rng *sim.RNG
}

// NewRandom returns a Random policy with its own deterministic stream.
func NewRandom(seed uint64) *Random { return &Random{rng: sim.NewRNG(seed)} }

// Name implements VictimPolicy.
func (*Random) Name() string { return "random" }

// Order implements VictimPolicy.
func (r *Random) Order(cands []PageInfo) {
	// Sort first so the shuffle is a deterministic function of the
	// candidate set, not of map iteration order upstream.
	slices.SortFunc(cands, func(a, b PageInfo) int { return cmp.Compare(a.Page, b.Page) })
	for i := len(cands) - 1; i > 0; i-- {
		j := r.rng.Intn(i + 1)
		cands[i], cands[j] = cands[j], cands[i]
	}
}

// MRUUpdate cleans the MOST recently updated page first — a deliberately
// adversarial policy that quantifies how much victim choice matters (it
// keeps evicting the hot set).
type MRUUpdate struct{}

// Name implements VictimPolicy.
func (MRUUpdate) Name() string { return "mru-update" }

// Order implements VictimPolicy.
func (MRUUpdate) Order(cands []PageInfo) {
	slices.SortFunc(cands, func(a, b PageInfo) int {
		return cmp.Or(
			cmp.Compare(b.History, a.History),
			cmp.Compare(a.Page, b.Page))
	})
}
