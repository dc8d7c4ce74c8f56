package core

import (
	"math/bits"

	"viyojit/internal/mmu"
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

// VictimPolicy ranks dirty pages for cleaning by a two-word key. The
// selector cleans the least key first, comparing hi, then lo, then the
// page number, so the order is total over distinct pages. Key must be a
// pure function of its argument: the selector computes it as it scans the
// dirty set and relies on it to hand victims out one at a time in exactly
// the order a full sort would produce.
type VictimPolicy interface {
	// Name identifies the policy in stats and benchmark output.
	Name() string
	// Key ranks a candidate: lower keys are cleaned first.
	Key(c PageInfo) (hi, lo uint64)
}

// LRUUpdate is the paper's policy (§5.2): clean the least recently
// updated page first, using the 64-epoch aging history. Ties (equal
// histories, common when many pages were updated in the same epochs)
// break toward the page that became dirty earliest, then by page number
// for determinism.
type LRUUpdate struct{}

// Name implements VictimPolicy.
func (LRUUpdate) Name() string { return "lru-update" }

// Key implements VictimPolicy.
func (LRUUpdate) Key(c PageInfo) (hi, lo uint64) { return c.History, c.DirtiedSeq }

// FIFO cleans pages in the order they became dirty, ignoring update
// recency. It is an ablation baseline: cheaper to maintain but blind to
// re-dirtying.
type FIFO struct{}

// Name implements VictimPolicy.
func (FIFO) Name() string { return "fifo" }

// Key implements VictimPolicy.
func (FIFO) Key(c PageInfo) (hi, lo uint64) { return c.DirtiedSeq, 0 }

// LFU cleans the page with the fewest updates in the history window,
// breaking ties toward the older last update. It is an ablation
// alternative that weights frequency over recency.
type LFU struct{}

// Name implements VictimPolicy.
func (LFU) Name() string { return "lfu" }

// Key implements VictimPolicy.
func (LFU) Key(c PageInfo) (hi, lo uint64) {
	return uint64(bits.OnesCount64(c.History)), c.History
}

// Random cleans dirty pages in a seeded pseudo-random order: candidates
// rank by a hash of (seed, page, admission sequence, history), so a
// page's rank says nothing about how recently it was updated and is
// redrawn whenever it re-enters the dirty set or an epoch moves its
// history word. It is the ablation floor: any useful recency signal must
// beat it.
type Random struct {
	seed uint64
}

// NewRandom returns a Random policy whose order is a deterministic
// function of seed.
func NewRandom(seed uint64) *Random { return &Random{seed: seed} }

// Name implements VictimPolicy.
func (*Random) Name() string { return "random" }

// Key implements VictimPolicy.
func (r *Random) Key(c PageInfo) (hi, lo uint64) { return r.priority(c), 0 }

// priority is the splitmix64 finaliser over the candidate.
func (r *Random) priority(c PageInfo) uint64 {
	x := r.seed + uint64(c.Page)*0x9e3779b97f4a7c15 + c.DirtiedSeq*0xd1342543de82ef95 + c.History*0xa0761d6478bd642f
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// MRUUpdate cleans the MOST recently updated page first — a deliberately
// adversarial policy that quantifies how much victim choice matters (it
// keeps evicting the hot set).
type MRUUpdate struct{}

// Name implements VictimPolicy.
func (MRUUpdate) Name() string { return "mru-update" }

// Key implements VictimPolicy.
func (MRUUpdate) Key(c PageInfo) (hi, lo uint64) { return ^c.History, 0 }
