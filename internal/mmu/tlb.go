package mmu

// tlbEntry is a cached translation. writeProtected mirrors the PTE
// permission at fill time; dirtyPropagated records whether a write through
// this cached translation has already set the PTE dirty bit — once true,
// further writes do not touch the PTE, which is exactly how stale dirty
// bits arise when the TLB is not flushed between epoch scans.
type tlbEntry struct {
	// gen is the flush generation the translation was filled in; it is
	// cached while gen equals the TLB's current generation (0 never does).
	gen             uint64
	writeProtected  bool
	dirtyPropagated bool
}

// tlb is a fixed-capacity translation cache with FIFO replacement. FIFO is
// chosen over random eviction to keep the simulation deterministic; the
// experiments are insensitive to the replacement policy because the
// effects that matter are full flushes and single-page invalidations.
//
// Translations live in a page-indexed table stamped with the flush
// generation, so a lookup is an array read and a full flush is one
// increment however large the capacity or the cached set: the epoch scan
// flushes every millisecond of virtual time, and the §6.3 ablation runs
// with a million-entry TLB.
type tlb struct {
	capacity int
	slots    []tlbEntry // indexed by page
	gen      uint64     // current flush generation, never 0
	live     int        // translations cached in this generation
	fifo     []PageID   // insertion order ring
	head     int        // index of oldest live slot in fifo
}

// lookup returns the cached translation for page, or nil on a miss.
func (t *tlb) lookup(page PageID) *tlbEntry {
	if e := &t.slots[page]; e.gen == t.gen {
		return e
	}
	return nil
}

// fill inserts a translation for page, evicting the oldest entry if the
// TLB is full, and returns the new entry.
func (t *tlb) fill(page PageID, writeProtected bool) *tlbEntry {
	if e := t.lookup(page); e != nil {
		e.writeProtected = writeProtected
		return e
	}
	for t.live >= t.capacity {
		t.evictOldest()
	}
	e := &t.slots[page]
	*e = tlbEntry{gen: t.gen, writeProtected: writeProtected}
	t.live++
	t.fifo = append(t.fifo, page)
	return e
}

// evictOldest removes the oldest live translation. Slots whose pages were
// invalidated out of band are skipped.
func (t *tlb) evictOldest() {
	for t.head < len(t.fifo) {
		page := t.fifo[t.head]
		t.head++
		if t.invalidate(page) {
			break
		}
	}
	t.compact()
}

// compact reclaims the consumed prefix of the fifo ring once it dominates
// the slice, keeping memory bounded without per-op copying.
func (t *tlb) compact() {
	if t.head > len(t.fifo)/2 && t.head > 64 {
		t.fifo = append(t.fifo[:0], t.fifo[t.head:]...)
		t.head = 0
	}
}

// invalidate removes page's translation, reporting whether one was cached.
func (t *tlb) invalidate(page PageID) bool {
	e := t.lookup(page)
	if e == nil {
		return false
	}
	e.gen = 0
	t.live--
	return true
}

// flush removes every cached translation.
func (t *tlb) flush() {
	t.gen++
	t.live = 0
	t.fifo = t.fifo[:0]
	t.head = 0
}

// size returns the number of live translations (for tests).
func (t *tlb) size() int { return t.live }
