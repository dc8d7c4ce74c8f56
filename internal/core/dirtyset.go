package core

import "viyojit/internal/mmu"

// dirtyPage is the tracked state of one dirty page.
type dirtyPage struct {
	// seq is the admission sequence number, unique per admission and never
	// 0 for a page in the set. It is the entry's identity: a slot is reused
	// when its page is cleaned and dirtied again, so anything that outlives
	// a virtual-time wait (an IO completion, a scheduled retry, a blocked
	// fault) remembers (page, seq) and looks the entry up again with live.
	seq uint64
	pos int // index of the page in dirtySet.Pages
	// attempts counts consecutive failed cleans of this page; it drives
	// the exponential retry backoff and resets on success.
	attempts int
	cleaning bool // SSD write in flight (page re-protected in SW mode)
	// rewritten marks a hardware-assist page written again after its
	// clean's snapshot was taken: the completing IO must not mark it
	// clean.
	rewritten bool
}

// dirtySet is the set of dirty pages: a page-indexed table of entries
// plus the members' dense state. Invariant: entries[p].seq != 0 ⇔ p is in
// Pages, at Pages[entries[p].pos], beside its State. Lookup, insertion and
// removal are O(1) and allocate nothing; Pages is what an epoch scan
// hands to the MMU, and the victim selector reads both in place.
// members.Epoch counts ticks.
type dirtySet struct {
	entries []dirtyPage
	members
	// parked[p] is the history of clean page p as of epoch parkedAt[p]:
	// written when p leaves the set, read back when it is admitted again.
	parked, parkedAt []uint64
}

func newDirtySet(numPages int) dirtySet {
	return dirtySet{entries: make([]dirtyPage, numPages), parked: make([]uint64, numPages), parkedAt: make([]uint64, numPages)}
}

// recycle returns a set on s's tables that reads as a new one — no
// entries, no parked histories, epoch 0 — with the capacity Pages and
// State grew to, and leaves s without tables. parkedAt is read only
// beside a parked history, and a zero history reads zero at any age.
func (s *dirtySet) recycle() dirtySet {
	clear(s.entries)
	clear(s.parked)
	r := *s
	r.Pages, r.State, r.Epoch = s.Pages[:0], s.State[:0], 0
	*s = dirtySet{}
	return r
}

// len returns the number of dirty pages.
func (s *dirtySet) len() int { return len(s.Pages) }

// list returns the dirty pages in no particular order. The slice is the
// set's own: it is valid until the next add or remove and must not be
// modified.
func (s *dirtySet) list() []mmu.PageID { return s.Pages }

// get returns page's entry, or nil if the page is not dirty. The pointer
// is valid until the page is removed.
func (s *dirtySet) get(page mmu.PageID) *dirtyPage {
	if e := &s.entries[page]; e.seq != 0 {
		return e
	}
	return nil
}

// live returns page's entry if it is still the admission numbered seq,
// or nil if that admission has since left the set (whether or not the
// page was dirtied again).
func (s *dirtySet) live(page mmu.PageID, seq uint64) *dirtyPage {
	if e := &s.entries[page]; e.seq == seq {
		return e
	}
	return nil
}

// add admits a page that is not in the set under a fresh sequence number,
// with its parked history.
func (s *dirtySet) add(page mmu.PageID, seq uint64) *dirtyPage {
	e := &s.entries[page]
	if e.seq != 0 || seq == 0 {
		panic("core: dirtySet.add of a page already in the set, or with sequence 0")
	}
	*e = dirtyPage{seq: seq, pos: len(s.Pages)}
	s.Pages = append(s.Pages, page)
	s.State = append(s.State, member{Seq: seq, Hist: s.parked[page], Aged: s.parkedAt[page]})
	return e
}

// remove drops a page that is in the set and parks its history; the last
// member takes its place.
func (s *dirtySet) remove(page mmu.PageID) {
	e := &s.entries[page]
	if e.seq == 0 {
		panic("core: dirtySet.remove of a page not in the set")
	}
	i, n := e.pos, len(s.Pages)-1
	s.parked[page], s.parkedAt[page] = s.State[i].Hist, s.State[i].Aged
	last := s.Pages[n]
	s.Pages[i], s.State[i] = last, s.State[n]
	s.entries[last].pos = i
	s.Pages, s.State = s.Pages[:n], s.State[:n]
	*e = dirtyPage{}
}

// tick starts the next epoch and marks the members at the given indices
// as updated in it; every other history ages where it is read.
func (s *dirtySet) tick(updated []int) {
	s.Epoch++
	for _, i := range updated {
		m := &s.State[i]
		m.Hist, m.Aged = m.Hist>>(s.Epoch-m.Aged)|1<<63, s.Epoch
	}
}
