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
	pos int // index of the page in dirtySet.pages
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
// plus a dense list of the member pages. Invariant: entries[p].seq != 0
// ⇔ p is in pages, at pages[entries[p].pos]. Lookup, insertion and
// removal are O(1) and allocate nothing; the list is what an epoch scan
// hands to the MMU. seqs[i] is the admission sequence number of pages[i],
// kept beside the list so the victim candidates of an epoch with no clean
// in flight are read in one sequential pass instead of one table lookup
// per page.
type dirtySet struct {
	entries []dirtyPage
	pages   []mmu.PageID
	seqs    []uint64
}

func newDirtySet(numPages int) dirtySet {
	return dirtySet{entries: make([]dirtyPage, numPages)}
}

// len returns the number of dirty pages.
func (s *dirtySet) len() int { return len(s.pages) }

// list returns the dirty pages in no particular order. The slice is the
// set's own: it is valid until the next add or remove and must not be
// modified.
func (s *dirtySet) list() []mmu.PageID { return s.pages }

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

// add admits a page that is not in the set under a fresh sequence number.
func (s *dirtySet) add(page mmu.PageID, seq uint64) *dirtyPage {
	e := &s.entries[page]
	if e.seq != 0 || seq == 0 {
		panic("core: dirtySet.add of a page already in the set, or with sequence 0")
	}
	*e = dirtyPage{seq: seq, pos: len(s.pages)}
	s.pages = append(s.pages, page)
	s.seqs = append(s.seqs, seq)
	return e
}

// remove drops a page that is in the set; the last page of the list
// takes its place.
func (s *dirtySet) remove(page mmu.PageID) {
	e := &s.entries[page]
	if e.seq == 0 {
		panic("core: dirtySet.remove of a page not in the set")
	}
	n := len(s.pages) - 1
	last := s.pages[n]
	s.pages[e.pos], s.seqs[e.pos] = last, s.seqs[n]
	s.entries[last].pos = e.pos
	s.pages, s.seqs = s.pages[:n], s.seqs[:n]
	*e = dirtyPage{}
}
