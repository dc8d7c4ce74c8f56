package core

import "viyojit/internal/mmu"

// VictimSelector hands a set of candidates out victim-first, one at a
// time, paying for the order only as it is used. Collecting candidates
// (Reset, Add, AddAll) compares nothing and builds nothing — AddAll is two
// memmoves; the first Pop reads each candidate's history and builds a heap
// in O(n); every Pop is then O(log n). An epoch that cleans k of n
// candidates costs O(n + k log n), and one that cleans none costs no
// comparison at all.
//
// Because VictimPolicy.Compare is a total order on candidates with
// distinct pages, the sequence of Pops is exactly the sequence a full
// sort by Compare would give (TestSelectorMatchesSortedOrder).
//
// Histories are read when the heap is built, not when the candidate is
// added. The owner keeps that equivalent to reading them at Add time by
// collecting a new set at every epoch tick: a history only changes at a
// tick, so within an epoch it does not matter when it is read.
type VictimSelector struct {
	policy  VictimPolicy
	history func(mmu.PageID) uint64
	// pages[i], dirtied at seqs[i], are the candidates as collected; the
	// first Pop turns them into cands, the heap.
	pages  []mmu.PageID
	seqs   []uint64
	cands  []PageInfo
	heaped bool
}

// NewVictimSelector returns an empty selector ordering by policy. history
// returns a page's aging word, current as of the call.
func NewVictimSelector(policy VictimPolicy, history func(mmu.PageID) uint64) *VictimSelector {
	return &VictimSelector{policy: policy, history: history}
}

// Reset discards the remaining candidates.
func (s *VictimSelector) Reset() {
	s.pages, s.seqs, s.cands = s.pages[:0], s.seqs[:0], s.cands[:0]
	s.heaped = false
}

// Add adds a candidate: page, dirtied at sequence number seq. It must not
// be called between a Pop and the next Reset.
func (s *VictimSelector) Add(page mmu.PageID, seq uint64) {
	s.pages = append(s.pages, page)
	s.seqs = append(s.seqs, seq)
}

// AddAll adds pages[i], dirtied at seqs[i], for every i. The slices are
// copied: the caller's may change before the first Pop.
func (s *VictimSelector) AddAll(pages []mmu.PageID, seqs []uint64) {
	s.pages = append(s.pages, pages...)
	s.seqs = append(s.seqs, seqs[:len(pages)]...)
}

// Pop removes and returns the best remaining victim, or false when none
// is left. The caller checks that the candidate is still eligible (it
// may have been cleaned, or dirtied again, since it was added).
func (s *VictimSelector) Pop() (PageInfo, bool) {
	if !s.heaped {
		for i, page := range s.pages {
			s.cands = append(s.cands, PageInfo{Page: page, History: s.history(page), DirtiedSeq: s.seqs[i]})
		}
		for i := len(s.cands)/2 - 1; i >= 0; i-- {
			s.siftDown(i)
		}
		s.heaped = true
	}
	n := len(s.cands)
	if n == 0 {
		return PageInfo{}, false
	}
	top := s.cands[0]
	s.cands[0] = s.cands[n-1]
	s.cands = s.cands[:n-1]
	s.siftDown(0)
	return top, true
}

// siftDown restores the min-heap property below index i.
func (s *VictimSelector) siftDown(i int) {
	h := s.cands
	for {
		least := 2*i + 1
		if least >= len(h) {
			return
		}
		if r := least + 1; r < len(h) && s.policy.Compare(h[r], h[least]) < 0 {
			least = r
		}
		if s.policy.Compare(h[least], h[i]) >= 0 {
			return
		}
		h[i], h[least] = h[least], h[i]
		i = least
	}
}
