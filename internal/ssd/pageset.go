package ssd

import (
	"math/bits"

	"viyojit/internal/mmu"
)

// pageSet is a set of page numbers kept as a bitmap indexed by page. The
// device's page table answers "what does this page hold"; a pageSet
// answers the ordered questions — the next members above a page, the k-th
// member — without visiting every slot. Page numbers are dense (a
// region's pages count up from 0), so the bitmap is one bit per region
// page.
type pageSet struct {
	words []uint64
	n     int // members
}

// add inserts page; inserting a member again is a no-op.
func (s *pageSet) add(page mmu.PageID) {
	w := int(page >> 6)
	for w >= len(s.words) {
		// One word at a time: append's doubling keeps the growth
		// amortised, with no temporary slice.
		s.words = append(s.words, 0)
	}
	bit := uint64(1) << (page & 63)
	if s.words[w]&bit == 0 {
		s.words[w] |= bit
		s.n++
	}
}

// takeOver makes s, if it is empty and has no words yet, an empty set on
// old's words, cleared; old is empty afterwards either way.
func (s *pageSet) takeOver(old *pageSet) {
	if s.n == 0 && len(s.words) == 0 {
		clear(old.words)
		s.words = old.words
	}
	*old = pageSet{}
}

// has reports whether page is a member.
func (s *pageSet) has(page mmu.PageID) bool {
	w := int(page >> 6)
	return w < len(s.words) && s.words[w]&(1<<(page&63)) != 0
}

// appendFrom appends to dst, ascending, the first max members numbered
// from or above, and returns the extended slice. It allocates only if
// dst lacks the capacity.
func (s *pageSet) appendFrom(dst []mmu.PageID, from mmu.PageID, max int) []mmu.PageID {
	if from>>6 >= mmu.PageID(len(s.words)) {
		return dst
	}
	w := int(from >> 6)
	word := s.words[w] &^ (1<<(from&63) - 1)
	for ; max > 0; max-- {
		for word == 0 {
			if w++; w == len(s.words) {
				return dst
			}
			word = s.words[w]
		}
		dst = append(dst, mmu.PageID(w<<6+bits.TrailingZeros64(word)))
		word &= word - 1
	}
	return dst
}

// kth returns the member with k members below it (the k-th, counting
// from 0, in ascending order). k must be below n.
func (s *pageSet) kth(k int) mmu.PageID {
	for w, word := range s.words {
		if c := bits.OnesCount64(word); k >= c {
			k -= c
			continue
		}
		for ; k > 0; k-- {
			word &= word - 1
		}
		return mmu.PageID(w<<6 + bits.TrailingZeros64(word))
	}
	panic("ssd: pageSet.kth past the last member")
}
