package core

import "viyojit/internal/mmu"

// members is the dense state of a dirty set: member i is page Pages[i],
// with State[i]. Epoch counts ticks.
type members struct {
	Pages []mmu.PageID
	State []member
	Epoch uint64
}

// member is what victim selection reads of one member besides its page.
// Aging is lazy: at epoch members.Epoch the history is
// Hist >> (Epoch - Aged), 0 once 64 epochs have passed, so a tick touches
// only the members it marks.
type member struct {
	Seq  uint64 // admission sequence number
	Hist uint64 // history word as of epoch Aged
	Aged uint64
	// Gate below the selector's generation makes the member a candidate
	// of its collection (see setInFlight).
	Gate uint64
}

// victimBatch is how many of the best remaining candidates one scan of
// the members keeps: about what an epoch on a loaded set cleans.
const victimBatch = 16

// inFlight is the gate bit of a member whose clean is on the wire.
const inFlight = 1 << 63

// victimSelector hands out the candidates of a collection victim-first,
// one at a time, paying for the order only as it is used. A collection
// copies nothing: its candidates are the members admitted up to a cutoff
// sequence number that were not in flight when it was taken. pop scans the
// members, keys each candidate once, and keeps the victimBatch least keys
// above the last one handed out in a bounded max-heap; it scans again
// only when that batch runs out. Pops come out exactly in the order of a
// full sort of the candidates by (key, page)
// (TestSelectorMatchesSortedOrder), provided no key changes within a
// collection: histories change only at an epoch tick, and the owner
// collects again at every tick.
type victimSelector struct {
	policy VictimPolicy
	// cutoff is the collection's last admission; gen numbers it.
	cutoff, gen uint64
	// batch[next:] are the next victims, ascending; last is the one most
	// recently handed out, if handed.
	batch  []victim
	next   int
	last   victim
	handed bool
}

// victim is a candidate with its key.
type victim struct {
	hi, lo uint64
	PageInfo
}

// before reports whether v orders before the candidate keyed (hi, lo) on
// page: by key, then page.
func (v *victim) before(hi, lo uint64, page mmu.PageID) bool {
	if v.hi != hi {
		return v.hi < hi
	}
	if v.lo != lo {
		return v.lo < lo
	}
	return v.Page < page
}

// newVictimSelector returns a selector ordering by policy.
func newVictimSelector(policy VictimPolicy) *victimSelector {
	return &victimSelector{policy: policy, gen: 1, batch: make([]victim, 0, victimBatch)}
}

// recycle returns v as newVictimSelector(policy) would build it, on v's
// batch: what a reboot takes from the manager it retires.
func (v *victimSelector) recycle(policy VictimPolicy) *victimSelector {
	*v = victimSelector{policy: policy, gen: 1, batch: v.batch[:0]}
	return v
}

// collect starts a new collection: the members admitted at or before
// cutoff that are not in flight now.
func (s *victimSelector) collect(cutoff uint64) {
	s.cutoff = cutoff
	s.gen++
	s.batch, s.next, s.handed = s.batch[:0], 0, false
}

// pop returns the best candidate of the collection not yet handed out, or
// false when none is left. The caller checks that it is still eligible (it
// may have been cleaned, or dirtied again, since it was scanned).
func (s *victimSelector) pop(ms *members) (PageInfo, bool) {
	if s.next == len(s.batch) {
		s.fill(ms)
		if len(s.batch) == 0 {
			return PageInfo{}, false
		}
	}
	s.last, s.handed = s.batch[s.next], true
	s.next++
	return s.last.PageInfo, true
}

// fill scans the members for the victimBatch least candidate keys above
// the last one handed out, and leaves them in batch in ascending order.
// The heap starts full of keys above any candidate's, so a candidate
// enters it exactly when it orders before the heap's greatest key.
func (s *victimSelector) fill(ms *members) {
	state := ms.State[:len(ms.Pages)]
	cutoff, gen, epoch, handed, last := s.cutoff, s.gen, ms.Epoch, s.handed, s.last
	lru := s.policy == VictimPolicy(LRUUpdate{}) // called directly, its key inlines
	h, found := s.batch[:victimBatch], 0
	for i := range h {
		h[i] = victim{^uint64(0), ^uint64(0), PageInfo{Page: ^mmu.PageID(0)}}
	}
	for i, page := range ms.Pages {
		m := &state[i]
		if m.Seq > cutoff || m.Gate >= gen {
			continue
		}
		c := PageInfo{Page: page, History: m.Hist >> (epoch - m.Aged), DirtiedSeq: m.Seq}
		var hi, lo uint64
		if lru {
			hi, lo = LRUUpdate{}.Key(c)
		} else {
			hi, lo = s.policy.Key(c)
		}
		if (!handed || last.before(hi, lo, page)) && !h[0].before(hi, lo, page) {
			replaceTop(h, victim{hi, lo, c})
			found++
		}
	}
	for end := len(h) - 1; end > 0; end-- {
		top := h[0]
		replaceTop(h[:end], h[end])
		h[end] = top
	}
	s.batch, s.next = h[:min(found, victimBatch)], 0
}

// replaceTop replaces the greatest key of the max-heap h with v and
// restores the heap, moving each displaced entry once.
func replaceTop(h []victim, v victim) {
	i := 0
	for {
		big := 2*i + 1
		if big >= len(h) {
			break
		}
		if r := big + 1; r < len(h) && h[big].before(h[r].hi, h[r].lo, h[r].Page) {
			big = r
		}
		if !v.before(h[big].hi, h[big].lo, h[big].Page) {
			break
		}
		h[i] = h[big]
		i = big
	}
	h[i] = v
}

// setInFlight moves a member's gate as its clean starts (on), or ends with
// the member still in the set, so that a member in flight at the
// collection stays out of it. While in flight, the gate's low bits are
// below gen exactly when the member was in flight at the collection; it
// then ends at gen. A member that went in flight after the collection is
// a candidate again, and the batch chosen without it is dropped.
func (s *victimSelector) setInFlight(gate *uint64, seq uint64, on bool) {
	low := *gate &^ inFlight
	switch {
	case on && low == s.gen: // left the collection once already
		*gate = inFlight | (s.gen - 1)
	case on:
		*gate = inFlight | s.gen
	case low < s.gen:
		*gate = s.gen
	default:
		*gate = 0
		if seq <= s.cutoff {
			s.batch, s.next = s.batch[:0], 0
		}
	}
}
