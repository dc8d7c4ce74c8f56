package ssd

// End-to-end data integrity for the durable store. The device keeps a
// per-page checksum alongside every page it believes it has durably
// written — the model of a host-side (ZFS-parent-style) checksum table:
// the checksum records what the host *intended* and was *acked*, while
// the store records what the device actually holds. The two diverge
// under the silent fault classes hybrid DRAM/NVM lifetime studies show
// dominate long-horizon failures:
//
//   - at-rest bit rot: stored bytes mutate, checksum unchanged;
//   - lost writes: the device acks but never persists — checksum advances
//     to the new contents, the store keeps the old;
//   - misdirected writes: the data lands on the wrong page — the intended
//     page's checksum advances without its data, the victim's data
//     changes without its checksum;
//   - torn programs: a prefix lands; the host saw an error, so the
//     checksum stays at the previous ack and mismatches the mixed image.
//
// In every case VerifyPage observes checksum ≠ contents, so silent
// corruption is always *detectable* even when it is not preventable.
// The check reads no page bytes: verify compares two words, the sum held
// for the stored image, which every path that installs an image takes once
// (putData's callers), and the acked sum. That relies on stored buffers
// being immutable: putData replaces them and the corruption hooks install
// a flipped copy, so a held sum stays its image's checksum.
// The scrubber (internal/scrub) walks the durable set calling VerifyPage
// and repairs from the authoritative NV-DRAM copy; recovery
// (internal/recovery) verifies on restore so a power cycle never
// silently reloads corrupt bytes.
//
// The checksum is CRC32C (Castagnoli), the polynomial ext4, btrfs, iSCSI
// and RocksDB put on 4 KiB blocks and the one SSE4.2 / ARMv8 compute in
// hardware. What it guarantees on a 4 KiB page: Hamming distance ≥ 4
// (every 1-, 2- and 3-bit error is caught, so every bit of rot and every
// single-byte CorruptPage pattern), and every error burst no longer than
// 32 bits. What is probabilistic: an image unrelated to the acked one — a
// torn mix over a previous image, a lost write's stale page, a
// misdirected write's foreign page — passes with probability 2⁻³².
//
// The recorded sum is the host's claim about what it was acked for, so it
// must outlive the device *object*: a rebooted system adopts each page
// together with its recorded sum (AdoptVerified), never a sum recomputed
// from whatever bytes the store holds — recomputing would turn a
// divergent page into a "verified" one.

import (
	"bytes"
	"errors"
	"fmt"
	"hash/crc32"
	"slices"

	"viyojit/internal/mmu"
	"viyojit/internal/sim"
)

// ErrCorruptPage is returned by VerifyPage and AdoptVerified when a page's
// durable contents do not match its recorded checksum: the bytes in the
// store are not the bytes the host was acked for.
var ErrCorruptPage = errors.New("ssd: page contents do not match checksum (silent corruption)")

// crcTab is the checksum polynomial table: CRC32C, deterministic across
// runs and platforms (the hardware and table paths agree bit for bit),
// which the seeded sweeps require.
var crcTab = crc32.MakeTable(crc32.Castagnoli)

// checksum is the CRC32C of data.
func checksum(data []byte) uint32 { return crc32.Checksum(data, crcTab) }

// noteCorrupt records that page's durable copy no longer matches what the
// host was acked for — a simulation-side oracle keyed by the time the
// first still-unrepaired corruption landed. It backs mean-time-to-detect
// measurement and the crash sweep's "no undetected escapes" assertion;
// host-side code must never consult it to make recovery decisions (the
// checksums are the host's only legitimate signal).
func (d *SSD) noteCorrupt(page mmu.PageID) {
	if d.corruptAt == nil {
		d.corruptAt = make(map[mmu.PageID]sim.Time)
	}
	if _, ok := d.corruptAt[page]; !ok {
		d.corruptAt[page] = d.clock.Now()
	}
}

// clearCorrupt drops the oracle entry after a successful full-page write
// replaced the corrupt image.
func (d *SSD) clearCorrupt(page mmu.PageID) {
	delete(d.corruptAt, page)
}

// CorruptedSince reports when the page's oldest still-unrepaired injected
// corruption landed. It is measurement oracle, not host state: use it for
// MTTD accounting and sweep assertions only.
func (d *SSD) CorruptedSince(page mmu.PageID) (sim.Time, bool) {
	d.mustLive()
	at, ok := d.corruptAt[page]
	return at, ok
}

// CorruptOracle returns, sorted, every page whose durable copy currently
// diverges from its last acked contents because of injected corruption.
// Like CorruptedSince it exists for sweeps and stats, not recovery.
func (d *SSD) CorruptOracle() []mmu.PageID {
	d.mustLive()
	out := make([]mmu.PageID, 0, len(d.corruptAt))
	for p := range d.corruptAt {
		out = append(out, p)
	}
	slices.Sort(out)
	return out
}

// DurablePageList returns, sorted, every page the host or device has any
// durable claim about: pages with stored contents plus pages whose
// checksum was acked but whose data was lost entirely. Verified restore
// and full scrub passes walk this list so a fully lost write (checksum
// recorded, nothing in the store) is still visited and detected.
func (d *SSD) DurablePageList() []mmu.PageID {
	d.mustLive()
	return d.claimed.appendFrom(make([]mmu.PageID, 0, d.claimed.n), 0, d.claimed.n)
}

// DurablePagesFrom appends to buf, ascending, the first max pages of
// DurablePageList numbered from or above, and returns the extended
// slice: the paced scrubber's successor query. Its cost follows the
// pages returned, not the size of the durable set, and it allocates
// only if buf lacks the capacity.
func (d *SSD) DurablePagesFrom(from mmu.PageID, max int, buf []mmu.PageID) []mmu.PageID {
	d.mustLive()
	return d.claimed.appendFrom(buf, from, max)
}

// DurableChecksum returns the recorded checksum for page — the
// fingerprint of the contents the host was last acked for.
func (d *SSD) DurableChecksum(page mmu.PageID) (uint64, bool) {
	s := d.slotAt(page)
	return uint64(s.acked), s.hasSum
}

// VerifyPage checks a page's durable contents against its recorded
// checksum without charging device time (the scrubber models its read
// bandwidth by pacing, and restore paths charge reads explicitly). It
// returns nil for an intact page or a page with no durable claim, and an
// error wrapping ErrCorruptPage otherwise.
func (d *SSD) VerifyPage(page mmu.PageID) error {
	_, err := d.verify(page)
	return err
}

// verify is VerifyPage that also hands back what it looked at: the page's
// slot, whose data is nil for a page with no durable claim. It compares
// the sum held for the stored image with the acked sum.
func (d *SSD) verify(page mmu.PageID) (slot, error) {
	d.stats.VerifyChecks++
	d.st.verifyChecks.Inc()
	s := d.slotAt(page)
	var err error
	switch {
	case s.data == nil && !s.hasSum:
		return s, nil
	case s.data == nil:
		err = fmt.Errorf("%w: page %d acked but absent from the store (lost write)", ErrCorruptPage, page)
	case !s.hasSum:
		err = fmt.Errorf("%w: page %d present with no acked checksum (misdirected or torn write)", ErrCorruptPage, page)
	case s.held != s.acked:
		err = fmt.Errorf("%w: page %d", ErrCorruptPage, page)
	}
	if err != nil {
		d.stats.VerifyFailures++
		d.st.verifyFailures.Inc()
	}
	return s, err
}

// AdoptVerified is the device half of a power-cycle restore: d, the
// device object a rebooted system constructed, stands for the same
// physical SSD as src, whose contents survived. The page is verified once
// on src (held sum against acked sum); if intact, d takes the stored bytes
// with both sums, so nothing is recomputed and a divergent page cannot be
// laundered into a verified one. The two objects share the buffer, as
// they share the flash: stored bytes are only ever replaced (putData),
// never written in place — the at-rest corruption hooks flip a private
// copy (flipStored) — so neither object can change what the other holds,
// and the held sum stays the shared bytes' checksum on both. The page is
// marked lent on both objects, so neither returns the shared buffer to its
// free list when a later write displaces it: the other may still hold it,
// and so may the NV-DRAM region the restore shares it with (the charged
// restore read, a ReadStream over d, hands the region this very buffer;
// SharePage). It comes back when the objects are retired and nothing kept
// reads it (Retire). No IO is modelled here. A
// page that fails verification returns the error wrapping ErrCorruptPage
// and is not adopted. d may be src itself — an in-place restore — in
// which case verification is all there is to do.
func (d *SSD) AdoptVerified(src *SSD, page mmu.PageID) error {
	s, err := src.verify(page)
	if err != nil || s.data == nil || d == src {
		return err
	}
	if len(s.data) != d.cfg.PageSize {
		panic(fmt.Sprintf("ssd: adopting a page of %d bytes, want page size %d", len(s.data), d.cfg.PageSize))
	}
	d.slotFor(mmu.PageID(len(src.pages) - 1)) // size d's table to src's at once
	d.recycle(d.putData(page, s.data, s.held))
	d.pages[page].lent = true
	src.pages[page].lent = true
	d.putSum(page, s.acked)
	return nil
}

// zeroes is what allZero compares against, a page at a time.
var zeroes [4096]byte

// allZero reports whether b holds only zero bytes, at memory-compare
// speed.
func allZero(b []byte) bool {
	for len(b) > len(zeroes) {
		if !bytes.Equal(b[:len(zeroes)], zeroes[:]) {
			return false
		}
		b = b[len(zeroes):]
	}
	return bytes.Equal(b, zeroes[:len(b)])
}

// CheckRestorable is the per-page durability invariant: live — a page of
// NV-DRAM — must be what a restore from this device would reproduce,
// byte-equal to the stored copy, or all zero when nothing is stored for
// the page. No time is charged. The error names the page and which half
// failed; callers prefix their own context.
func (d *SSD) CheckRestorable(page mmu.PageID, live []byte) error {
	durable := d.slotAt(page).data
	switch {
	case durable != nil && !bytes.Equal(live, durable):
		return fmt.Errorf("page %d diverges from durable copy", page)
	case durable == nil && !allZero(live):
		return fmt.Errorf("page %d has data but no durable copy", page)
	}
	return nil
}

// CorruptPage XORs pattern into the stored byte at off — the direct
// at-rest corruption hook tests, CLIs, and fuzzers use (the fault
// injector's RotProb flows through the same mutation). The checksum is
// deliberately left alone: that is what makes the damage silent. It
// reports whether the page had stored contents to corrupt.
func (d *SSD) CorruptPage(page mmu.PageID, off int, pattern byte) bool {
	data := d.slotAt(page).data
	if len(data) == 0 || pattern == 0 {
		return false
	}
	d.flipStored(page, off%len(data), pattern)
	return true
}

// flipStored XORs mask into byte i of page's stored contents: the one
// mutation behind both at-rest corruption hooks. It flips a private copy
// and installs that, because the stored buffer may be shared with another
// device object (AdoptVerified) and damage injected into one must not
// reach the other. The displaced buffer is not recycled here: damage is
// not a write, so a Durable slice of the page stays as it was. If another
// device object stores it, that object's retirement may recycle it
// (Retire); otherwise it is left to the collector. The copy's own sum no
// longer matches the acked one.
func (d *SSD) flipStored(page mmu.PageID, i int, mask byte) {
	data := d.copyBuffer(d.pages[page].data)
	data[i] ^= mask
	d.putData(page, data, checksum(data))
	d.stats.RotEvents++
	d.noteCorrupt(page)
}

// applyRot flips one deterministically chosen bit in one at-rest durable
// page — the FaultDecision.Rot path. seed selects both the victim page
// (by rank among the stored pages in ascending order, so the choice is
// stable for a given store) and the bit. No-op on an empty store.
func (d *SSD) applyRot(seed uint64) {
	n := uint64(d.stored.n)
	if n == 0 {
		return
	}
	victim := d.stored.kth(int(seed % n))
	bit := (seed / n) % uint64(d.cfg.PageSize*8)
	d.flipStored(victim, int(bit/8), 1<<(bit%8))
}

// misdirectTarget picks the page a misdirected write actually lands on:
// a deterministic other member of the durable set, by rank among the
// stored pages other than intended. If the store has no other page to
// hit, the write degrades to a fully lost write (the data lands
// nowhere), which the caller models by returning (0, false).
func (d *SSD) misdirectTarget(intended mmu.PageID, seed uint64) (mmu.PageID, bool) {
	others := d.stored.n
	skip := d.stored.has(intended)
	if skip {
		others--
	}
	if others == 0 {
		return 0, false
	}
	k := int(seed % uint64(others))
	victim := d.stored.kth(k)
	if skip && victim >= intended {
		// intended ranks at or below k among all stored pages, so the
		// k-th of the others is one further on.
		victim = d.stored.kth(k + 1)
	}
	return victim, true
}
