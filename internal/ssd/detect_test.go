package ssd

import (
	"bytes"
	"errors"
	"testing"

	"viyojit/internal/mmu"
	"viyojit/internal/sim"
)

// randomPage is a seeded, incompressible page image: detection must not
// lean on structure in the contents.
func randomPage(seed uint64, size int) []byte {
	rng := sim.NewRNG(seed)
	p := make([]byte, size)
	for i := range p {
		p[i] = byte(rng.Uint64())
	}
	return p
}

// TestVerifyPageDetectsEveryModelledFault is the detection-strength bar
// for the 32-bit page checksum, exhaustive on one 4 KiB image where the
// fault space allows: every single-bit flip, every single-byte XOR
// pattern at 64 offsets, every torn prefix on a 64-byte boundary over a
// different previous image, a lost write and a misdirected write. Zero
// may pass verification.
func TestVerifyPageDetectsEveryModelledFault(t *testing.T) {
	const size = 4096
	d, c, q := newTestSSD(Config{})
	image := randomPage(1, size)
	if _, err := d.WritePageSync(7, image); err != nil {
		t.Fatalf("write: %v", err)
	}
	checked, undetected := 0, 0
	check := func(page mmu.PageID, what string, args ...any) {
		t.Helper()
		checked++
		if err := d.VerifyPage(page); !errors.Is(err, ErrCorruptPage) {
			undetected++
			t.Errorf(what+" passed verification (err = %v)", append(args, err)...)
		}
	}
	// CorruptPage XORs, so applying a pattern twice restores the image.
	flip := func(off int, pattern byte, what string) {
		d.CorruptPage(7, off, pattern)
		check(7, what+" at byte %d pattern %#02x", off, pattern)
		d.CorruptPage(7, off, pattern)
	}
	for bit := 0; bit < size*8; bit++ {
		flip(bit/8, 1<<(bit%8), "bit flip")
	}
	for i := 0; i < 64; i++ {
		off := (i*size/64 + i) % size // one per 64-byte line, every alignment
		for pattern := 1; pattern < 256; pattern++ {
			flip(off, byte(pattern), "byte XOR")
		}
	}
	if err := d.VerifyPage(7); err != nil {
		t.Fatalf("image did not return to intact after the flips: %v", err)
	}

	// Torn programs: a prefix of the new image lands over the previous
	// one and the host saw an error, so the recorded sum stays at the
	// previous ack. A full-length "prefix" is the whole new image under
	// the old sum.
	next := randomPage(2, size)
	for n := 64; n <= size; n += 64 {
		torn := bytes.Clone(image)
		copy(torn[:n], next[:n])
		d.putData(7, torn)
		check(7, "torn prefix of %d bytes", n)
	}
	d.putData(7, bytes.Clone(image))

	// Lost overwrite: acked, sum advanced, old bytes stay.
	d.SetFaultInjector(&scriptInjector{decisions: []FaultDecision{{Fault: FaultLost}}})
	d.WritePageAsync(7, next, nil)
	q.Drain(c)
	check(7, "lost overwrite")
	// Misdirected write: intended page's sum advances without its data,
	// the victim's data changes under its old sum.
	if _, err := d.WritePageSync(7, image); err != nil {
		t.Fatalf("rewrite: %v", err)
	}
	if _, err := d.WritePageSync(8, randomPage(3, size)); err != nil {
		t.Fatalf("victim write: %v", err)
	}
	d.SetFaultInjector(&scriptInjector{decisions: []FaultDecision{{Fault: FaultMisdirected}}})
	d.WritePageAsync(7, next, nil)
	q.Drain(c)
	check(7, "misdirected write's intended page")
	check(8, "misdirected write's victim page")

	t.Logf("%d corrupt images checked, %d undetected", checked, undetected)
	if undetected != 0 {
		t.Fatalf("%d corrupt images passed verification", undetected)
	}
}

// TestAdoptVerifiedCarriesRecordedSum: the reboot hand-over keeps the
// sum the host was acked for, takes a private copy of the bytes, and
// refuses a page that fails verification instead of laundering it.
func TestAdoptVerifiedCarriesRecordedSum(t *testing.T) {
	src, _, _ := newTestSSD(Config{})
	for p := mmu.PageID(1); p <= 3; p++ {
		if _, err := src.WritePageSync(p, randomPage(uint64(p), 4096)); err != nil {
			t.Fatalf("write %d: %v", p, err)
		}
	}
	src.CorruptPage(2, 100, 0x10)

	dst, clock, _ := newTestSSD(Config{})
	for _, p := range []mmu.PageID{1, 3} {
		if err := dst.AdoptVerified(src, p); err != nil {
			t.Fatalf("adopt intact page %d: %v", p, err)
		}
		got, _ := dst.Durable(p)
		want, _ := src.Durable(p)
		if !bytes.Equal(got, want) || &got[0] == &want[0] {
			t.Fatalf("page %d: adopted bytes differ from or alias the source", p)
		}
		gs, _ := dst.DurableChecksum(p)
		ws, _ := src.DurableChecksum(p)
		if gs != ws {
			t.Fatalf("page %d: adopted sum %#x, recorded %#x", p, gs, ws)
		}
	}
	if err := dst.AdoptVerified(src, 2); !errors.Is(err, ErrCorruptPage) {
		t.Fatalf("corrupt page adopted (err = %v)", err)
	}
	if _, ok := dst.Durable(2); ok {
		t.Fatal("page that failed verification reached the new device")
	}
	if _, ok := dst.DurableChecksum(2); ok {
		t.Fatal("page that failed verification left a checksum claim on the new device")
	}
	if err := dst.AdoptVerified(src, 99); err != nil {
		t.Fatalf("page with no durable claim: %v", err)
	}
	if clock.Now() != 0 || dst.Stats().ReadsCompleted != 0 {
		t.Fatal("adoption modelled an IO")
	}
	if got := src.Stats().VerifyChecks; got != 4 {
		t.Fatalf("source verified %d times, want once per page (4)", got)
	}
	// In place: nothing to carry, the verdict is all there is.
	if err := src.AdoptVerified(src, 1); err != nil {
		t.Fatalf("in-place adopt: %v", err)
	}
	if err := src.AdoptVerified(src, 2); !errors.Is(err, ErrCorruptPage) {
		t.Fatalf("in-place adopt of a corrupt page (err = %v)", err)
	}
}

// TestReadPageIntoChargesLikeReadPage: same clock charge and counters as
// ReadPage, bytes in the caller's buffer, nothing for an absent page.
func TestReadPageIntoChargesLikeReadPage(t *testing.T) {
	a, ca, _ := newTestSSD(Config{})
	b, cb, _ := newTestSSD(Config{})
	img := randomPage(9, 4096)
	a.SeedDurable(3, img)
	b.SeedDurable(3, img)
	buf := make([]byte, 4096)
	if !b.ReadPageInto(3, buf) || !bytes.Equal(buf, a.ReadPage(3)) {
		t.Fatal("ReadPageInto did not deliver the durable bytes")
	}
	absent := page(0xEE, 4096)
	if b.ReadPageInto(4, absent) || !bytes.Equal(absent, page(0xEE, 4096)) {
		t.Fatal("ReadPageInto of an absent page reported or wrote contents")
	}
	a.ReadPage(4)
	if ca.Now() != cb.Now() || a.Stats() != b.Stats() {
		t.Fatalf("charges differ: clocks %v vs %v, stats %+v vs %+v", ca.Now(), cb.Now(), a.Stats(), b.Stats())
	}
}

// TestCheckRestorable covers the shared durability predicate, including
// a page size that is not the zero buffer's.
func TestCheckRestorable(t *testing.T) {
	for _, size := range []int{64, 4096, 3 * 4096} {
		d, _, _ := newTestSSD(Config{PageSize: size})
		img := randomPage(uint64(size), size)
		d.SeedDurable(1, img)
		if err := d.CheckRestorable(1, img); err != nil {
			t.Fatalf("size %d: matching page: %v", size, err)
		}
		other := bytes.Clone(img)
		other[size-1] ^= 1
		if d.CheckRestorable(1, other) == nil {
			t.Fatalf("size %d: divergent page accepted", size)
		}
		zero := make([]byte, size)
		if err := d.CheckRestorable(2, zero); err != nil {
			t.Fatalf("size %d: never-written page: %v", size, err)
		}
		for _, off := range []int{0, size / 2, size - 1} {
			zero[off] = 1
			if d.CheckRestorable(2, zero) == nil {
				t.Fatalf("size %d: data at byte %d with no durable copy accepted", size, off)
			}
			zero[off] = 0
		}
	}
}
