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
		d.putData(7, torn, checksum(torn))
		check(7, "torn prefix of %d bytes", n)
	}
	d.putData(7, bytes.Clone(image), checksum(image))

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
// bytes and the sum the host was acked for, and refuses a page that fails
// verification instead of laundering it.
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
		if !bytes.Equal(got, want) {
			t.Fatalf("page %d: adopted bytes differ from the source", p)
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

// TestSharedAdoptIsolatesCorruption: adoption shares the verified buffer
// between the two device objects, and both at-rest corruption hooks flip
// a private copy — damage injected into either object leaves the other's
// bytes and verdict intact.
func TestSharedAdoptIsolatesCorruption(t *testing.T) {
	hooks := map[string]func(*SSD){
		"CorruptPage": func(d *SSD) {
			if !d.CorruptPage(1, 100, 0x10) {
				t.Fatal("nothing to corrupt")
			}
		},
		// One stored page, so the seeded rot has only page 1 to hit.
		"applyRot": func(d *SSD) { d.applyRot(12345) },
	}
	for name, corrupt := range hooks {
		for _, victim := range []string{"survivor", "adopter"} {
			src, _, _ := newTestSSD(Config{})
			img := randomPage(7, 4096)
			if _, err := src.WritePageSync(1, img); err != nil {
				t.Fatal(err)
			}
			dst, _, _ := newTestSSD(Config{})
			if err := dst.AdoptVerified(src, 1); err != nil {
				t.Fatal(err)
			}
			got, _ := dst.Durable(1)
			want, _ := src.Durable(1)
			if &got[0] != &want[0] {
				t.Fatalf("%s: adoption copied the verified page", name)
			}
			hit, other := src, dst
			if victim == "adopter" {
				hit, other = dst, src
			}
			corrupt(hit)
			if err := hit.VerifyPage(1); !errors.Is(err, ErrCorruptPage) {
				t.Fatalf("%s on the %s went undetected (err = %v)", name, victim, err)
			}
			if _, ok := hit.CorruptedSince(1); !ok || hit.Stats().RotEvents != 1 {
				t.Fatalf("%s on the %s: oracle or counter missed it", name, victim)
			}
			if err := other.VerifyPage(1); err != nil {
				t.Fatalf("%s on the %s reached the other device: %v", name, victim, err)
			}
			if kept, _ := other.Durable(1); !bytes.Equal(kept, img) {
				t.Fatalf("%s on the %s changed the other device's bytes", name, victim)
			}
			if _, ok := other.CorruptedSince(1); ok || other.Stats().RotEvents != 0 {
				t.Fatalf("%s on the %s was booked against the other device", name, victim)
			}
		}
	}
}

// streamCost is the closed form a ReadStream is held to: nothing for an
// empty stream, else one command latency plus the per-page transfer.
func streamCost(cfg Config, pages int) sim.Duration {
	if pages == 0 {
		return 0
	}
	return cfg.PerIOLatency + sim.Duration(pages)*transferTime(cfg.PageSize, cfg.ReadBandwidth)
}

// TestReadStreamClosedForm: a stream of N stored pages charges
// PerIOLatency + N × PageSize / ReadBandwidth to the clock it was opened
// with — not the device's — hands out the stored buffer itself and marks
// its slot lent, counts one read per page, and neither charges, returns
// nor marks anything for a page with no stored contents.
func TestReadStreamClosedForm(t *testing.T) {
	for _, cfg := range []Config{{}, {ReadBandwidth: 2 << 20, PerIOLatency: 5 * sim.Microsecond}} {
		d, devClock, _ := newTestSSD(cfg)
		cfg = d.Config()
		stored := []mmu.PageID{0, 1, 5, 6, 40}
		for _, p := range stored {
			d.SeedDurable(p, randomPage(uint64(p), 4096))
		}
		clock := sim.NewClock()
		stream := d.OpenReadStream(clock)
		if img, ok := stream.SharePage(3); ok || img != nil || clock.Now() != 0 || d.pages[3].lent {
			t.Fatal("opening the stream charged time, or a page with no stored contents was reported, returned, marked or charged")
		}
		if _, ok := stream.SharePage(1000); ok || clock.Now() != 0 {
			t.Fatal("a page past the device's table was reported or charged")
		}
		for i, p := range stored {
			want, _ := d.Durable(p)
			if img, ok := stream.SharePage(p); !ok || &img[0] != &want[0] || len(img) != len(want) {
				t.Fatalf("page %d: the stream did not hand out the stored buffer", p)
			}
			if !d.pages[p].lent {
				t.Fatalf("page %d: shared but not lent, so a later write could recycle the buffer", p)
			}
			if got := sim.Duration(clock.Now()); got != streamCost(cfg, i+1) {
				t.Fatalf("after %d pages the stream has charged %v, closed form %v", i+1, got, streamCost(cfg, i+1))
			}
			stream.SharePage(2)
		}
		if devClock.Now() != 0 {
			t.Fatalf("the stream charged the device's clock %v, not the one it was opened with", devClock.Now())
		}
		st := d.Stats()
		if st.ReadsCompleted != uint64(len(stored)) || st.BytesRead != uint64(len(stored)*4096) {
			t.Fatalf("stream of %d pages counted %d reads, %d bytes", len(stored), st.ReadsCompleted, st.BytesRead)
		}
		// The same pages as random reads pay the command latency each.
		for _, p := range stored {
			d.ReadPage(p)
		}
		if random := sim.Duration(devClock.Now()); random != sim.Duration(len(stored))*streamCost(cfg, 1) {
			t.Fatalf("%d random reads charged %v, want %d × %v", len(stored), random, len(stored), streamCost(cfg, 1))
		}
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
