package ssd

import (
	"bytes"
	"errors"
	"testing"

	"viyojit/internal/mmu"
)

// scriptInjector replays a fixed list of decisions, then none.
type scriptInjector struct {
	decisions []FaultDecision
	i         int
}

func (s *scriptInjector) WriteFault(mmu.PageID, []byte) FaultDecision {
	if s.i >= len(s.decisions) {
		return FaultDecision{}
	}
	d := s.decisions[s.i]
	s.i++
	return d
}

func TestVerifyPageIntactAndCorrupt(t *testing.T) {
	d, _, _ := newTestSSD(Config{})
	data := page(0x5A, 4096)
	if _, err := d.WritePageSync(7, data); err != nil {
		t.Fatalf("write: %v", err)
	}
	if err := d.VerifyPage(7); err != nil {
		t.Fatalf("intact page failed verification: %v", err)
	}
	if err := d.VerifyPage(99); err != nil {
		t.Fatalf("never-written page failed verification: %v", err)
	}
	if !d.CorruptPage(7, 1234, 0x01) {
		t.Fatal("CorruptPage reported nothing to corrupt")
	}
	if err := d.VerifyPage(7); !errors.Is(err, ErrCorruptPage) {
		t.Fatalf("corrupt page verified clean (err = %v)", err)
	}
	if _, known := d.CorruptedSince(7); !known {
		t.Fatal("oracle lost the corruption time")
	}
	// A full rewrite re-cleans the page: checksum re-acked, oracle cleared.
	if _, err := d.WritePageSync(7, data); err != nil {
		t.Fatalf("rewrite: %v", err)
	}
	if err := d.VerifyPage(7); err != nil {
		t.Fatalf("rewritten page failed verification: %v", err)
	}
	if _, known := d.CorruptedSince(7); known {
		t.Fatal("oracle still marks a rewritten page corrupt")
	}
	st := d.Stats()
	if st.VerifyFailures == 0 || st.RotEvents != 1 {
		t.Fatalf("stats did not record the detection: %+v", st)
	}
}

// TestWriteAsyncSnapshotsBuffer is the aliasing regression test: the
// device must capture the caller's bytes at submission, not at
// completion — a caller reusing its buffer while the IO is in flight
// must not change what lands durably (or what the checksum covers).
func TestWriteAsyncSnapshotsBuffer(t *testing.T) {
	d, c, q := newTestSSD(Config{})
	buf := page(0xAA, 4096)
	want := append([]byte(nil), buf...)
	d.WritePageAsync(3, buf, nil)
	for i := range buf {
		buf[i] = 0xEE // caller reuses the buffer mid-flight
	}
	q.Drain(c)
	got, ok := d.Durable(3)
	if !ok || !bytes.Equal(got, want) {
		t.Fatal("durable contents follow the caller's buffer: submission snapshot missing")
	}
	if err := d.VerifyPage(3); err != nil {
		t.Fatalf("page failed verification after buffer reuse: %v", err)
	}
}

func TestLostWriteDetected(t *testing.T) {
	d, c, q := newTestSSD(Config{})
	d.SetFaultInjector(&scriptInjector{decisions: []FaultDecision{{Fault: FaultLost}}})

	// A fully lost first write: the store never sees the page, but the
	// device acked it — only the checksum claim records that it existed.
	d.WritePageAsync(5, page(0x11, 4096), nil)
	q.Drain(c)
	if _, ok := d.Durable(5); ok {
		t.Fatal("lost write landed in the store")
	}
	if err := d.VerifyPage(5); !errors.Is(err, ErrCorruptPage) {
		t.Fatalf("lost write not detected (err = %v)", err)
	}
	found := false
	for _, p := range d.DurablePageList() {
		if p == 5 {
			found = true
		}
	}
	if !found {
		t.Fatal("lost page absent from DurablePageList: restore would silently skip it")
	}

	// A lost overwrite: old bytes stay, checksum moved on.
	if _, err := d.WritePageSync(6, page(0x22, 4096)); err != nil {
		t.Fatalf("seed write: %v", err)
	}
	d.SetFaultInjector(&scriptInjector{decisions: []FaultDecision{{Fault: FaultLost}}})
	d.WritePageAsync(6, page(0x33, 4096), nil)
	q.Drain(c)
	got, _ := d.Durable(6)
	if !bytes.Equal(got, page(0x22, 4096)) {
		t.Fatal("lost overwrite mutated the store")
	}
	if err := d.VerifyPage(6); !errors.Is(err, ErrCorruptPage) {
		t.Fatalf("stale page passed verification after a lost overwrite (err = %v)", err)
	}
	if d.Stats().LostWrites != 2 {
		t.Fatalf("LostWrites = %d, want 2", d.Stats().LostWrites)
	}
}

func TestMisdirectedWriteDetected(t *testing.T) {
	d, c, q := newTestSSD(Config{})
	for p := mmu.PageID(1); p <= 2; p++ {
		if _, err := d.WritePageSync(p, page(byte(p), 4096)); err != nil {
			t.Fatalf("seed write %d: %v", p, err)
		}
	}
	d.SetFaultInjector(&scriptInjector{decisions: []FaultDecision{{Fault: FaultMisdirected}}})
	d.WritePageAsync(1, page(0x77, 4096), nil)
	q.Drain(c)
	// Intended page: checksum advanced, bytes did not.
	if err := d.VerifyPage(1); !errors.Is(err, ErrCorruptPage) {
		t.Fatalf("misdirected write's intended page passed verification (err = %v)", err)
	}
	// Victim page (the only other durable page): bytes overwritten under
	// its old checksum.
	if got, _ := d.Durable(2); !bytes.Equal(got, page(0x77, 4096)) {
		t.Fatal("misdirected write did not land on the victim page")
	}
	if err := d.VerifyPage(2); !errors.Is(err, ErrCorruptPage) {
		t.Fatalf("misdirected write's victim page passed verification (err = %v)", err)
	}
	if d.Stats().Misdirected != 1 {
		t.Fatalf("Misdirected = %d, want 1", d.Stats().Misdirected)
	}
}

func TestRotDecisionDetected(t *testing.T) {
	d, c, q := newTestSSD(Config{})
	for p := mmu.PageID(0); p < 4; p++ {
		if _, err := d.WritePageSync(p, page(0x40+byte(p), 4096)); err != nil {
			t.Fatalf("seed write %d: %v", p, err)
		}
	}
	d.SetFaultInjector(&scriptInjector{decisions: []FaultDecision{{Rot: true, RotSeed: 12345}}})
	d.WritePageAsync(0, page(0x99, 4096), nil)
	q.Drain(c)
	oracle := d.CorruptOracle()
	if len(oracle) != 1 {
		t.Fatalf("rot corrupted %d pages, want 1", len(oracle))
	}
	if err := d.VerifyPage(oracle[0]); !errors.Is(err, ErrCorruptPage) {
		t.Fatalf("rotted page %d passed verification (err = %v)", oracle[0], err)
	}
}

// FuzzVerifyPage: any single-byte XOR of a durable page's contents must
// be caught by verification (a CRC is linear, and an 8-bit burst is
// inside CRC32C's 32-bit burst guarantee: a nonzero delta in one byte
// always changes the checksum), and a zero pattern — no actual mutation
// — must keep the page clean.
func FuzzVerifyPage(f *testing.F) {
	f.Add([]byte("seed content"), uint32(0), byte(0x01))
	f.Add([]byte{}, uint32(4095), byte(0xFF))
	f.Add([]byte{0xAB, 0xCD}, uint32(70000), byte(0x80))
	f.Add([]byte("x"), uint32(17), byte(0))
	// The corners a narrower sum could have lost: each bit of the first
	// and last byte of an all-zero and an all-ones page, and the bytes
	// either side of a 64-byte line.
	for bit := 0; bit < 8; bit++ {
		f.Add([]byte{}, uint32(0), byte(1)<<bit)
		f.Add(page(0xFF, 4096), uint32(4095), byte(1)<<bit)
	}
	f.Add(page(0xFF, 4096), uint32(63), byte(0xFF))
	f.Add(page(0xFF, 4096), uint32(64), byte(0xFF))
	f.Fuzz(func(t *testing.T, content []byte, off uint32, pattern byte) {
		d, _, _ := newTestSSD(Config{})
		data := make([]byte, 4096)
		copy(data, content)
		if _, err := d.WritePageSync(9, data); err != nil {
			t.Fatalf("write: %v", err)
		}
		if err := d.VerifyPage(9); err != nil {
			t.Fatalf("intact page failed verification: %v", err)
		}
		mutated := d.CorruptPage(9, int(off), pattern)
		if mutated != (pattern != 0) {
			t.Fatalf("CorruptPage mutated=%v with pattern %#x", mutated, pattern)
		}
		err := d.VerifyPage(9)
		if mutated && !errors.Is(err, ErrCorruptPage) {
			t.Fatalf("corruption at off %d pattern %#x escaped verification (err = %v)", off, pattern, err)
		}
		if !mutated && err != nil {
			t.Fatalf("unmutated page failed verification: %v", err)
		}
	})
}

// benchPages is the durable set the verification benchmarks run over:
// about what powerfail_cycle restores, and at 24 MiB larger than a
// last-level cache, so a check that read the page would read cold memory.
const benchPages = 6000

// seededDevice returns a device holding benchPages distinct pages.
func seededDevice() *SSD {
	d, _, _ := newTestSSD(Config{})
	img := randomPage(1, 4096)
	for p := range benchPages {
		img[0], img[1] = byte(p), byte(p>>8)
		d.SeedDurable(mmu.PageID(p), img)
	}
	return d
}

// BenchmarkVerifyPage is the scrubber's check, one page per op, walking
// the durable set.
func BenchmarkVerifyPage(b *testing.B) {
	d := seededDevice()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := d.VerifyPage(mmu.PageID(i % benchPages)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAdoptVerified is a reboot's device hand-over, one page per op:
// every benchPages ops a new device object adopts the whole set.
func BenchmarkAdoptVerified(b *testing.B) {
	src := seededDevice()
	var d *SSD
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := i % benchPages
		if p == 0 {
			d, _, _ = newTestSSD(Config{})
		}
		if err := d.AdoptVerified(src, mmu.PageID(p)); err != nil {
			b.Fatal(err)
		}
	}
}
