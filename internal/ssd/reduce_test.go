package ssd

import (
	"bytes"
	"testing"

	"viyojit/internal/mmu"
	"viyojit/internal/sim"
)

func TestContentHash(t *testing.T) {
	if contentHash(nil) != contentHash([]byte{}) {
		t.Fatal("nil and empty slices hash differently")
	}
	a := bytes.Repeat([]byte{0xAB}, 4096)
	if contentHash(a) != contentHash(append([]byte(nil), a...)) {
		t.Fatal("equal contents hash differently")
	}
	b := append([]byte(nil), a...)
	b[4095] ^= 1 // tail byte, exercises the byte-wise remainder loop
	if contentHash(a) == contentHash(b) {
		t.Fatal("single-byte difference not reflected in hash")
	}
	c := append([]byte(nil), a...)
	c[0] ^= 1 // word-path byte
	if contentHash(a) == contentHash(c) {
		t.Fatal("leading-byte difference not reflected in hash")
	}
	// Odd lengths split between the word and tail loops.
	if contentHash(a[:13]) == contentHash(a[:12]) {
		t.Fatal("length not reflected in hash")
	}
}

func TestEstimateCompressedSizeExact(t *testing.T) {
	cases := []struct {
		name string
		data []byte
		want int
	}{
		{"empty input", nil, 0},
		{"single byte", []byte{7}, 1},                     // header would exceed input: capped
		{"short run below threshold", []byte{5, 5, 5}, 3}, // capped at input size
		{"run at threshold", []byte{5, 5, 5, 5}, 4},       // token+header still ≥ input: capped
		{"all zero page", make([]byte, 4096), 11},         // header + one token
		{"two runs", append(bytes.Repeat([]byte{1}, 100), bytes.Repeat([]byte{2}, 100)...), 14},
	}
	for _, c := range cases {
		if got := EstimateCompressedSize(c.data); got != c.want {
			t.Errorf("%s: size %d, want %d", c.name, got, c.want)
		}
	}
	// Incompressible data is capped at the input size.
	noisy := make([]byte, 256)
	for i := range noisy {
		noisy[i] = byte(i*7 + 3)
	}
	if got := EstimateCompressedSize(noisy); got != len(noisy) {
		t.Fatalf("incompressible data estimated at %d, want cap %d", got, len(noisy))
	}
}

func TestTransferBytesDedup(t *testing.T) {
	clock := sim.NewClock()
	d := New(clock, sim.NewQueue(), Config{Dedup: true})
	page := bytes.Repeat([]byte{0x5A}, int(d.cfg.PageSize))

	if got := d.transferBytes(page); got != len(page) {
		t.Fatalf("first write of content transferred %d bytes, want full %d", got, len(page))
	}
	if got := d.transferBytes(page); got != dedupRecordBytes {
		t.Fatalf("duplicate content transferred %d bytes, want %d (fingerprint record)", got, dedupRecordBytes)
	}
	st := d.ReductionStats()
	if st.DedupHits != 1 {
		t.Fatalf("DedupHits = %d, want 1", st.DedupHits)
	}
	if st.DedupBytesSaved != uint64(len(page)-dedupRecordBytes) {
		t.Fatalf("DedupBytesSaved = %d, want %d", st.DedupBytesSaved, len(page)-dedupRecordBytes)
	}
}

func TestTransferBytesCompression(t *testing.T) {
	clock := sim.NewClock()
	d := New(clock, sim.NewQueue(), Config{Compression: true})
	page := make([]byte, 4096) // all zero: maximally compressible

	if got := d.transferBytes(page); got != 11 {
		t.Fatalf("zero page transferred %d bytes, want 11", got)
	}
	st := d.ReductionStats()
	if st.CompressedWrites != 1 || st.CompressionSaved != 4096-11 {
		t.Fatalf("compression stats %+v, want 1 write saving %d", st, 4096-11)
	}

	// Incompressible pages transfer in full and are not counted.
	noisy := make([]byte, 4096)
	for i := range noisy {
		noisy[i] = byte(i*31 + 7)
	}
	if got := d.transferBytes(noisy); got != len(noisy) {
		t.Fatalf("incompressible page transferred %d bytes, want %d", got, len(noisy))
	}
	if st := d.ReductionStats(); st.CompressedWrites != 1 {
		t.Fatalf("incompressible page counted as compressed: %+v", st)
	}
}

func TestTransferBytesDisabled(t *testing.T) {
	clock := sim.NewClock()
	d := New(clock, sim.NewQueue(), Config{})
	page := make([]byte, 4096)
	if got := d.transferBytes(page); got != len(page) {
		t.Fatalf("reductions disabled but transfer = %d, want %d", got, len(page))
	}
	if got := d.transferBytes(page); got != len(page) {
		t.Fatalf("reductions disabled but repeat transfer = %d, want %d", got, len(page))
	}
	if st := d.ReductionStats(); st != (ReductionStats{}) {
		t.Fatalf("reduction stats %+v with reductions disabled", st)
	}
}

// TestDedupReducesChargedBandwidth: the reduction feeds the timing
// model — a duplicate page's write completes faster than the original's
// because only the fingerprint record crosses the bus.
func TestDedupReducesChargedBandwidth(t *testing.T) {
	clock := sim.NewClock()
	events := sim.NewQueue()
	d := New(clock, events, Config{Dedup: true})
	page := bytes.Repeat([]byte{0x11}, int(d.cfg.PageSize))

	first, err := d.WritePageSync(mmu.PageID(0), page)
	if err != nil {
		t.Fatal(err)
	}
	second, err := d.WritePageSync(mmu.PageID(1), page)
	if err != nil {
		t.Fatal(err)
	}
	if dupCost, fullCost := second.Sub(first), first.Sub(0); dupCost >= fullCost {
		t.Fatalf("duplicate write took %v, original %v; dedup saved nothing", dupCost, fullCost)
	}
	// BytesWritten counts logical page bytes (the wear model), not the
	// reduced bus transfer.
	if got := d.Stats().BytesWritten; got != uint64(2*len(page)) {
		t.Fatalf("BytesWritten = %d, want %d", got, 2*len(page))
	}
}
