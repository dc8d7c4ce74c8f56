package nvdram

import (
	"bytes"
	"testing"
	"testing/quick"

	"viyojit/internal/mmu"
	"viyojit/internal/sim"
)

func newTestRegion(t *testing.T, size int64, pageSize int) (*Region, *sim.Clock) {
	t.Helper()
	c := sim.NewClock()
	r, err := New(c, Config{Size: size, PageSize: pageSize})
	if err != nil {
		t.Fatal(err)
	}
	return r, c
}

func TestNewValidation(t *testing.T) {
	c := sim.NewClock()
	cases := []Config{
		{Size: 0},
		{Size: -4096},
		{Size: 5000, PageSize: 4096}, // not a multiple
		{Size: 4096, PageSize: -1},
	}
	for _, cfg := range cases {
		if _, err := New(c, cfg); err == nil {
			t.Errorf("New(%+v) succeeded, want error", cfg)
		}
	}
}

func TestWriteReadRoundTrip(t *testing.T) {
	r, _ := newTestRegion(t, 16*4096, 4096)
	data := []byte("hello, battery-backed world")
	if err := r.WriteAt(data, 100); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(data))
	if err := r.ReadAt(got, 100); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatalf("read back %q, want %q", got, data)
	}
}

func TestWriteSpanningPages(t *testing.T) {
	r, _ := newTestRegion(t, 4*4096, 4096)
	data := make([]byte, 4096+100)
	for i := range data {
		data[i] = byte(i % 251)
	}
	off := int64(4096 - 50) // starts 50 bytes before a page boundary
	if err := r.WriteAt(data, off); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(data))
	if err := r.ReadAt(got, off); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("spanning write corrupted data")
	}
	// Pages 0, 1, 2 were touched by the write.
	pt := r.PageTable()
	for p := mmu.PageID(0); p <= 2; p++ {
		if !pt.IsDirty(p) {
			t.Errorf("page %d not dirty after spanning write", p)
		}
	}
	if pt.IsDirty(3) {
		t.Error("page 3 dirty without being written")
	}
}

func TestWriteFaultsOnProtectedPage(t *testing.T) {
	r, _ := newTestRegion(t, 4*4096, 4096)
	pt := r.PageTable()
	pt.Protect(1)
	faults := 0
	pt.SetFaultHandler(func(p mmu.PageID) {
		faults++
		pt.Unprotect(p)
	})
	if err := r.WriteAt([]byte{1, 2, 3}, 4096+10); err != nil {
		t.Fatal(err)
	}
	if faults != 1 {
		t.Fatalf("faults = %d, want 1", faults)
	}
}

func TestWriteErrorOnUnresolvedFault(t *testing.T) {
	r, _ := newTestRegion(t, 4*4096, 4096)
	r.PageTable().Protect(0)
	if err := r.WriteAt([]byte{1}, 0); err == nil {
		t.Fatal("write to protected page without handler succeeded")
	}
}

func TestOutOfRangeAccess(t *testing.T) {
	r, _ := newTestRegion(t, 2*4096, 4096)
	if err := r.WriteAt([]byte{1}, 2*4096); err == nil {
		t.Fatal("write past end succeeded")
	}
	if err := r.ReadAt(make([]byte, 10), -1); err == nil {
		t.Fatal("read at negative offset succeeded")
	}
	if err := r.WriteAt(make([]byte, 4097), 4096); err == nil {
		t.Fatal("write overflowing region succeeded")
	}
}

func TestReadsNeverDirty(t *testing.T) {
	r, _ := newTestRegion(t, 4*4096, 4096)
	buf := make([]byte, 4096)
	if err := r.ReadAt(buf, 0); err != nil {
		t.Fatal(err)
	}
	if r.PageTable().IsDirty(0) {
		t.Fatal("read dirtied a page")
	}
}

func TestCopyPageMatchesContents(t *testing.T) {
	r, c := newTestRegion(t, 4*4096, 4096)
	payload := bytes.Repeat([]byte{0xAB}, 4096)
	if err := r.WriteAt(payload, 4096); err != nil {
		t.Fatal(err)
	}
	got := bytes.Repeat([]byte{0x11}, 4096) // stale bytes, all overwritten
	t0 := c.Now()
	r.CopyPage(1, got)
	if !bytes.Equal(got, payload) {
		t.Fatal("CopyPage does not match written contents")
	}
	if c.Now().Sub(t0) != 400*sim.Nanosecond {
		t.Fatalf("CopyPage charged %v, want one page's copy (400ns)", c.Now().Sub(t0))
	}
	// Mutating the copy must not affect the region.
	got[0] = 0xFF
	if r.RawPage(1)[0] != 0xAB {
		t.Fatal("CopyPage aliased region memory")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("CopyPage into a short buffer did not panic")
		}
	}()
	r.CopyPage(1, got[:100])
}

func TestAccessChargesTime(t *testing.T) {
	r, c := newTestRegion(t, 4*4096, 4096)
	t0 := c.Now()
	if err := r.WriteAt(make([]byte, 4096), 0); err != nil {
		t.Fatal(err)
	}
	writeCost := c.Now().Sub(t0)
	if writeCost <= 0 {
		t.Fatal("full-page write charged no time")
	}
	t1 := c.Now()
	if err := r.WriteAt(make([]byte, 8), 0); err != nil {
		t.Fatal(err)
	}
	smallCost := c.Now().Sub(t1)
	if smallCost >= writeCost {
		t.Fatalf("8-byte write (%v) cost at least as much as 4 KiB write (%v)", smallCost, writeCost)
	}
}

func TestPageOf(t *testing.T) {
	r, _ := newTestRegion(t, 8*4096, 4096)
	cases := []struct {
		off  int64
		want mmu.PageID
	}{{0, 0}, {4095, 0}, {4096, 1}, {5 * 4096, 5}}
	for _, tc := range cases {
		if got := r.PageOf(tc.off); got != tc.want {
			t.Errorf("PageOf(%d) = %d, want %d", tc.off, got, tc.want)
		}
	}
}

// Property: any sequence of in-range writes followed by reads returns what
// was written last at every byte.
func TestWriteReadProperty(t *testing.T) {
	r, _ := newTestRegion(t, 16*4096, 4096)
	shadow := make([]byte, 16*4096)
	f := func(seed uint64, nOps uint8) bool {
		rng := sim.NewRNG(seed)
		for i := 0; i < int(nOps)%40+1; i++ {
			off := rng.Int63n(int64(len(shadow)))
			n := rng.Intn(9000)
			if off+int64(n) > int64(len(shadow)) {
				n = int(int64(len(shadow)) - off)
			}
			buf := make([]byte, n)
			for j := range buf {
				buf[j] = byte(rng.Uint64())
			}
			if err := r.WriteAt(buf, off); err != nil {
				return false
			}
			copy(shadow[off:], buf)
		}
		got := make([]byte, len(shadow))
		if err := r.ReadAt(got, 0); err != nil {
			return false
		}
		return bytes.Equal(got, shadow)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
