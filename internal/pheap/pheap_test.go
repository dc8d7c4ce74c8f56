package pheap

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"testing"
	"testing/quick"

	"viyojit/internal/sim"
)

// memStore is a plain in-memory Store for allocator-only tests (the
// integration with NV-DRAM mappings is exercised in the kvstore and
// harness tests).
type memStore struct {
	data []byte
}

func newMemStore(size int) *memStore { return &memStore{data: make([]byte, size)} }

func (m *memStore) Size() int64 { return int64(len(m.data)) }

func (m *memStore) ReadAt(p []byte, off int64) error {
	if off < 0 || off+int64(len(p)) > int64(len(m.data)) {
		return errors.New("memStore: out of range")
	}
	copy(p, m.data[off:])
	return nil
}

func (m *memStore) WriteAt(p []byte, off int64) error {
	if off < 0 || off+int64(len(p)) > int64(len(m.data)) {
		return errors.New("memStore: out of range")
	}
	copy(m.data[off:], p)
	return nil
}

func TestFormatAndOpen(t *testing.T) {
	s := newMemStore(1 << 16)
	if _, err := Format(s); err != nil {
		t.Fatal(err)
	}
	h, err := Open(s)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.Alloc(100); err != nil {
		t.Fatal(err)
	}
}

func TestOpenRejectsUnformatted(t *testing.T) {
	if _, err := Open(newMemStore(1 << 16)); err == nil {
		t.Fatal("Open of unformatted store succeeded")
	}
}

func TestFormatRejectsTinyStore(t *testing.T) {
	if _, err := Format(newMemStore(32)); err == nil {
		t.Fatal("Format of tiny store succeeded")
	}
}

func TestAllocWriteReadRoundTrip(t *testing.T) {
	h, _ := Format(newMemStore(1 << 16))
	p, err := h.Alloc(100)
	if err != nil {
		t.Fatal(err)
	}
	data := []byte("key=value persistent record")
	if err := h.Write(p, 0, data); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(data))
	if err := h.Read(p, 0, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatalf("read %q", got)
	}
}

func TestAllocSizeClasses(t *testing.T) {
	h, _ := Format(newMemStore(1 << 20))
	cases := []struct{ n, wantClassSize int }{
		{1, 32}, {32, 32}, {33, 64}, {100, 128}, {4096, 4096}, {4097, 8192}, {65536, 65536},
	}
	for _, tc := range cases {
		p, err := h.Alloc(tc.n)
		if err != nil {
			t.Fatalf("Alloc(%d): %v", tc.n, err)
		}
		size, err := h.UsableSize(p)
		if err != nil {
			t.Fatal(err)
		}
		if size != tc.wantClassSize {
			t.Errorf("Alloc(%d) usable size = %d, want %d", tc.n, size, tc.wantClassSize)
		}
	}
}

func TestAllocRejectsBadSizes(t *testing.T) {
	h, _ := Format(newMemStore(1 << 16))
	if _, err := h.Alloc(0); err == nil {
		t.Fatal("Alloc(0) succeeded")
	}
	if _, err := h.Alloc(-1); err == nil {
		t.Fatal("Alloc(-1) succeeded")
	}
	if _, err := h.Alloc(MaxAlloc + 1); err == nil {
		t.Fatal("oversized alloc succeeded")
	}
}

func TestFreeAndReuse(t *testing.T) {
	h, _ := Format(newMemStore(1 << 16))
	p1, _ := h.Alloc(100)
	if err := h.Free(p1); err != nil {
		t.Fatal(err)
	}
	p2, _ := h.Alloc(100)
	if p2 != p1 {
		t.Fatalf("freed block not reused: got %d, want %d", p2, p1)
	}
}

func TestFreeZeroPtrIsNoop(t *testing.T) {
	h, _ := Format(newMemStore(1 << 16))
	if err := h.Free(0); err != nil {
		t.Fatal(err)
	}
}

func TestDoubleFreeDetected(t *testing.T) {
	h, _ := Format(newMemStore(1 << 16))
	p, _ := h.Alloc(64)
	if err := h.Free(p); err != nil {
		t.Fatal(err)
	}
	if err := h.Free(p); err == nil {
		t.Fatal("double free succeeded")
	}
}

func TestBadPointerRejected(t *testing.T) {
	h, _ := Format(newMemStore(1 << 16))
	if err := h.Free(3); err == nil {
		t.Fatal("free of sub-header pointer succeeded")
	}
	if _, err := h.UsableSize(Ptr(headerSize + blockHeaderSize + 99999)); err == nil {
		t.Fatal("UsableSize of wild pointer succeeded")
	}
}

func TestWriteBoundsChecked(t *testing.T) {
	h, _ := Format(newMemStore(1 << 16))
	p, _ := h.Alloc(32)
	if err := h.Write(p, 0, make([]byte, 33)); err == nil {
		t.Fatal("overflowing write succeeded")
	}
	if err := h.Write(p, -1, []byte{1}); err == nil {
		t.Fatal("negative-offset write succeeded")
	}
	if err := h.Read(p, 30, make([]byte, 10)); err == nil {
		t.Fatal("overflowing read succeeded")
	}
}

func TestOutOfSpace(t *testing.T) {
	h, _ := Format(newMemStore(1 << 12)) // 4 KiB total
	var last error
	for i := 0; i < 1000; i++ {
		if _, err := h.Alloc(256); err != nil {
			last = err
			break
		}
	}
	if last == nil {
		t.Fatal("allocator never ran out of a 4 KiB store")
	}
}

func TestStats(t *testing.T) {
	h, _ := Format(newMemStore(1 << 16))
	p1, _ := h.Alloc(32)
	p2, _ := h.Alloc(32)
	if err := h.Free(p1); err != nil {
		t.Fatal(err)
	}
	if err := h.Free(p2); err != nil {
		t.Fatal(err)
	}
	s, err := h.stats()
	if err != nil {
		t.Fatal(err)
	}
	if s.FreeBlocks[0] != 2 {
		t.Fatalf("free blocks in class 0 = %d, want 2", s.FreeBlocks[0])
	}
	if s.BumpOffset <= headerSize {
		t.Fatalf("bump offset = %d", s.BumpOffset)
	}
}

func TestReopenPreservesData(t *testing.T) {
	s := newMemStore(1 << 16)
	h1, _ := Format(s)
	p, _ := h1.Alloc(64)
	if err := h1.Write(p, 0, []byte("survives reopen")); err != nil {
		t.Fatal(err)
	}
	h2, err := Open(s)
	if err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 15)
	if err := h2.Read(p, 0, got); err != nil {
		t.Fatal(err)
	}
	if string(got) != "survives reopen" {
		t.Fatalf("reopened read = %q", got)
	}
	// Allocations continue from the recorded bump pointer, not over data.
	p2, err := h2.Alloc(64)
	if err != nil {
		t.Fatal(err)
	}
	if p2 == p {
		t.Fatal("reopened heap reallocated a live block")
	}
}

// Property: an arbitrary interleaving of allocs, writes, and frees never
// lets two live blocks overlap and never corrupts stored data.
func TestNoOverlapProperty(t *testing.T) {
	type live struct {
		p    Ptr
		data []byte
	}
	f := func(seed uint64, steps uint8) bool {
		h, err := Format(newMemStore(1 << 18))
		if err != nil {
			return false
		}
		rng := sim.NewRNG(seed)
		var blocks []live
		for i := 0; i < int(steps)%120+1; i++ {
			if len(blocks) > 0 && rng.Intn(3) == 0 {
				// Free a random block.
				j := rng.Intn(len(blocks))
				if h.Free(blocks[j].p) != nil {
					return false
				}
				blocks = append(blocks[:j], blocks[j+1:]...)
				continue
			}
			n := rng.Intn(600) + 1
			p, err := h.Alloc(n)
			if err != nil {
				continue // heap full is fine
			}
			data := make([]byte, n)
			for k := range data {
				data[k] = byte(rng.Uint64())
			}
			if h.Write(p, 0, data) != nil {
				return false
			}
			blocks = append(blocks, live{p: p, data: data})
		}
		// Every live block still holds exactly its data.
		for _, b := range blocks {
			got := make([]byte, len(b.data))
			if h.Read(b.p, 0, got) != nil || !bytes.Equal(got, b.data) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestClassHelpers(t *testing.T) {
	if classSize(0) != 32 {
		t.Fatalf("classSize(0) = %d", classSize(0))
	}
	for c := 1; c < numClasses; c++ {
		if classSize(c) != 2*classSize(c-1) {
			t.Fatalf("class sizes not doubling at %d", c)
		}
	}
}

func ExampleHeap() {
	h, _ := Format(newMemStore(1 << 16))
	p, _ := h.Alloc(64)
	_ = h.Write(p, 0, []byte("hello"))
	buf := make([]byte, 5)
	_ = h.Read(p, 0, buf)
	fmt.Println(string(buf))
	// Output: hello
}

// Block reads and writes go through the heap's own word buffer for the
// header check: the only bytes in flight are the caller's.
func TestReadWriteAllocations(t *testing.T) {
	h, err := Format(newMemStore(1 << 16))
	if err != nil {
		t.Fatal(err)
	}
	p, err := h.Alloc(100)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 100)
	if n := mallocs(200, func() {
		if err := h.Write(p, 0, buf); err != nil {
			t.Fatal(err)
		}
		if err := h.Read(p, 0, buf); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("200 Write+Read pairs allocate %d times, want 0", n)
	}
	if n := mallocs(200, func() {
		q, err := h.Alloc(100)
		if err != nil {
			t.Fatal(err)
		}
		if err := h.Free(q); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("200 Alloc+Free pairs allocate %d times, want 0", n)
	}
}

// heapStats describes heap occupancy.
type heapStats struct {
	// BumpOffset is the high-water mark of fresh allocation.
	BumpOffset int64
	// HeapSize is the store size.
	HeapSize int64
	// FreeBlocks counts blocks on the per-class free lists.
	FreeBlocks [numClasses]int
}

// stats walks the free lists and returns occupancy numbers.
func (h *Heap) stats() (heapStats, error) {
	var s heapStats
	bump, err := h.readU64(offBump)
	if err != nil {
		return s, err
	}
	s.BumpOffset = int64(bump)
	s.HeapSize = h.store.Size()
	for c := 0; c < numClasses; c++ {
		head, err := h.readU64(offFree + int64(8*c))
		if err != nil {
			return s, err
		}
		for head != 0 {
			s.FreeBlocks[c]++
			next, err := h.readU64(int64(head))
			if err != nil {
				return s, err
			}
			head = next
		}
	}
	return s, nil
}

// mallocs runs f runs times to reach steady state, then runs times more,
// and returns what the second pass allocated in total:
// testing.AllocsPerRun's integer average would hide up to runs-1
// allocations.
func mallocs(runs int, f func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	for i := 0; i < runs; i++ {
		f()
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs
}
