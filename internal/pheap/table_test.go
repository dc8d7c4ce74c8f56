package pheap

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"testing"

	"viyojit/internal/sim"
)

// checkTable fails unless every class-table entry equals the header word
// stored in front of its block. It is the only assertion in this file
// that looks at the table; every other one holds for a heap that reads
// each header back from the store.
func checkTable(t testing.TB, h *Heap, ms *memStore) {
	t.Helper()
	for p, hdr := range h.classes {
		if raw := binary.LittleEndian.Uint64(ms.data[p-blockHeaderSize:]); raw != hdr {
			t.Fatalf("class table holds %#x for block %d, the store %#x", hdr, p, raw)
		}
	}
}

// heapModel is what a heap must hold: every live block's bytes (as many
// as its class size), the freed blocks not yet reused, and how many
// blocks each class's free list threads.
type heapModel struct {
	live      map[Ptr][]byte
	ptrs      []Ptr       // the keys of live, to pick one by index
	freed     map[Ptr]int // block → class
	lastFreed Ptr         // the misuse target, while it stays freed
	free      [numClasses]int
}

func (m *heapModel) kill(p Ptr) {
	i := 0
	for m.ptrs[i] != p {
		i++
	}
	m.ptrs[i] = m.ptrs[len(m.ptrs)-1]
	m.ptrs = m.ptrs[:len(m.ptrs)-1]
	delete(m.live, p)
}

// driveCounts says which paths a script reached.
type driveCounts struct {
	steps, allocs, reused, outOfSpace, frees, rejected, reopens int
}

// driveHeap runs a heap over a fresh store of storeSize bytes through the
// operations script encodes — Alloc, Free, Write, Read, UsableSize,
// Stats, misuse that must be refused, and reopening — and checks the heap
// against a heapModel, and the class table against the store, after
// every step.
func driveHeap(t testing.TB, script []byte, storeSize int) driveCounts {
	t.Helper()
	next := func() int {
		if len(script) == 0 {
			return 0
		}
		b := script[0]
		script = script[1:]
		return int(b)
	}
	ms := newMemStore(storeSize)
	h, err := Format(ms)
	if err != nil {
		t.Fatal(err)
	}
	m := heapModel{live: map[Ptr][]byte{}, freed: map[Ptr]int{}}
	var n driveCounts
	fill := byte(1)
	payload := func(k int) []byte {
		buf := make([]byte, k)
		for i := range buf {
			buf[i] = fill
			fill = fill*31 + 7
		}
		return buf
	}
	pick := func() (Ptr, []byte, bool) {
		if len(m.ptrs) == 0 {
			return 0, nil, false
		}
		p := m.ptrs[(next()<<8|next())%len(m.ptrs)]
		return p, m.live[p], true
	}
	// span picks a byte range of a block of size bytes, one in four of
	// them reaching outside it.
	span := func(size int) (off, k int, inside bool) {
		off = next() * next() % (size + 1)
		k = next() * next() % (size - off + 1)
		switch next() % 8 {
		case 0:
			off = -1 - next()%8
		case 1:
			k = size - off + 1 + next()%8
		}
		return off, k, off >= 0 && off+k <= size
	}
	for step := 0; len(script) > 0; step++ {
		n.steps++
		switch op := next() % 10; op {
		case 0, 1: // Alloc, mostly record-sized, sometimes up to MaxAlloc
			size := 1 + (next()<<8|next())%600
			if next()%16 == 0 {
				size = 1 + (next()<<8|next())%MaxAlloc
			}
			c, _ := classFor(size)
			p, err := h.Alloc(size)
			if err != nil {
				if m.free[c] != 0 || !strings.Contains(err.Error(), "out of space") {
					t.Fatalf("step %d: Alloc(%d) = %v with %d free blocks of its class", step, size, err, m.free[c])
				}
				n.outOfSpace++
				break
			}
			n.allocs++
			if fc, ok := m.freed[p]; ok {
				if fc != c {
					t.Fatalf("step %d: Alloc(%d) reused block %d of class %d", step, size, p, fc)
				}
				delete(m.freed, p)
				m.free[c]--
				n.reused++
			} else if m.free[c] != 0 {
				t.Fatalf("step %d: Alloc(%d) took fresh space over %d free blocks of its class", step, size, m.free[c])
			}
			end := p + Ptr(classSize(c))
			for q, img := range m.live {
				if p-blockHeaderSize < q+Ptr(len(img)) && q-blockHeaderSize < end {
					t.Fatalf("step %d: block %d (class %d) overlaps live block %d", step, p, c, q)
				}
			}
			m.live[p] = bytes.Clone(ms.data[p:end])
			m.ptrs = append(m.ptrs, p)
		case 2: // Free
			p, img, ok := pick()
			if !ok {
				break
			}
			if err := h.Free(p); err != nil {
				t.Fatalf("step %d: Free(%d): %v", step, p, err)
			}
			c, _ := classFor(len(img))
			m.kill(p)
			m.freed[p] = c
			m.free[c]++
			n.frees++
		case 3, 4: // Write
			p, img, ok := pick()
			if !ok {
				break
			}
			off, k, inside := span(len(img))
			data := payload(max(k, 0))
			if err := h.Write(p, off, data); (err == nil) != inside {
				t.Fatalf("step %d: Write(%d, +%d, %d bytes) of a %d-byte block = %v", step, p, off, k, len(img), err)
			} else if inside {
				copy(img[off:], data)
			} else {
				n.rejected++
			}
		case 5, 6: // Read
			p, img, ok := pick()
			if !ok {
				break
			}
			off, k, inside := span(len(img))
			buf := make([]byte, max(k, 0))
			if err := h.Read(p, off, buf); (err == nil) != inside {
				t.Fatalf("step %d: Read(%d, +%d, %d bytes) of a %d-byte block = %v", step, p, off, k, len(img), err)
			} else if inside && !bytes.Equal(buf, img[off:off+k]) {
				t.Fatalf("step %d: Read(%d, +%d, %d bytes) differs from what was written", step, p, off, k)
			} else if !inside {
				n.rejected++
			}
		case 7: // UsableSize and Stats
			if p, img, ok := pick(); ok {
				if got, err := h.UsableSize(p); err != nil || got != len(img) {
					t.Fatalf("step %d: UsableSize(%d) = %d, %v; want %d", step, p, got, err, len(img))
				}
			}
			s, err := h.stats()
			if err != nil || s.FreeBlocks != m.free || s.HeapSize != int64(storeSize) {
				t.Fatalf("step %d: Stats = %+v, %v; want free lists %v over %d bytes", step, s, err, m.free, storeSize)
			}
			for q, img := range m.live {
				if int64(q)+int64(len(img)) > s.BumpOffset {
					t.Fatalf("step %d: live block %d ends past the bump offset %d", step, q, s.BumpOffset)
				}
			}
		case 8: // misuse: each must be refused and change nothing
			bad := m.lastFreed
			if _, ok := m.freed[bad]; !ok {
				bad = 0
			}
			base := headerSize + blockHeaderSize
			below := Ptr(1 + next()%(base-1))
			var err error
			switch sub := next() % 5; {
			case sub == 0 && bad != 0:
				err = h.Free(bad) // double free
			case sub == 1 && bad != 0:
				err = h.Read(bad, 0, make([]byte, 1))
			case sub == 2 && bad != 0:
				err = h.Write(bad, 0, []byte{1})
			case sub == 3:
				err = h.Free(below)
			default:
				_, err = h.UsableSize(below)
			}
			if err == nil {
				t.Fatalf("step %d: misuse (freed block %d, sub-base pointer %d) was accepted", step, bad, below)
			}
			n.rejected++
		case 9: // reboot: a new Heap over the same store, an empty table
			if next()%4 != 0 {
				break
			}
			if h, err = Open(ms); err != nil {
				t.Fatalf("step %d: Open: %v", step, err)
			}
			n.reopens++
		}
		checkTable(t, h, ms)
	}
	for p, img := range m.live {
		if !bytes.Equal(ms.data[p:int(p)+len(img)], img) {
			t.Fatalf("end: live block %d does not hold what was written", p)
		}
	}
	return n
}

// failingStore refuses a write to one offset.
type failingStore struct {
	memStore
	failAt int64
}

func (f *failingStore) WriteAt(p []byte, off int64) error {
	if off == f.failAt {
		return errors.New("failingStore: injected write error")
	}
	return f.memStore.WriteAt(p, off)
}

// TestClassTableMatchesHeaders: the class table is a copy of the headers
// in NV-DRAM, never a second opinion. A seeded script over every heap
// operation keeps it equal to the store at every step; a header corrupted
// before Open fails the first access exactly as a header read would; a
// header store that fails leaves the store's word in charge.
func TestClassTableMatchesHeaders(t *testing.T) {
	t.Run("script", func(t *testing.T) {
		rng := sim.NewRNG(25)
		script := make([]byte, 60000)
		for i := range script {
			script[i] = byte(rng.Uint64())
		}
		n := driveHeap(t, script, 2<<20)
		t.Logf("%+v", n)
		if n.steps < 5000 || n.reused == 0 || n.outOfSpace == 0 || n.rejected == 0 || n.reopens == 0 {
			t.Fatalf("script too tame: %+v", n)
		}
	})
	t.Run("corrupt header before Open", func(t *testing.T) {
		ms := newMemStore(1 << 16)
		h, _ := Format(ms)
		p, _ := h.Alloc(100)
		q, _ := h.Alloc(100)
		if err := h.Write(p, 0, []byte("record")); err != nil {
			t.Fatal(err)
		}
		bad := uint64(0x3F) | allocatedFlag
		binary.LittleEndian.PutUint64(ms.data[p-blockHeaderSize:], bad)
		binary.LittleEndian.PutUint64(ms.data[q-blockHeaderSize:], 2) // class 2, flag lost
		h2, err := Open(ms)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 2; i++ { // refused again: a bad header is not remembered
			want := fmt.Sprintf("pheap: corrupt block header %#x at %d", bad, p)
			if err := h2.Read(p, 0, make([]byte, 6)); err == nil || err.Error() != want {
				t.Fatalf("Read of a corrupt block, try %d: %v; want %q", i, err, want)
			}
		}
		want := fmt.Sprintf("pheap: UsableSize of free block at %d", q)
		if err := h2.Write(q, 0, []byte("x")); err == nil || err.Error() != want {
			t.Fatalf("Write to a block whose header lost its flag: %v; want %q", err, want)
		}
		checkTable(t, h2, ms)
	})
	t.Run("failed header store", func(t *testing.T) {
		fs := &failingStore{memStore: *newMemStore(1 << 16), failAt: -1}
		h, _ := Format(fs)
		p, _ := h.Alloc(100)
		fs.failAt = int64(p) - blockHeaderSize
		if err := h.Free(p); err == nil {
			t.Fatal("Free succeeded although its header store failed")
		}
		fs.failAt = -1
		// The header still reads allocated, so the block still is.
		if size, err := h.UsableSize(p); err != nil || size != 128 {
			t.Fatalf("UsableSize after a failed Free = %d, %v; want 128", size, err)
		}
		checkTable(t, h, &fs.memStore)
	})
	t.Run("footprint", func(t *testing.T) {
		// The benchmark's store: 11 468 records of a 16-byte key and a
		// 1 KiB value in a 32 MiB heap. Alloc allocates nothing but the
		// table (TestReadWriteAllocations), so everything allocated while
		// loading is the table, its discarded growth steps included.
		h, _ := Format(newMemStore(32 << 20))
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < 11468; i++ {
			if _, err := h.Alloc(24 + 16 + 1024); err != nil {
				t.Fatal(err)
			}
		}
		runtime.ReadMemStats(&after)
		got := after.TotalAlloc - before.TotalAlloc
		t.Logf("%d table entries: %d bytes allocated", len(h.classes), got)
		if len(h.classes) != 11468 || got >= 1<<20 {
			t.Fatalf("%d table entries took %d bytes, want 11468 under 1 MiB", len(h.classes), got)
		}
	})
}

func FuzzHeap(f *testing.F) {
	f.Add([]byte{0, 1, 0, 3, 0, 0, 4, 2, 2, 0, 0, 1, 1, 0, 5, 0, 0, 9, 9, 9, 8, 8, 0})
	f.Add([]byte{1, 255, 255, 0, 1, 255, 255, 0, 2, 0, 0, 8, 0, 0, 0, 1, 0, 7, 0, 8, 3, 4, 7})
	f.Add(bytes.Repeat([]byte{0, 7, 3, 2, 9, 1, 4, 5, 6, 8, 200, 13}, 40))
	f.Fuzz(func(t *testing.T, script []byte) {
		if len(script) > 4096 {
			script = script[:4096]
		}
		driveHeap(t, script, 1<<20)
	})
}
