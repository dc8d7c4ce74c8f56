// Package pheap is a persistent heap allocator over an NV-DRAM mapping —
// the role Intel's PMEM library plays for the paper's modified Redis
// (§6.1). All allocator metadata lives inside the mapping itself, so
// every allocation, free, and header update is a store into NV-DRAM that
// goes through Viyojit's fault path and dirties pages, exactly like the
// application data. (This is why even YCSB-C, nominally read-only, makes
// the paper's Redis perform stores: heap and record metadata are updated
// on the read path.)
//
// Reading a block does not read its header back. Like PMEM's object
// pointers, a Heap keeps a volatile class table (block → class,
// allocated) filled by its own header stores and by the first validated
// header read of each block, and checks every later Read, Write,
// UsableSize and Free against it. The table cannot go stale because
// every header store goes through the Heap, a block Write is
// bounds-checked to its payload, and exactly one Heap is open per
// mapping: never Format or Open a second Heap over a Store while another
// is in use. A reopened Heap starts with its table cleared (OpenOn reuses
// a retired Heap's), so after a reboot each block's header is validated
// from NV-DRAM once again.
// Pointers handed to the heap must be ones it returned; a wild pointer
// into a payload was never safe (a Write through it can overwrite a
// neighbour's header) and is not made so.
//
// The allocator is a segregated-fit design: power-of-two size classes
// from 32 B to 64 KiB, per-class free lists threaded through the freed
// blocks, and a bump pointer for fresh space. Freed blocks are reused
// within their class but never coalesced; that matches the fixed-record
// workloads the evaluation runs and keeps the persistent layout simple.
//
// Crash consistency of in-flight allocator updates is out of scope, as it
// is in the paper: Viyojit guarantees page durability (the bytes reach
// the SSD), while transactional atomicity above it is the application's
// concern.
package pheap

import (
	"encoding/binary"
	"fmt"
)

// Store is the NV-DRAM surface the heap lives in. core.Mapping and
// baseline.Mapping both satisfy it.
type Store interface {
	ReadAt(p []byte, off int64) error
	WriteAt(p []byte, off int64) error
	Size() int64
}

// Ptr is a heap-relative pointer (byte offset of a block's payload).
// The zero Ptr is the persistent equivalent of nil.
type Ptr int64

const (
	magic = 0x56495930_4A495431 // "VIY0JIT1"

	// Size classes: 32, 64, ..., 65536.
	minClassShift = 5
	maxClassShift = 16
	numClasses    = maxClassShift - minClassShift + 1

	// Layout of the heap header at offset 0.
	offMagic   = 0
	offSize    = 8
	offBump    = 16
	offRoot    = 24
	offFree    = 32
	headerSize = offFree + 8*numClasses

	// Each block is prefixed by an 8-byte header: class index | allocated
	// flag.
	blockHeaderSize = 8
	allocatedFlag   = uint64(1) << 63
)

// MaxAlloc is the largest supported allocation.
const MaxAlloc = 1 << maxClassShift

// Heap is a persistent heap over a Store. Everything persistent lives in
// NV-DRAM, so a Heap can be reopened over recovered contents; the struct
// holds only the store handle and the volatile class table. It is not
// safe for concurrent use.
type Heap struct {
	store Store
	// word is the buffer every header read and write goes through: a
	// local array would escape through the Store interface and cost a
	// heap allocation per access. No call holds it across another.
	word [8]byte
	// classes is the class table: block pointer → header word, for every
	// block this Heap has allocated, freed or validated. It is filled
	// where the header is stored (writeHeader) or first read
	// (blockClass), and starts empty at Format and Open, cleared at
	// OpenOn.
	classes map[Ptr]uint64
}

// retiredStore is the store of a Heap whose class table went to a reboot
// (OpenOn): every access panics.
type retiredStore struct{}

const retiredMsg = "pheap: use of a heap retired by a reboot (OpenOn)"

func (retiredStore) ReadAt([]byte, int64) error  { panic(retiredMsg) }
func (retiredStore) WriteAt([]byte, int64) error { panic(retiredMsg) }
func (retiredStore) Size() int64                 { panic(retiredMsg) }

// classFor returns the size-class index for an allocation of n bytes.
func classFor(n int) (int, error) {
	if n <= 0 {
		return 0, fmt.Errorf("pheap: alloc of %d bytes", n)
	}
	if n > MaxAlloc {
		return 0, fmt.Errorf("pheap: alloc of %d bytes exceeds maximum %d", n, MaxAlloc)
	}
	c := 0
	size := 1 << minClassShift
	for size < n {
		size <<= 1
		c++
	}
	return c, nil
}

// classSize returns the payload size of class c.
func classSize(c int) int { return 1 << (minClassShift + c) }

// Format initialises a fresh heap across the whole store and returns it.
// Any previous contents are ignored.
func Format(store Store) (*Heap, error) {
	if store.Size() < headerSize+blockHeaderSize+(1<<minClassShift) {
		return nil, fmt.Errorf("pheap: store of %d bytes too small", store.Size())
	}
	h := &Heap{store: store, classes: map[Ptr]uint64{}}
	if err := h.writeU64(offMagic, magic); err != nil {
		return nil, err
	}
	if err := h.writeU64(offSize, uint64(store.Size())); err != nil {
		return nil, err
	}
	if err := h.writeU64(offBump, uint64(headerSize)); err != nil {
		return nil, err
	}
	if err := h.writeU64(offRoot, 0); err != nil {
		return nil, err
	}
	for c := 0; c < numClasses; c++ {
		if err := h.writeU64(offFree+int64(8*c), 0); err != nil {
			return nil, err
		}
	}
	return h, nil
}

// Open attaches to an existing heap (e.g. after power-failure recovery),
// validating the magic number and recorded size.
func Open(store Store) (*Heap, error) { return OpenOn(store, nil) }

// OpenOn is Open on the class table of retired, the Heap a reboot
// retired, cleared, or Open itself when retired is nil. Every block's
// header is then validated from the store once, as after Open. retired
// panics on any access from then on.
func OpenOn(store Store, retired *Heap) (*Heap, error) {
	h := &Heap{store: store}
	if retired != nil {
		if retired.classes == nil {
			panic(retiredMsg)
		}
		h.classes, retired.classes, retired.store = retired.classes, nil, retiredStore{}
		clear(h.classes)
	} else {
		h.classes = map[Ptr]uint64{}
	}
	m, err := h.readU64(offMagic)
	if err != nil {
		return nil, err
	}
	if m != magic {
		return nil, fmt.Errorf("pheap: bad magic %#x; store is not a formatted heap", m)
	}
	size, err := h.readU64(offSize)
	if err != nil {
		return nil, err
	}
	if int64(size) != store.Size() {
		return nil, fmt.Errorf("pheap: header records %d bytes but store is %d", size, store.Size())
	}
	return h, nil
}

func (h *Heap) readU64(off int64) (uint64, error) {
	if err := h.store.ReadAt(h.word[:], off); err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint64(h.word[:]), nil
}

func (h *Heap) writeU64(off int64, v uint64) error {
	binary.LittleEndian.PutUint64(h.word[:], v)
	return h.store.WriteAt(h.word[:], off)
}

// writeHeader stores the header of the block at p and records it in the
// class table. A failed store drops the entry instead, so the next access
// re-reads whatever NV-DRAM holds.
func (h *Heap) writeHeader(p Ptr, hdr uint64) error {
	if err := h.writeU64(int64(p)-blockHeaderSize, hdr); err != nil {
		delete(h.classes, p)
		return err
	}
	h.classes[p] = hdr
	return nil
}

// Alloc allocates n bytes and returns a pointer to the payload. The
// payload's previous contents are undefined (reused blocks keep stale
// bytes; callers overwrite what they use).
func (h *Heap) Alloc(n int) (Ptr, error) {
	c, err := classFor(n)
	if err != nil {
		return 0, err
	}
	// Reuse from the class free list if possible.
	headOff := int64(offFree + 8*c)
	head, err := h.readU64(headOff)
	if err != nil {
		return 0, err
	}
	if head != 0 {
		// Pop: the freed block's payload holds the next-free pointer.
		next, err := h.readU64(int64(head))
		if err != nil {
			return 0, err
		}
		if err := h.writeU64(headOff, next); err != nil {
			return 0, err
		}
		if err := h.writeHeader(Ptr(head), uint64(c)|allocatedFlag); err != nil {
			return 0, err
		}
		return Ptr(head), nil
	}
	// Bump-allocate fresh space.
	bump, err := h.readU64(offBump)
	if err != nil {
		return 0, err
	}
	need := int64(blockHeaderSize + classSize(c))
	if int64(bump)+need > h.store.Size() {
		return 0, fmt.Errorf("pheap: out of space allocating %d bytes (class %d)", n, classSize(c))
	}
	if err := h.writeU64(offBump, bump+uint64(need)); err != nil {
		return 0, err
	}
	payload := Ptr(bump) + blockHeaderSize
	if err := h.writeHeader(payload, uint64(c)|allocatedFlag); err != nil {
		return 0, err
	}
	return payload, nil
}

// blockClass validates the header of the block at p, returning its class
// and allocation state. The header is read from NV-DRAM only the first
// time this Heap meets p; a valid one is then kept in the class table,
// which every later header store updates in step.
func (h *Heap) blockClass(p Ptr) (class int, allocated bool, err error) {
	if p < headerSize+blockHeaderSize {
		return 0, false, fmt.Errorf("pheap: pointer %d below heap base", p)
	}
	hdr, ok := h.classes[p]
	if !ok {
		if hdr, err = h.readU64(int64(p) - blockHeaderSize); err != nil {
			return 0, false, err
		}
		if hdr&^allocatedFlag >= numClasses {
			return 0, false, fmt.Errorf("pheap: corrupt block header %#x at %d", hdr, p)
		}
		h.classes[p] = hdr
	}
	return int(hdr &^ allocatedFlag), hdr&allocatedFlag != 0, nil
}

// Free returns p's block to its class free list. Freeing the zero Ptr is
// a no-op; freeing an unallocated or corrupt block is an error.
func (h *Heap) Free(p Ptr) error {
	if p == 0 {
		return nil
	}
	c, allocated, err := h.blockClass(p)
	if err != nil {
		return err
	}
	if !allocated {
		return fmt.Errorf("pheap: double free of block at %d", p)
	}
	headOff := int64(offFree + 8*c)
	head, err := h.readU64(headOff)
	if err != nil {
		return err
	}
	// Thread onto the free list: payload's first word = old head.
	if err := h.writeU64(int64(p), head); err != nil {
		return err
	}
	if err := h.writeHeader(p, uint64(c)); err != nil {
		return err
	}
	return h.writeU64(headOff, uint64(p))
}

// UsableSize returns the capacity of the block at p (its class size),
// which may exceed the requested allocation size.
func (h *Heap) UsableSize(p Ptr) (int, error) {
	c, allocated, err := h.blockClass(p)
	if err != nil {
		return 0, err
	}
	if !allocated {
		return 0, fmt.Errorf("pheap: UsableSize of free block at %d", p)
	}
	return classSize(c), nil
}

// Write stores data into the block at p, starting at byte off within the
// payload, bounds-checked against the block's usable size.
func (h *Heap) Write(p Ptr, off int, data []byte) error {
	size, err := h.UsableSize(p)
	if err != nil {
		return err
	}
	if off < 0 || off+len(data) > size {
		return fmt.Errorf("pheap: write of %d bytes at +%d exceeds block size %d", len(data), off, size)
	}
	return h.store.WriteAt(data, int64(p)+int64(off))
}

// Read fills buf from the block at p starting at byte off within the
// payload.
func (h *Heap) Read(p Ptr, off int, buf []byte) error {
	size, err := h.UsableSize(p)
	if err != nil {
		return err
	}
	if off < 0 || off+len(buf) > size {
		return fmt.Errorf("pheap: read of %d bytes at +%d exceeds block size %d", len(buf), off, size)
	}
	return h.store.ReadAt(buf, int64(p)+int64(off))
}

// SetRoot records the application's root object pointer in the heap
// header, so a reopened heap (after recovery) can find its data. The
// zero Ptr clears the root.
func (h *Heap) SetRoot(p Ptr) error { return h.writeU64(offRoot, uint64(p)) }

// Root returns the recorded root pointer (zero if none was set).
func (h *Heap) Root() (Ptr, error) {
	v, err := h.readU64(offRoot)
	return Ptr(v), err
}
