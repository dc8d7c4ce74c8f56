// Package kvstore is a Redis-like in-memory key-value store whose keys,
// values, and metadata all live in a persistent heap on NV-DRAM — the
// role the paper's modified Redis plays in the evaluation (§6.1).
//
// Faithfulness notes that matter for the experiments:
//
//   - Every structure (bucket directory, hash chains, records) is stored
//     in the heap, so every operation's metadata updates dirty NV-DRAM
//     pages through Viyojit's fault path.
//   - Reads update per-record access metadata (Redis's LRU clock), which
//     is why the paper observes stores — and Viyojit overhead — even
//     under the nominally read-only YCSB-C (§6.2).
//   - After a power failure, Open over the recovered heap finds all data
//     again: the store starts warm, the paper's headline motivation.
package kvstore

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"slices"

	"viyojit/internal/pheap"
)

const (
	// bucketsPerSegment bounds one bucket-array allocation to the heap's
	// maximum block size (8 KiB of pointers).
	bucketsPerSegment = pheap.MaxAlloc / 8

	// Root block layout: [nBuckets u64][count u64][accessClock u64]
	// [segment pointers ...].
	rootHeaderSize = 24

	// Entry block layout: [next u64][meta u64][keyLen u32][valLen u32]
	// [key bytes][value bytes].
	entryHeaderSize = 24
)

// DefaultMetaInterval is how many hits pass between per-entry metadata
// writes on the read path. Redis's LRU clock has coarse (seconds)
// resolution, so a hot entry's lru field is rewritten on only a small
// fraction of its accesses; the interval models that. The global access
// clock (one hot page) is still written on every hit.
const DefaultMetaInterval = 16

// Store is the KV store handle. It is not safe for concurrent use.
type Store struct {
	heap     *pheap.Heap
	root     pheap.Ptr
	nBuckets uint64
	segments []pheap.Ptr

	metaInterval uint64
	hits         uint64 // Gets that found their key; paces touch's meta writes

	// Scratch for region accesses. A buffer handed to the heap escapes
	// through the pheap.Store interface, so a local one costs a heap
	// allocation per access; these are reused instead. Nothing a caller
	// receives aliases them: Get returns fresh copies.
	word [8]byte               // pointers, counters, the access clock
	hdr  [entryHeaderSize]byte // entryHeader
	buf  []byte                // grow-only: key compare, writeEntry's image
}

// scratch returns s.buf resized to n bytes, contents undefined.
func (s *Store) scratch(n int) []byte {
	s.buf = slices.Grow(s.buf[:0], n)[:n]
	return s.buf
}

// Create formats a store with nBuckets hash buckets inside an
// already-formatted heap and records it as the heap root.
func Create(heap *pheap.Heap, nBuckets int) (*Store, error) {
	if nBuckets <= 0 {
		return nil, fmt.Errorf("kvstore: nBuckets %d must be positive", nBuckets)
	}
	nSegs := (nBuckets + bucketsPerSegment - 1) / bucketsPerSegment
	root, err := heap.Alloc(rootHeaderSize + 8*nSegs)
	if err != nil {
		return nil, fmt.Errorf("kvstore: allocating root: %w", err)
	}
	s := &Store{heap: heap, root: root, nBuckets: uint64(nBuckets), metaInterval: DefaultMetaInterval}
	var hdr [rootHeaderSize]byte
	binary.LittleEndian.PutUint64(hdr[0:], uint64(nBuckets))
	binary.LittleEndian.PutUint64(hdr[8:], 0)  // count
	binary.LittleEndian.PutUint64(hdr[16:], 0) // access clock
	if err := heap.Write(root, 0, hdr[:]); err != nil {
		return nil, err
	}
	s.segments = make([]pheap.Ptr, nSegs)
	for i := range s.segments {
		segBuckets := bucketsPerSegment
		if i == nSegs-1 {
			segBuckets = nBuckets - i*bucketsPerSegment
		}
		seg, err := heap.Alloc(8 * segBuckets)
		if err != nil {
			return nil, fmt.Errorf("kvstore: allocating bucket segment %d: %w", i, err)
		}
		// Zero the segment: reused heap blocks may hold stale bytes.
		zero := make([]byte, 8*segBuckets)
		if err := heap.Write(seg, 0, zero); err != nil {
			return nil, err
		}
		s.segments[i] = seg
		var p [8]byte
		binary.LittleEndian.PutUint64(p[:], uint64(seg))
		if err := heap.Write(root, rootHeaderSize+8*i, p[:]); err != nil {
			return nil, err
		}
	}
	if err := heap.SetRoot(root); err != nil {
		return nil, err
	}
	return s, nil
}

// Open attaches to the store recorded as the heap's root — the recovery
// path after a power cycle.
func Open(heap *pheap.Heap) (*Store, error) {
	root, err := heap.Root()
	if err != nil {
		return nil, err
	}
	if root == 0 {
		return nil, fmt.Errorf("kvstore: heap has no root; use Create")
	}
	var hdr [rootHeaderSize]byte
	if err := heap.Read(root, 0, hdr[:]); err != nil {
		return nil, err
	}
	nBuckets := binary.LittleEndian.Uint64(hdr[0:])
	if nBuckets == 0 {
		return nil, fmt.Errorf("kvstore: corrupt root: zero buckets")
	}
	s := &Store{heap: heap, root: root, nBuckets: nBuckets, metaInterval: DefaultMetaInterval}
	nSegs := (int(nBuckets) + bucketsPerSegment - 1) / bucketsPerSegment
	s.segments = make([]pheap.Ptr, nSegs)
	for i := range s.segments {
		var p [8]byte
		if err := heap.Read(root, rootHeaderSize+8*i, p[:]); err != nil {
			return nil, err
		}
		s.segments[i] = pheap.Ptr(binary.LittleEndian.Uint64(p[:]))
	}
	return s, nil
}

// hashKey is FNV-1a over the key bytes.
func hashKey(key []byte) uint64 {
	h := uint64(0xCBF29CE484222325)
	for _, b := range key {
		h ^= uint64(b)
		h *= 0x100000001B3
	}
	return h
}

// bucketLoc returns the segment pointer and byte offset holding the
// chain-head pointer for key.
func (s *Store) bucketLoc(key []byte) (pheap.Ptr, int) {
	b := hashKey(key) % s.nBuckets
	return s.segments[b/bucketsPerSegment], int(b%bucketsPerSegment) * 8
}

func (s *Store) readPtr(block pheap.Ptr, off int) (pheap.Ptr, error) {
	if err := s.heap.Read(block, off, s.word[:]); err != nil {
		return 0, err
	}
	return pheap.Ptr(binary.LittleEndian.Uint64(s.word[:])), nil
}

func (s *Store) writePtr(block pheap.Ptr, off int, p pheap.Ptr) error {
	binary.LittleEndian.PutUint64(s.word[:], uint64(p))
	return s.heap.Write(block, off, s.word[:])
}

// entryHeader reads an entry's header fields. Lengths that no heap block
// could hold are refused here, before any caller sizes a buffer from
// them.
func (s *Store) entryHeader(e pheap.Ptr) (next pheap.Ptr, keyLen, valLen int, err error) {
	if err = s.heap.Read(e, 0, s.hdr[:]); err != nil {
		return
	}
	next = pheap.Ptr(binary.LittleEndian.Uint64(s.hdr[0:]))
	kl, vl := binary.LittleEndian.Uint32(s.hdr[16:]), binary.LittleEndian.Uint32(s.hdr[20:])
	if uint64(kl)+uint64(vl)+entryHeaderSize > pheap.MaxAlloc {
		return 0, 0, 0, fmt.Errorf("kvstore: corrupt entry at %d: key %d + value %d bytes exceed the largest block", e, kl, vl)
	}
	return next, int(kl), int(vl), nil
}

// findEntry walks key's chain, returning the entry, its predecessor link
// location (block + offset of the pointer to the entry), and the value
// length. found is false on miss.
func (s *Store) findEntry(key []byte) (entry pheap.Ptr, prevBlock pheap.Ptr, prevOff int, valLen int, found bool, err error) {
	segPtr, off := s.bucketLoc(key)
	prevBlock, prevOff = segPtr, off
	cur, err := s.readPtr(segPtr, off)
	if err != nil {
		return 0, 0, 0, 0, false, err
	}
	for cur != 0 {
		next, kl, vl, err := s.entryHeader(cur)
		if err != nil {
			return 0, 0, 0, 0, false, err
		}
		if kl == len(key) {
			kbuf := s.scratch(kl)
			if err := s.heap.Read(cur, entryHeaderSize, kbuf); err != nil {
				return 0, 0, 0, 0, false, err
			}
			if bytes.Equal(kbuf, key) {
				return cur, prevBlock, prevOff, vl, true, nil
			}
		}
		prevBlock, prevOff = cur, 0 // next pointer lives at entry offset 0
		cur = next
	}
	return 0, prevBlock, prevOff, 0, false, nil
}

// touch updates access metadata on a hit — the Redis bookkeeping that
// makes even pure reads store into NV-DRAM (paper §6.1 on YCSB-C). The
// global access clock (one hot page) is written on every hit; the
// per-entry meta field only on every metaInterval-th hit, modelling
// Redis's coarse-resolution LRU clock.
func (s *Store) touch(entry pheap.Ptr) error {
	clk := s.word[:]
	if err := s.heap.Read(s.root, 16, clk); err != nil {
		return err
	}
	c := binary.LittleEndian.Uint64(clk) + 1
	binary.LittleEndian.PutUint64(clk, c)
	if err := s.heap.Write(s.root, 16, clk); err != nil {
		return err
	}
	if s.metaInterval <= 1 || s.hits%s.metaInterval == 1 {
		return s.heap.Write(entry, 8, clk) // entry meta = current clock
	}
	return nil
}

// Get returns a copy of key's value, or ok=false on miss. A hit writes
// access metadata (see touch).
func (s *Store) Get(key []byte) (value []byte, ok bool, err error) {
	entry, _, _, valLen, found, err := s.findEntry(key)
	if err != nil || !found {
		return nil, false, err
	}
	s.hits++
	value = make([]byte, valLen)
	if err := s.heap.Read(entry, entryHeaderSize+len(key), value); err != nil {
		return nil, false, err
	}
	if err := s.touch(entry); err != nil {
		return nil, false, err
	}
	return value, true, nil
}

// Put stores value under key, inserting or updating as needed.
func (s *Store) Put(key, value []byte) error {
	if len(key) == 0 {
		return fmt.Errorf("kvstore: empty key")
	}
	entry, prevBlock, prevOff, _, found, err := s.findEntry(key)
	if err != nil {
		return err
	}
	if found {
		usable, err := s.heap.UsableSize(entry)
		if err != nil {
			return err
		}
		if entryHeaderSize+len(key)+len(value) <= usable {
			// In-place update: rewrite value bytes and length.
			if err := s.heap.Write(entry, entryHeaderSize+len(key), value); err != nil {
				return err
			}
			vl := s.word[:4]
			binary.LittleEndian.PutUint32(vl, uint32(len(value)))
			if err := s.heap.Write(entry, 20, vl); err != nil {
				return err
			}
			return s.touch(entry)
		}
		// Grow: allocate a replacement, splice it in, free the old.
		next, err := s.readPtr(entry, 0)
		if err != nil {
			return err
		}
		newEntry, err := s.writeEntry(next, key, value)
		if err != nil {
			return err
		}
		if err := s.writePtr(prevBlock, prevOff, newEntry); err != nil {
			return err
		}
		return s.heap.Free(entry)
	}
	// Insert at chain head.
	segPtr, off := s.bucketLoc(key)
	head, err := s.readPtr(segPtr, off)
	if err != nil {
		return err
	}
	newEntry, err := s.writeEntry(head, key, value)
	if err != nil {
		return err
	}
	if err := s.writePtr(segPtr, off, newEntry); err != nil {
		return err
	}
	return s.adjustCount(+1)
}

// writeEntry allocates and fills a new entry block.
func (s *Store) writeEntry(next pheap.Ptr, key, value []byte) (pheap.Ptr, error) {
	total := entryHeaderSize + len(key) + len(value)
	entry, err := s.heap.Alloc(total)
	if err != nil {
		return 0, err
	}
	buf := s.scratch(total)
	binary.LittleEndian.PutUint64(buf[0:], uint64(next))
	binary.LittleEndian.PutUint64(buf[8:], 0) // meta
	binary.LittleEndian.PutUint32(buf[16:], uint32(len(key)))
	binary.LittleEndian.PutUint32(buf[20:], uint32(len(value)))
	copy(buf[entryHeaderSize:], key)
	copy(buf[entryHeaderSize+len(key):], value)
	if err := s.heap.Write(entry, 0, buf); err != nil {
		return 0, err
	}
	return entry, nil
}

// Delete removes key, reporting whether it existed.
func (s *Store) Delete(key []byte) (bool, error) {
	entry, prevBlock, prevOff, _, found, err := s.findEntry(key)
	if err != nil || !found {
		return false, err
	}
	next, err := s.readPtr(entry, 0)
	if err != nil {
		return false, err
	}
	if err := s.writePtr(prevBlock, prevOff, next); err != nil {
		return false, err
	}
	if err := s.heap.Free(entry); err != nil {
		return false, err
	}
	return true, s.adjustCount(-1)
}

// ReadModifyWrite reads key's value, applies fn, and stores the result —
// YCSB-F's operation. It returns ok=false (without calling fn) on miss.
func (s *Store) ReadModifyWrite(key []byte, fn func(old []byte) []byte) (bool, error) {
	value, ok, err := s.Get(key)
	if err != nil || !ok {
		return false, err
	}
	return true, s.Put(key, fn(value))
}

// Len returns the number of records.
func (s *Store) Len() (uint64, error) {
	if err := s.heap.Read(s.root, 8, s.word[:]); err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint64(s.word[:]), nil
}

func (s *Store) adjustCount(delta int64) error {
	if err := s.heap.Read(s.root, 8, s.word[:]); err != nil {
		return err
	}
	c := binary.LittleEndian.Uint64(s.word[:])
	c = uint64(int64(c) + delta)
	binary.LittleEndian.PutUint64(s.word[:], c)
	return s.heap.Write(s.root, 8, s.word[:])
}
