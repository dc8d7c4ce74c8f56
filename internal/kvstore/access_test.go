package kvstore

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"testing"

	"viyojit/internal/pheap"
)

// accessFold is a running hash over a sequence of region calls: kind,
// offset, length and, for writes, the bytes.
type accessFold struct {
	sum   [sha256.Size]byte
	calls int
}

func (f *accessFold) note(kind byte, p []byte, off int64) {
	h := sha256.New()
	h.Write(f.sum[:])
	var hdr [17]byte
	hdr[0] = kind
	binary.LittleEndian.PutUint64(hdr[1:], uint64(off))
	binary.LittleEndian.PutUint64(hdr[9:], uint64(len(p)))
	h.Write(hdr[:])
	if kind == 'W' {
		h.Write(p)
	}
	h.Sum(f.sum[:0])
	f.calls++
}

func (f *accessFold) check(t *testing.T, what string, calls int, sum string) {
	t.Helper()
	if got := hex.EncodeToString(f.sum[:]); f.calls != calls || got != sum {
		t.Errorf("%s changed: %d calls, sum %s; golden %d calls, sum %s", what, f.calls, got, calls, sum)
	}
}

// recStore is a pheap.Store that folds every call it serves into all,
// and its writes alone into writes.
type recStore struct {
	memStore
	all, writes accessFold
}

func (r *recStore) ReadAt(p []byte, off int64) error {
	r.all.note('R', p, off)
	return r.memStore.ReadAt(p, off)
}

func (r *recStore) WriteAt(p []byte, off int64) error {
	r.all.note('W', p, off)
	r.writes.note('W', p, off)
	return r.memStore.WriteAt(p, off)
}

// TestAccessSequenceGolden pins the region accesses (read/write, offset,
// length, written bytes) a seeded script of Create/Put/Get/Delete/grow/
// forEach/Len/Open issues, each one a charged mapping call
// (kvstore.mapping_calls_per_op) and a possible page fault. Two goldens
// say what may move:
//
//   - The write subsequence (7 932 writes) is what NV-DRAM ends up
//     holding and which pages the fault path dirties. It was recorded
//     before the store kept its own scratch buffers and again before
//     pheap kept a class table; neither moved it, and no host-side change
//     may.
//   - The full sequence adds the reads: 42 741 calls, 34 809 of them
//     reads. Until pheap kept a class table every block Read and Write
//     re-read its 8-byte header first: 82 778 calls, 74 846 reads.
func TestAccessSequenceGolden(t *testing.T) {
	rs := &recStore{memStore: *newMemStore(4 << 20)}
	heap, err := pheap.Format(rs)
	if err != nil {
		t.Fatal(err)
	}
	s, err := Create(heap, 37) // few buckets: chains several entries long
	if err != nil {
		t.Fatal(err)
	}
	s.metaInterval = 4 // every 4th hit writes entry metadata
	rng := rand.New(rand.NewSource(15))
	shadow := map[string][]byte{}
	key := func() []byte { return []byte(fmt.Sprintf("key-%03d", rng.Intn(300))) }
	for i := 0; i < 3000; i++ {
		k := key()
		switch r := rng.Intn(10); {
		case r < 4:
			v, ok, err := s.Get(k)
			if err != nil {
				t.Fatal(err)
			}
			if want, has := shadow[string(k)]; ok != has || !bytes.Equal(v, want) {
				t.Fatalf("step %d: Get(%s) = %q, %v; want %q, %v", i, k, v, ok, want, has)
			}
		case r < 8:
			// Lengths straddle size classes, so some updates are in
			// place and some grow into a new block.
			v := bytes.Repeat([]byte{byte(i)}, 1+rng.Intn(200))
			if err := s.Put(k, v); err != nil {
				t.Fatal(err)
			}
			shadow[string(k)] = v
		case r < 9:
			found, err := s.Delete(k)
			if err != nil {
				t.Fatal(err)
			}
			if _, has := shadow[string(k)]; found != has {
				t.Fatalf("step %d: Delete(%s) = %v, want %v", i, k, found, has)
			}
			delete(shadow, string(k))
		default:
			if _, err := s.ReadModifyWrite(k, func(old []byte) []byte { return append(old, 'x') }); err != nil {
				t.Fatal(err)
			}
			if old, has := shadow[string(k)]; has {
				shadow[string(k)] = append(append([]byte(nil), old...), 'x')
			}
		}
	}
	walk := func(st *Store) {
		n := 0
		err := st.forEach(func(k, v []byte) error {
			if !bytes.Equal(shadow[string(k)], v) {
				return fmt.Errorf("forEach: %s = %q, want %q", k, v, shadow[string(k)])
			}
			n++
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if got, err := st.Len(); err != nil || int(got) != n || n != len(shadow) {
			t.Fatalf("walked %d records, Len %d (%v), shadow %d", n, got, err, len(shadow))
		}
	}
	walk(s)
	heap2, err := pheap.Open(rs)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := Open(heap2)
	if err != nil {
		t.Fatal(err)
	}
	walk(s2)
	rs.writes.check(t, "write sequence", 7932, "c2abbb8b4a72080a82f9004b7b2ca47510db64312df55f0d688d46df49bbe93d")
	rs.all.check(t, "access sequence", 42741, "9399b0e1f788fb5b1168f73fda612ad92937498036c55a933739557471badfb6")
}

// The steady-state request path allocates only what it hands back.
func TestHotPathAllocations(t *testing.T) {
	s, _ := newTestStore(t, 1<<20, 8)
	keys := make([][]byte, 64) // 8 per chain: the compare buffer is exercised
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("user%04d", i))
		if err := s.Put(keys[i], bytes.Repeat([]byte{'v'}, 100)); err != nil {
			t.Fatal(err)
		}
	}
	val := bytes.Repeat([]byte{'w'}, 100)
	i := 0
	get := mallocs(200, func() {
		i++
		if _, ok, err := s.Get(keys[i%len(keys)]); err != nil || !ok {
			t.Fatalf("get: %v %v", ok, err)
		}
	})
	if get != 200 { // the returned values
		t.Errorf("200 Get hits: %d allocs, want 200 (the values they return)", get)
	}
	miss := mallocs(200, func() {
		if _, ok, err := s.Get([]byte("user-not-there")); err != nil || ok {
			t.Fatalf("miss: %v %v", ok, err)
		}
	})
	if miss != 0 {
		t.Errorf("200 Get misses: %d allocs, want 0", miss)
	}
	put := mallocs(200, func() {
		i++
		if err := s.Put(keys[i%len(keys)], val); err != nil {
			t.Fatal(err)
		}
	})
	if put != 0 {
		t.Errorf("200 in-place Puts: %d allocs, want 0", put)
	}
}

// Get's result is the caller's: later operations on the store — which
// reuse its scratch — must not change it.
func TestGetResultIsNotScratch(t *testing.T) {
	s, _ := newTestStore(t, 1<<20, 1)
	if err := s.Put([]byte("aaaa"), []byte("first-value")); err != nil {
		t.Fatal(err)
	}
	if err := s.Put([]byte("bbbb"), []byte("other-value")); err != nil {
		t.Fatal(err)
	}
	v, _, err := s.Get([]byte("aaaa"))
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.Get([]byte("bbbb")); err != nil {
		t.Fatal(err)
	}
	if err := s.Put([]byte("cccc"), []byte("third-value")); err != nil {
		t.Fatal(err)
	}
	if string(v) != "first-value" {
		t.Fatalf("value returned by Get changed under later operations: %q", v)
	}
}

// A corrupt entry header must be refused before it sizes a buffer.
func TestCorruptEntryHeaderRejected(t *testing.T) {
	s, ms := newTestStore(t, 1<<20, 4)
	key := []byte("victim")
	if err := s.Put(key, []byte("value")); err != nil {
		t.Fatal(err)
	}
	entry, _, _, _, found, err := s.findEntry(key)
	if err != nil || !found {
		t.Fatalf("findEntry: %v %v", found, err)
	}
	for _, tc := range []struct {
		name           string
		keyLen, valLen uint32
	}{
		{"huge value", uint32(len(key)), 0xFFFFFFFF},
		{"huge key", 0xFFFFFFFF, 5},
		{"sum just over the largest block", uint32(len(key)), pheap.MaxAlloc - entryHeaderSize - uint32(len(key)) + 1},
	} {
		binary.LittleEndian.PutUint32(ms.data[int(entry)+16:], tc.keyLen)
		binary.LittleEndian.PutUint32(ms.data[int(entry)+20:], tc.valLen)
		_, _, err := s.Get(key)
		if err == nil || !strings.Contains(err.Error(), "corrupt entry") {
			t.Errorf("%s: Get error = %v, want a corrupt-entry error", tc.name, err)
		}
		err = s.forEach(func(k, v []byte) error { return nil })
		if err == nil || !strings.Contains(err.Error(), "corrupt entry") {
			t.Errorf("%s: forEach error = %v, want a corrupt-entry error", tc.name, err)
		}
	}
}

// forEach invokes fn for every record in bucket order, passing copies of
// the key and value; fn returning an error aborts the walk. Its region
// reads are part of TestAccessSequenceGolden's full sequence.
func (s *Store) forEach(fn func(key, value []byte) error) error {
	for _, seg := range s.segments {
		segBuckets := bucketsPerSegment
		// The last segment may be shorter.
		if usable, err := s.heap.UsableSize(seg); err != nil {
			return err
		} else if usable/8 < segBuckets {
			segBuckets = usable / 8
		}
		for b := 0; b < segBuckets; b++ {
			cur, err := s.readPtr(seg, b*8)
			if err != nil {
				return err
			}
			for cur != 0 {
				next, kl, vl, err := s.entryHeader(cur)
				if err != nil {
					return err
				}
				kv := make([]byte, kl+vl)
				if err := s.heap.Read(cur, entryHeaderSize, kv); err != nil {
					return err
				}
				if err := fn(kv[:kl:kl], kv[kl:]); err != nil {
					return err
				}
				cur = next
			}
		}
	}
	return nil
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
