package kvstore

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
	"testing/quick"

	"viyojit/internal/pheap"
	"viyojit/internal/sim"
)

// memStore mirrors the pheap test store.
type memStore struct{ data []byte }

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

func newTestStore(t testing.TB, heapBytes, buckets int) (*Store, *memStore) {
	t.Helper()
	ms := newMemStore(heapBytes)
	heap, err := pheap.Format(ms)
	if err != nil {
		t.Fatal(err)
	}
	s, err := Create(heap, buckets)
	if err != nil {
		t.Fatal(err)
	}
	return s, ms
}

func TestPutGetRoundTrip(t *testing.T) {
	s, _ := newTestStore(t, 1<<20, 64)
	if err := s.Put([]byte("user1"), []byte("alice")); err != nil {
		t.Fatal(err)
	}
	v, ok, err := s.Get([]byte("user1"))
	if err != nil || !ok {
		t.Fatalf("get: ok=%v err=%v", ok, err)
	}
	if string(v) != "alice" {
		t.Fatalf("value = %q", v)
	}
}

func TestGetMiss(t *testing.T) {
	s, _ := newTestStore(t, 1<<20, 64)
	_, ok, err := s.Get([]byte("absent"))
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatal("miss reported as hit")
	}
}

func TestUpdateInPlace(t *testing.T) {
	s, _ := newTestStore(t, 1<<20, 64)
	if err := s.Put([]byte("k"), []byte("aaaa")); err != nil {
		t.Fatal(err)
	}
	if err := s.Put([]byte("k"), []byte("bb")); err != nil {
		t.Fatal(err)
	}
	v, ok, _ := s.Get([]byte("k"))
	if !ok || string(v) != "bb" {
		t.Fatalf("after shrink update: %q ok=%v", v, ok)
	}
	n, _ := s.Len()
	if n != 1 {
		t.Fatalf("len = %d, want 1", n)
	}
}

func TestUpdateGrowsRecord(t *testing.T) {
	s, _ := newTestStore(t, 1<<20, 64)
	if err := s.Put([]byte("k"), []byte("tiny")); err != nil {
		t.Fatal(err)
	}
	big := bytes.Repeat([]byte{0xAB}, 500)
	if err := s.Put([]byte("k"), big); err != nil {
		t.Fatal(err)
	}
	v, ok, _ := s.Get([]byte("k"))
	if !ok || !bytes.Equal(v, big) {
		t.Fatal("grown value lost")
	}
	n, _ := s.Len()
	if n != 1 {
		t.Fatalf("len = %d after grow", n)
	}
}

func TestDelete(t *testing.T) {
	s, _ := newTestStore(t, 1<<20, 8)
	for i := 0; i < 20; i++ {
		if err := s.Put([]byte(fmt.Sprintf("key%d", i)), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	ok, err := s.Delete([]byte("key7"))
	if err != nil || !ok {
		t.Fatalf("delete: %v %v", ok, err)
	}
	if _, ok, _ := s.Get([]byte("key7")); ok {
		t.Fatal("deleted key still present")
	}
	// Other keys in the same bucket survive.
	for i := 0; i < 20; i++ {
		if i == 7 {
			continue
		}
		if _, ok, _ := s.Get([]byte(fmt.Sprintf("key%d", i))); !ok {
			t.Fatalf("key%d lost after unrelated delete", i)
		}
	}
	n, _ := s.Len()
	if n != 19 {
		t.Fatalf("len = %d, want 19", n)
	}
	if ok, _ := s.Delete([]byte("key7")); ok {
		t.Fatal("double delete reported success")
	}
}

func TestReadModifyWrite(t *testing.T) {
	s, _ := newTestStore(t, 1<<20, 8)
	if err := s.Put([]byte("ctr"), []byte{5}); err != nil {
		t.Fatal(err)
	}
	ok, err := s.ReadModifyWrite([]byte("ctr"), func(old []byte) []byte {
		return []byte{old[0] + 1}
	})
	if err != nil || !ok {
		t.Fatalf("rmw: %v %v", ok, err)
	}
	v, _, _ := s.Get([]byte("ctr"))
	if v[0] != 6 {
		t.Fatalf("counter = %d, want 6", v[0])
	}
	if ok, _ := s.ReadModifyWrite([]byte("none"), func(b []byte) []byte { return b }); ok {
		t.Fatal("rmw on absent key reported success")
	}
}

func TestEmptyKeyRejected(t *testing.T) {
	s, _ := newTestStore(t, 1<<20, 8)
	if err := s.Put(nil, []byte("v")); err == nil {
		t.Fatal("empty key accepted")
	}
}

func TestChainCollisions(t *testing.T) {
	// One bucket forces every key onto a single chain.
	s, _ := newTestStore(t, 1<<20, 1)
	const n = 50
	for i := 0; i < n; i++ {
		if err := s.Put([]byte(fmt.Sprintf("key-%03d", i)), []byte(fmt.Sprintf("val-%03d", i))); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < n; i++ {
		v, ok, err := s.Get([]byte(fmt.Sprintf("key-%03d", i)))
		if err != nil || !ok || string(v) != fmt.Sprintf("val-%03d", i) {
			t.Fatalf("key %d: %q ok=%v err=%v", i, v, ok, err)
		}
	}
}

func TestGetTouchesMetadata(t *testing.T) {
	// The access-clock write on the read path is what makes YCSB-C dirty
	// pages in the paper; assert the underlying store sees writes from a
	// pure Get.
	s, ms := newTestStore(t, 1<<20, 8)
	if err := s.Put([]byte("k"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	snapshot := make([]byte, len(ms.data))
	copy(snapshot, ms.data)
	if _, ok, _ := s.Get([]byte("k")); !ok {
		t.Fatal("get missed")
	}
	if bytes.Equal(snapshot, ms.data) {
		t.Fatal("Get performed no stores; Redis metadata behaviour not modelled")
	}
}

func TestCreateValidation(t *testing.T) {
	ms := newMemStore(1 << 20)
	heap, _ := pheap.Format(ms)
	if _, err := Create(heap, 0); err == nil {
		t.Fatal("zero buckets accepted")
	}
}

func TestOpenRecoversStore(t *testing.T) {
	ms := newMemStore(1 << 20)
	heap, _ := pheap.Format(ms)
	s1, err := Create(heap, 32)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if err := s1.Put([]byte(fmt.Sprintf("k%d", i)), []byte(fmt.Sprintf("v%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	// Simulate recovery: reopen the heap and store from raw bytes.
	heap2, err := pheap.Open(ms)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := Open(heap2)
	if err != nil {
		t.Fatal(err)
	}
	n, _ := s2.Len()
	if n != 10 {
		t.Fatalf("recovered len = %d, want 10", n)
	}
	for i := 0; i < 10; i++ {
		v, ok, err := s2.Get([]byte(fmt.Sprintf("k%d", i)))
		if err != nil || !ok || string(v) != fmt.Sprintf("v%d", i) {
			t.Fatalf("recovered k%d = %q ok=%v err=%v", i, v, ok, err)
		}
	}
}

func TestOpenWithoutRootFails(t *testing.T) {
	ms := newMemStore(1 << 20)
	heap, _ := pheap.Format(ms)
	if _, err := Open(heap); err == nil {
		t.Fatal("Open on rootless heap succeeded")
	}
}

func TestManyBucketsMultiSegment(t *testing.T) {
	// More buckets than one segment holds (8192) forces the multi-segment
	// directory path.
	s, _ := newTestStore(t, 1<<22, 10000)
	for i := 0; i < 200; i++ {
		if err := s.Put([]byte(fmt.Sprintf("key%d", i)), []byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 200; i++ {
		if _, ok, _ := s.Get([]byte(fmt.Sprintf("key%d", i))); !ok {
			t.Fatalf("key%d lost in multi-segment store", i)
		}
	}
}

// Property: the store agrees with a map shadow under arbitrary op
// sequences.
func TestShadowMapProperty(t *testing.T) {
	f := func(seed uint64, steps uint8) bool {
		s, _ := newTestStore(t, 1<<22, 64)
		rng := sim.NewRNG(seed)
		shadow := map[string]string{}
		keys := make([]string, 30)
		for i := range keys {
			keys[i] = fmt.Sprintf("key-%02d", i)
		}
		for i := 0; i < int(steps)%200+1; i++ {
			k := keys[rng.Intn(len(keys))]
			switch rng.Intn(4) {
			case 0, 1: // put
				v := fmt.Sprintf("val-%d", rng.Intn(1000))
				if s.Put([]byte(k), []byte(v)) != nil {
					return false
				}
				shadow[k] = v
			case 2: // get
				v, ok, err := s.Get([]byte(k))
				if err != nil {
					return false
				}
				want, wantOK := shadow[k]
				if ok != wantOK || (ok && string(v) != want) {
					return false
				}
			case 3: // delete
				ok, err := s.Delete([]byte(k))
				if err != nil {
					return false
				}
				_, wantOK := shadow[k]
				if ok != wantOK {
					return false
				}
				delete(shadow, k)
			}
		}
		n, err := s.Len()
		if err != nil {
			return false
		}
		return int(n) == len(shadow)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
