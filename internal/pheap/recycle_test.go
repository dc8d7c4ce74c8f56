package pheap

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"viyojit/internal/sim"
)

// clockStore charges every access to a virtual clock, as a mapping does:
// two heaps that make the same store accesses read the same time.
type clockStore struct {
	*memStore
	clock *sim.Clock
}

func (c clockStore) ReadAt(p []byte, off int64) error {
	c.clock.Advance(sim.Duration(50 + len(p)))
	return c.memStore.ReadAt(p, off)
}

func (c clockStore) WriteAt(p []byte, off int64) error {
	c.clock.Advance(sim.Duration(80 + len(p)))
	return c.memStore.WriteAt(p, off)
}

// heapTranscript makes one fixed sequence of accesses to h — every block's
// size and first bytes, frees, allocations, and the same reads again —
// and returns what each returned.
func heapTranscript(h *Heap, ptrs []Ptr) []string {
	var out []string
	buf := make([]byte, 16)
	pass := func() {
		for _, p := range ptrs {
			size, err := h.UsableSize(p)
			rerr := h.Read(p, 0, buf)
			out = append(out, fmt.Sprintf("%d: size %d %v, read %x %v", p, size, err, buf, rerr))
		}
	}
	pass()
	for i := 3; i < len(ptrs); i += 17 {
		out = append(out, fmt.Sprintf("free %d: %v", ptrs[i], h.Free(ptrs[i])))
	}
	for n := 40; n < 400; n += 90 {
		p, err := h.Alloc(n)
		out = append(out, fmt.Sprintf("alloc %d: %d %v", n, p, err))
		ptrs = append(ptrs, p)
	}
	pass()
	return out
}

// TestRecycledHeapRevalidates: a heap reopened on a retired heap's class
// table (OpenOn) validates every block's header from the store again, as
// a fresh Open does. The donor has met every block, including one whose
// header is corrupt in the restored image it then reopens over; the
// recycled heap still reports that block corrupt, and over the same
// accesses it returns what a fresh Open's heap returns and charges the
// same virtual time. The donor panics on use afterwards, naming
// retirement.
func TestRecycledHeapRevalidates(t *testing.T) {
	ms := newMemStore(1 << 18)
	donor, err := Format(ms)
	if err != nil {
		t.Fatal(err)
	}
	var ptrs []Ptr
	for i := 0; i < 200; i++ {
		p, err := donor.Alloc(32 + i*37%900)
		if err != nil {
			t.Fatal(err)
		}
		if err := donor.Write(p, 0, bytes.Repeat([]byte{byte(i)}, 16)); err != nil {
			t.Fatal(err)
		}
		ptrs = append(ptrs, p)
	}
	for i := 0; i < len(ptrs); i += 10 {
		if err := donor.Free(ptrs[i]); err != nil {
			t.Fatal(err)
		}
	}
	corrupt := ptrs[57]
	if _, ok := donor.classes[corrupt]; !ok || len(donor.classes) != len(ptrs) {
		t.Fatalf("the donor's table holds %d of %d blocks: the test would prove nothing", len(donor.classes), len(ptrs))
	}
	image := bytes.Clone(ms.data)
	binary.LittleEndian.PutUint64(image[corrupt-blockHeaderSize:], 0xBAD)

	freshClock, recycledClock := sim.NewClock(), sim.NewClock()
	fresh, err := Open(clockStore{&memStore{data: bytes.Clone(image)}, freshClock})
	if err != nil {
		t.Fatal(err)
	}
	table := reflect.ValueOf(donor.classes).UnsafePointer()
	recycled, err := OpenOn(clockStore{&memStore{data: bytes.Clone(image)}, recycledClock}, donor)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.ValueOf(recycled.classes).UnsafePointer() != table || len(recycled.classes) != 0 {
		t.Fatalf("the reopened heap did not take the donor's table cleared (%d entries)", len(recycled.classes))
	}
	for what, use := range map[string]func(){
		"Read":   func() { _ = donor.Read(ptrs[1], 0, make([]byte, 8)) },
		"Alloc":  func() { _, _ = donor.Alloc(64) },
		"OpenOn": func() { _, _ = OpenOn(ms, donor) },
	} {
		func() {
			defer func() {
				if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "retired") {
					t.Fatalf("%s on the donor after the hand-off: panic %v, want one naming retirement", what, r)
				}
			}()
			use()
		}()
	}

	got, want := heapTranscript(recycled, ptrs), heapTranscript(fresh, ptrs)
	if !reflect.DeepEqual(got, want) {
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("access %d: recycled %q, fresh %q", i, got[i], want[i])
			}
		}
	}
	if g, w := recycledClock.Now(), freshClock.Now(); g != w {
		t.Fatalf("virtual time differs: recycled %v, fresh %v", g, w)
	}
	if _, err := recycled.UsableSize(corrupt); err == nil || !strings.Contains(err.Error(), "corrupt block header") {
		t.Fatalf("the recycled heap's UsableSize of the corrupt block: %v, want the corrupt header reported", err)
	}
}
