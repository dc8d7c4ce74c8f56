package ptx

import (
	"bytes"
	"errors"
	"testing"
	"testing/quick"

	"viyojit/internal/sim"
)

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

const logPart = 64 << 10

func newTestHeap(t testing.TB, size int) (*Heap, *memStore) {
	t.Helper()
	ms := newMemStore(size)
	h, err := Create(ms, logPart)
	if err != nil {
		t.Fatal(err)
	}
	return h, ms
}

func TestCreateValidation(t *testing.T) {
	if _, err := Create(newMemStore(1<<20), 100); err == nil {
		t.Fatal("tiny log accepted")
	}
	if _, err := Create(newMemStore(1<<20), 1<<20); err == nil {
		t.Fatal("log consuming whole store accepted")
	}
}

func TestCommitPersists(t *testing.T) {
	h, ms := newTestHeap(t, 1<<20)
	if err := h.Update(func(tx *Tx) error {
		if err := tx.Write([]byte("alpha"), 100); err != nil {
			return err
		}
		return tx.Write([]byte("beta"), 5000)
	}); err != nil {
		t.Fatal(err)
	}
	// Visible through a fresh handle over the same bytes, with nothing
	// to roll back.
	h2, err := Open(ms, logPart)
	if err != nil {
		t.Fatal(err)
	}
	if h2.RolledBack() {
		t.Fatal("Open after a commit reports a rollback")
	}
	got := make([]byte, 5)
	if err := h2.View(func(tx *Tx) error { return tx.Read(got, 100) }); err != nil {
		t.Fatal(err)
	}
	if string(got) != "alpha" {
		t.Fatalf("committed data = %q", got)
	}
}

func TestAbortRollsBack(t *testing.T) {
	h, _ := newTestHeap(t, 1<<20)
	if err := h.Update(func(tx *Tx) error {
		return tx.Write([]byte("original"), 0)
	}); err != nil {
		t.Fatal(err)
	}
	boom := errors.New("boom")
	err := h.Update(func(tx *Tx) error {
		if err := tx.Write([]byte("clobbered"), 0); err != nil {
			return err
		}
		// The tx sees its own write...
		probe := make([]byte, 9)
		if err := tx.Read(probe, 0); err != nil {
			return err
		}
		if string(probe) != "clobbered" {
			t.Fatal("tx did not see its own write")
		}
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	// ...but the abort restored the old bytes.
	got := make([]byte, 8)
	if err := h.View(func(tx *Tx) error { return tx.Read(got, 0) }); err != nil {
		t.Fatal(err)
	}
	if string(got) != "original" {
		t.Fatalf("after abort = %q, want original", got)
	}
}

func TestCrashMidTransactionRollsBackOnOpen(t *testing.T) {
	h, ms := newTestHeap(t, 1<<20)
	if err := h.Update(func(tx *Tx) error {
		return tx.Write(bytes.Repeat([]byte{0xAA}, 1000), 0)
	}); err != nil {
		t.Fatal(err)
	}
	// Run a transaction but "crash" before commit: write through the tx
	// machinery, then abandon the heap without Update returning.
	tx := &Tx{h: h}
	if err := tx.Write(bytes.Repeat([]byte{0xBB}, 1000), 0); err != nil {
		t.Fatal(err)
	}
	if err := tx.Write([]byte{0xCC}, 2000); err != nil {
		t.Fatal(err)
	}
	// The raw bytes currently hold the torn state.
	h2, err := Open(ms, logPart) // recovery rolls back
	if err != nil {
		t.Fatal(err)
	}
	if !h2.RolledBack() {
		t.Fatal("Open rolled a transaction back but RolledBack reports none")
	}
	// The rollback reset the log: a second reopen finds nothing in flight.
	h3, err := Open(ms, logPart)
	if err != nil {
		t.Fatal(err)
	}
	if h3.RolledBack() {
		t.Fatal("reopen after a rollback rolled back again")
	}
	got := make([]byte, 1000)
	if err := h2.View(func(tx *Tx) error { return tx.Read(got, 0) }); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, bytes.Repeat([]byte{0xAA}, 1000)) {
		t.Fatal("crash recovery did not restore the committed image")
	}
	probe := make([]byte, 1)
	if err := h2.View(func(tx *Tx) error { return tx.Read(probe, 2000) }); err != nil {
		t.Fatal(err)
	}
	if probe[0] != 0 {
		t.Fatal("uncommitted write at 2000 survived recovery")
	}
}

func TestTxTooLarge(t *testing.T) {
	ms := newMemStore(1 << 20)
	h, err := Create(ms, 8192)
	if err != nil {
		t.Fatal(err)
	}
	err = h.Update(func(tx *Tx) error {
		for i := 0; i < 100; i++ {
			if err := tx.Write(make([]byte, 1024), int64(i)*1024); err != nil {
				return err
			}
		}
		return nil
	})
	if !errors.Is(err, ErrTxTooLarge) {
		t.Fatalf("oversized tx: %v", err)
	}
	// And the partial writes rolled back.
	got := make([]byte, 1024)
	if err := h.View(func(tx *Tx) error { return tx.Read(got, 0) }); err != nil {
		t.Fatal(err)
	}
	for _, b := range got {
		if b != 0 {
			t.Fatal("partial oversized tx not rolled back")
		}
	}
}

func TestFinishedTxRejected(t *testing.T) {
	h, _ := newTestHeap(t, 1<<20)
	var leaked *Tx
	if err := h.Update(func(tx *Tx) error {
		leaked = tx
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if err := leaked.Write([]byte{1}, 0); err == nil {
		t.Fatal("write through finished tx succeeded")
	}
	if err := leaked.Read(make([]byte, 1), 0); err == nil {
		t.Fatal("read through finished tx succeeded")
	}
}

// Property: for any interleaving of committed, aborted, and crashed
// transactions, the data area equals the shadow of committed
// transactions only.
func TestAtomicityProperty(t *testing.T) {
	f := func(seed uint64, nTxs uint8) bool {
		ms := newMemStore(1 << 20)
		h, err := Create(ms, logPart)
		if err != nil {
			return false
		}
		rng := sim.NewRNG(seed)
		shadow := make([]byte, h.data.Size())
		for i := 0; i < int(nTxs)%25+1; i++ {
			// Build a candidate set of writes.
			type w struct {
				off  int64
				data []byte
			}
			var writes []w
			for j := 0; j < rng.Intn(5)+1; j++ {
				n := rng.Intn(300) + 1
				off := rng.Int63n(h.data.Size() - int64(n))
				data := make([]byte, n)
				for k := range data {
					data[k] = byte(rng.Uint64()) | 1
				}
				writes = append(writes, w{off, data})
			}
			outcome := rng.Intn(3) // 0 commit, 1 abort, 2 crash
			switch outcome {
			case 0:
				if err := h.Update(func(tx *Tx) error {
					for _, wr := range writes {
						if err := tx.Write(wr.data, wr.off); err != nil {
							return err
						}
					}
					return nil
				}); err != nil {
					return false
				}
				for _, wr := range writes {
					copy(shadow[wr.off:], wr.data)
				}
			case 1:
				abort := errors.New("abort")
				if err := h.Update(func(tx *Tx) error {
					for _, wr := range writes {
						if err := tx.Write(wr.data, wr.off); err != nil {
							return err
						}
					}
					return abort
				}); !errors.Is(err, abort) {
					return false
				}
			case 2:
				// Crash: raw tx writes, then recovery via Open.
				tx := &Tx{h: h}
				for _, wr := range writes {
					if err := tx.Write(wr.data, wr.off); err != nil {
						return false
					}
				}
				h2, err := Open(ms, logPart)
				if err != nil {
					return false
				}
				h = h2
			}
		}
		got := make([]byte, h.data.Size())
		if err := h.View(func(tx *Tx) error { return tx.Read(got, 0) }); err != nil {
			return false
		}
		return bytes.Equal(got, shadow)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
