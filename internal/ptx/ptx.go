// Package ptx provides atomic, durable transactions over NV-DRAM — the
// third application class the paper's introduction motivates (persistent
// transactional memories: NV-Heaps, Mnemosyne, NVML; its refs [24, 26,
// 30, 58, 59]). Viyojit guarantees that bytes written to NV-DRAM survive
// power failure; ptx adds all-or-nothing semantics on top with classic
// undo logging:
//
//   - the store is partitioned into an undo log (a wal.Log) and a data
//     area;
//   - inside Update, the first write to each range appends the range's
//     OLD bytes to the undo log before the in-place write;
//   - commit resets the log; abort (or crash) rolls the undo records
//     back in reverse order.
//
// A power failure at ANY point leaves the data area either fully
// pre-transaction (log replayed backwards on Open) or fully
// post-transaction (log already reset) — never a torn mix.
package ptx

import (
	"encoding/binary"
	"errors"
	"fmt"

	"viyojit/internal/wal"
)

// Store is the NV-DRAM surface (same shape as pheap.Store).
type Store interface {
	ReadAt(p []byte, off int64) error
	WriteAt(p []byte, off int64) error
	Size() int64
}

// subStore exposes a byte range of a Store as its own Store.
type subStore struct {
	base Store
	off  int64
	size int64
}

func (s *subStore) Size() int64 { return s.size }

func (s *subStore) ReadAt(p []byte, off int64) error {
	if off < 0 || off+int64(len(p)) > s.size {
		return fmt.Errorf("ptx: sub-store range [%d,%d) outside %d", off, off+int64(len(p)), s.size)
	}
	return s.base.ReadAt(p, s.off+off)
}

func (s *subStore) WriteAt(p []byte, off int64) error {
	if off < 0 || off+int64(len(p)) > s.size {
		return fmt.Errorf("ptx: sub-store range [%d,%d) outside %d", off, off+int64(len(p)), s.size)
	}
	return s.base.WriteAt(p, s.off+off)
}

// Heap is a transactional persistent data area.
type Heap struct {
	data       *subStore
	log        *wal.Log
	rolledBack bool
}

// ErrTxTooLarge is returned when a transaction's undo records overflow
// the log partition.
var ErrTxTooLarge = errors.New("ptx: transaction exceeds undo-log capacity")

// Create partitions the store into logBytes of undo log followed by the
// data area, and initialises both.
func Create(store Store, logBytes int64) (*Heap, error) {
	if logBytes < 8192 {
		return nil, fmt.Errorf("ptx: log partition %d bytes too small", logBytes)
	}
	if logBytes >= store.Size() {
		return nil, fmt.Errorf("ptx: log partition %d consumes the whole store (%d)", logBytes, store.Size())
	}
	logStore := &subStore{base: store, off: 0, size: logBytes}
	l, err := wal.Create(logStore)
	if err != nil {
		return nil, err
	}
	return &Heap{
		data: &subStore{base: store, off: logBytes, size: store.Size() - logBytes},
		log:  l,
	}, nil
}

// Open reattaches after a restart. If the undo log holds records, a
// transaction was in flight when power failed: the records are rolled
// back in reverse order, restoring the pre-transaction image, and the
// log is reset.
func Open(store Store, logBytes int64) (*Heap, error) {
	if logBytes >= store.Size() {
		return nil, fmt.Errorf("ptx: log partition %d consumes the whole store (%d)", logBytes, store.Size())
	}
	logStore := &subStore{base: store, off: 0, size: logBytes}
	l, err := wal.Open(logStore)
	if err != nil {
		return nil, err
	}
	h := &Heap{
		data: &subStore{base: store, off: logBytes, size: store.Size() - logBytes},
		log:  l,
	}
	if h.rolledBack, err = h.rollback(); err != nil {
		return nil, err
	}
	return h, nil
}

// RolledBack reports whether Open found a transaction in flight — undo
// records in the log — and rolled it back.
func (h *Heap) RolledBack() bool { return h.rolledBack }

// undo record payload: [off u64][old bytes].
func encodeUndo(off int64, old []byte) []byte {
	buf := make([]byte, 8+len(old))
	binary.LittleEndian.PutUint64(buf, uint64(off))
	copy(buf[8:], old)
	return buf
}

func decodeUndo(p []byte) (int64, []byte, error) {
	if len(p) < 8 {
		return 0, nil, fmt.Errorf("ptx: corrupt undo record of %d bytes", len(p))
	}
	return int64(binary.LittleEndian.Uint64(p)), p[8:], nil
}

// rollback applies the undo log in reverse and resets it, reporting
// whether the log held any record.
func (h *Heap) rollback() (bool, error) {
	var undos [][]byte
	if err := h.log.Replay(func(_ uint64, payload []byte) error {
		undos = append(undos, append([]byte(nil), payload...))
		return nil
	}); err != nil {
		return false, err
	}
	for i := len(undos) - 1; i >= 0; i-- {
		off, old, err := decodeUndo(undos[i])
		if err != nil {
			return false, err
		}
		if err := h.data.WriteAt(old, off); err != nil {
			return false, err
		}
	}
	return len(undos) > 0, h.log.Reset()
}

// Tx is one in-flight transaction. It is only valid inside Update.
type Tx struct {
	h    *Heap
	dead bool
}

// Read fills p from the data area (reads see the transaction's own
// writes, since writes are in place).
func (tx *Tx) Read(p []byte, off int64) error {
	if tx.dead {
		return fmt.Errorf("ptx: use of finished transaction")
	}
	return tx.h.data.ReadAt(p, off)
}

// Write stores p at off transactionally: the range's old contents are
// appended to the undo log first.
func (tx *Tx) Write(p []byte, off int64) error {
	if tx.dead {
		return fmt.Errorf("ptx: use of finished transaction")
	}
	if len(p) == 0 {
		return nil
	}
	old := make([]byte, len(p))
	if err := tx.h.data.ReadAt(old, off); err != nil {
		return err
	}
	if _, err := tx.h.log.Append(encodeUndo(off, old)); err != nil {
		if errors.Is(err, wal.ErrFull) {
			return ErrTxTooLarge
		}
		return err
	}
	return tx.h.data.WriteAt(p, off)
}

// Update runs fn atomically: if fn returns nil the writes commit (the
// undo log is reset); if fn returns an error — or the process dies at
// any point — every write rolls back.
func (h *Heap) Update(fn func(tx *Tx) error) error {
	tx := &Tx{h: h}
	err := fn(tx)
	tx.dead = true
	if err != nil {
		if _, rbErr := h.rollback(); rbErr != nil {
			return fmt.Errorf("ptx: rollback after %v failed: %w", err, rbErr)
		}
		return err
	}
	// Commit: the data writes are already in NV-DRAM; dropping the undo
	// log makes them permanent.
	return h.log.Reset()
}

// View runs fn with read-only access (no log activity).
func (h *Heap) View(fn func(tx *Tx) error) error {
	tx := &Tx{h: h}
	defer func() { tx.dead = true }()
	return fn(tx)
}
