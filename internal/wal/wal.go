// Package wal is a write-ahead log on Viyojit-managed NV-DRAM — the
// application-level companion the paper's introduction motivates: NVM's
// byte addressability makes database logging fast (the paper's refs [36]
// and [38] on storage-class-memory logging), and Viyojit makes the log's
// NV-DRAM affordable.
//
// Viyojit guarantees that every NV-DRAM *byte* survives power failure;
// it does not order application writes. The log provides the
// crash-consistency layer on top: records carry length, sequence number
// and a CRC32C checksum (the page checksum's polynomial, internal/ssd,
// computed in hardware where the CPU has it); a record's bytes are
// written before the head pointer advances; and Replay stops at the first
// torn or corrupt record. A power failure in the middle of an append
// therefore loses at most the in-flight record, never a committed prefix.
//
// Layout within the store:
//
//	header (first headerSize bytes):
//	  magic u64 | head u64 | sequence u64
//	records from recordBase:
//	  length u32 | seq u64 | checksum u64 | payload bytes
//
// The checksum field is 8 bytes wide and holds the 32-bit CRC widened.
// The format carries no version: nothing written by one process outlives
// it — logs live in simulated NV-DRAM and are never carried across a
// commit of this repository, so the checksum algorithm may change freely.
//
// The store is any pheap.Store-shaped surface: a Viyojit mapping (at any
// page size, the §7 sector granularity included) or a baseline mapping.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"slices"
)

// Store is the NV-DRAM surface the log lives in (same shape as
// pheap.Store).
type Store interface {
	ReadAt(p []byte, off int64) error
	WriteAt(p []byte, off int64) error
	Size() int64
}

const (
	magic = 0x56494A4C4F475631 // "VIJLOGV1"

	offMagic = 0
	offHead  = 8
	offSeq   = 16

	headerSize = 24
	recordBase = 4096 // records start on the second page

	recordHeaderSize = 4 + 8 + 8 // length u32, seq u64, checksum u64
)

// ErrFull is returned by Append when the log has no room for the record.
var ErrFull = errors.New("wal: log full")

// StopReason says why the most recent Replay stopped.
type StopReason int

const (
	// StopHead: the replay reached the committed head cleanly — every
	// record the header promised was present and valid.
	StopHead StopReason = iota
	// StopTorn: a record failed validation (zero length, out-of-order
	// sequence, bad checksum, or a length running past the store) — the
	// signature of a write torn by power failure. The valid prefix was
	// replayed; the torn tail was rejected, never mis-replayed.
	StopTorn
	// StopEnd: the scan ran out of store space without hitting the head
	// or an invalid record.
	StopEnd
)

func (r StopReason) String() string {
	switch r {
	case StopHead:
		return "head"
	case StopTorn:
		return "torn"
	case StopEnd:
		return "end"
	}
	return "unknown"
}

// Log is the append-only record log. It is not safe for concurrent use.
type Log struct {
	store Store
	head  int64  // next append offset
	seq   uint64 // next sequence number

	lastStop StopReason // why the most recent Replay stopped

	// Append's scratch: a buffer handed to the store escapes through the
	// interface, so locals would cost two heap allocations per record.
	hdr  [16]byte               // writeHeader's head ‖ seq image
	zero [recordHeaderSize]byte // Reset's: always zero, the header it writes
	rec  []byte                 // grow-only: the record being appended
	// Replay's scratch: rhdr is the record header being read and payload
	// the grow-only buffer every record's payload is read into.
	rhdr    [recordHeaderSize]byte
	payload []byte
}

// retiredStore is the store of a Log whose buffers went to another
// (CreateOn, OpenOn): every access panics.
type retiredStore struct{}

const retiredMsg = "wal: use of a log retired by a reboot (CreateOn, OpenOn)"

func (retiredStore) ReadAt([]byte, int64) error  { panic(retiredMsg) }
func (retiredStore) WriteAt([]byte, int64) error { panic(retiredMsg) }
func (retiredStore) Size() int64                 { panic(retiredMsg) }

// newLog returns a Log over store, built on retired's buffers when
// retired is not nil; retired panics on any store access from then on.
func newLog(store Store, retired *Log) *Log {
	l := &Log{store: store}
	if retired != nil {
		l.rec, l.payload = retired.rec[:0], retired.payload[:0]
		*retired = Log{store: retiredStore{}, head: retired.head, seq: retired.seq, lastStop: retired.lastStop}
	}
	return l
}

var crcTab = crc32.MakeTable(crc32.Castagnoli)

// checksum is CRC32C over a record's encoded seq field and its payload.
// It takes the seq as the 8 bytes already sitting in the record buffer:
// crc32.Update's argument escapes, so a local array would cost a heap
// allocation per record.
func checksum(seqField, payload []byte) uint64 {
	return uint64(crc32.Update(crc32.Update(0, crcTab, seqField), crcTab, payload))
}

// Create formats a fresh, empty log across the store.
func Create(store Store) (*Log, error) { return CreateOn(store, nil) }

// CreateOn is Create on the append and replay buffers of retired, a Log
// whose store a reboot retired, or Create itself when retired is nil.
// retired panics on any access to its store from then on; its Head and
// LastStop still read.
func CreateOn(store Store, retired *Log) (*Log, error) {
	if store.Size() < recordBase+recordHeaderSize+1 {
		return nil, fmt.Errorf("wal: store of %d bytes too small", store.Size())
	}
	l := newLog(store, retired)
	l.head, l.seq = recordBase, 1
	if err := l.writeHeader(); err != nil {
		return nil, err
	}
	var m [8]byte
	binary.LittleEndian.PutUint64(m[:], magic)
	if err := store.WriteAt(m[:], offMagic); err != nil {
		return nil, err
	}
	return l, nil
}

// Open attaches to an existing log (the recovery path), restoring the
// head and sequence from the persisted header and validating the magic.
// If the header's head itself was torn (it is 8 bytes, but be paranoid),
// Open falls back to scanning records from the base.
func Open(store Store) (*Log, error) { return OpenOn(store, nil) }

// OpenOn is Open on the buffers of retired, as CreateOn is Create.
func OpenOn(store Store, retired *Log) (*Log, error) {
	var m [8]byte
	if err := store.ReadAt(m[:], offMagic); err != nil {
		return nil, err
	}
	if binary.LittleEndian.Uint64(m[:]) != magic {
		return nil, fmt.Errorf("wal: bad magic; store is not a log")
	}
	var hdr [16]byte
	if err := store.ReadAt(hdr[:], offHead); err != nil {
		return nil, err
	}
	l := newLog(store, retired)
	l.head = int64(binary.LittleEndian.Uint64(hdr[0:]))
	l.seq = binary.LittleEndian.Uint64(hdr[8:])
	if l.head < recordBase || l.head > store.Size() || l.seq == 0 {
		// Corrupt header: rebuild by scanning.
		if err := l.rebuild(); err != nil {
			return nil, err
		}
	}
	return l, nil
}

// rebuild scans records from the base to find the true head. The
// sentinel head disables Replay's head-bound so the scan runs to the
// first invalid record.
func (l *Log) rebuild() error {
	l.head = -1
	l.seq = 1
	return l.Replay(func(uint64, []byte) error { return nil })
}

func (l *Log) writeHeader() error {
	binary.LittleEndian.PutUint64(l.hdr[0:], uint64(l.head))
	binary.LittleEndian.PutUint64(l.hdr[8:], l.seq)
	return l.store.WriteAt(l.hdr[:], offHead)
}

// Append commits one record. The payload bytes and checksum are written
// first, the head pointer after — the ordering that makes a mid-append
// power failure lose only this record.
func (l *Log) Append(payload []byte) (seq uint64, err error) {
	if len(payload) == 0 {
		return 0, fmt.Errorf("wal: empty payload")
	}
	need := int64(recordHeaderSize + len(payload))
	if l.head+need > l.store.Size() {
		return 0, ErrFull
	}
	l.rec = slices.Grow(l.rec[:0], int(need))[:need]
	buf := l.rec
	binary.LittleEndian.PutUint32(buf[0:], uint32(len(payload)))
	binary.LittleEndian.PutUint64(buf[4:], l.seq)
	copy(buf[recordHeaderSize:], payload)
	binary.LittleEndian.PutUint64(buf[12:], checksum(buf[4:12], buf[recordHeaderSize:]))
	if err := l.store.WriteAt(buf, l.head); err != nil {
		return 0, err
	}
	seq = l.seq
	l.head += need
	l.seq++
	if err := l.writeHeader(); err != nil {
		return 0, err
	}
	return seq, nil
}

// Replay invokes fn for every committed record in order, stopping
// cleanly at the head (or, after a crash that tore the header, at the
// first record that fails validation). fn returning an error aborts the
// replay with that error.
//
// Every record is read into one grow-only buffer the Log owns, so the
// payload handed to fn is valid only until fn returns: the next record
// overwrites it. fn must copy what it keeps.
func (l *Log) Replay(fn func(seq uint64, payload []byte) error) error {
	off := int64(recordBase)
	expect := uint64(1)
	l.lastStop = StopEnd
	hdr := l.rhdr[:]
	for off+recordHeaderSize <= l.store.Size() {
		if l.head >= recordBase && off >= l.head {
			l.lastStop = StopHead
			break // reached the committed head
		}
		if err := l.store.ReadAt(hdr, off); err != nil {
			return err
		}
		length := binary.LittleEndian.Uint32(hdr[0:])
		seq := binary.LittleEndian.Uint64(hdr[4:])
		sum := binary.LittleEndian.Uint64(hdr[12:])
		if length == 0 || seq != expect || off+recordHeaderSize+int64(length) > l.store.Size() {
			l.lastStop = StopTorn
			break // torn or never written
		}
		l.payload = slices.Grow(l.payload[:0], int(length))[:length]
		payload := l.payload
		if err := l.store.ReadAt(payload, off+recordHeaderSize); err != nil {
			return err
		}
		if checksum(hdr[4:12], payload) != sum {
			l.lastStop = StopTorn
			break // torn record
		}
		if err := fn(seq, payload); err != nil {
			return err
		}
		off += recordHeaderSize + int64(length)
		expect = seq + 1
	}
	// Synchronise in-memory state with what was actually valid (used by
	// rebuild; harmless otherwise).
	l.head = off
	l.seq = expect
	return nil
}

// LastStop reports why the most recent Replay stopped: cleanly at the
// committed head, or at a torn/corrupt record (the crash-recovery
// signal). Meaningful only after a Replay (directly or via Open's
// rebuild).
func (l *Log) LastStop() StopReason { return l.lastStop }

// Head returns the next append offset (for occupancy accounting).
func (l *Log) Head() int64 { return l.head }

// Reset truncates the log to empty (e.g. after checkpointing the state
// the log protects).
func (l *Log) Reset() error {
	l.head = recordBase
	l.seq = 1
	// A reused log starts with a clean history: without this, a Replay
	// of the pre-reset log that stopped on a torn tail would keep
	// reporting StopTorn after the reset, and recovery code keying off
	// LastStop would treat the fresh log as crash-damaged.
	l.lastStop = StopHead
	// Invalidate the first record header so a replay after reset stops
	// immediately even if old bytes follow.
	if err := l.store.WriteAt(l.zero[:], recordBase); err != nil {
		return err
	}
	return l.writeHeader()
}
