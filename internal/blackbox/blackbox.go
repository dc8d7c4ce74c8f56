// Package blackbox is the flight recorder: a small, checksummed ring of
// fixed-size binary event records that lives in battery-backed pages
// and survives power failure alongside the heap it describes. Viyojit's
// core bet — a bounded dirty set is flushable on battery — funds the
// system's own observability: a couple of budget-accounted pages buy a
// crash-persistent record of the load-bearing decisions (budget
// re-derivations, ladder transitions, clean/flush spans, sensor
// verdicts, shed decisions, recovery cursor advances), so that after a
// failure the machine can explain itself instead of leaving the audit
// entirely to an external harness.
//
// Three properties shape the design, each inherited from a neighbour:
//
//   - Torn-tail tolerance: every 64-byte slot carries an FNV-1a
//     checksum and its own sequence number, and the sequence fixes the
//     slot ((seq-1) mod nslots), so Walk adopts exactly the set of
//     intact records, drops a torn tail, and can never invent or
//     resurrect a record into the wrong place. internal/recovery's
//     cursor is a two-slot ring in the same format (EncodeRecord, Walk).
//
//   - Budget honesty (from internal/core): the ring's pages are Map'd
//     like any heap page and charged against the same dirty budget.
//     The recorder never blocks and never forces a clean — when the
//     budget is tight or writes are blocked, Append degrades to
//     sampling: the attempt is counted in a drop counter that rides in
//     every later record, so the walk knows the gaps are gaps.
//
//   - Zero-allocation appends (from internal/obs): the encode path is
//     a fixed buffer and atomics; the recorder is an obs.Sink, so the
//     existing registry tees instrument deltas into the ring with no
//     new call-site plumbing anywhere in the system.
package blackbox

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"sync"
	"sync/atomic"

	"viyojit/internal/obs"
	"viyojit/internal/sim"
)

// SlotBytes is the fixed on-media size of one record.
//
// Layout (little-endian):
//
//	[0:8)   seq      — 1-based, monotone across reboots, fixes the slot
//	[8:16)  at       — virtual time, ns
//	[16:18) kind     — event family (KindDirty, KindLadder, …)
//	[18:20) code     — event detail within the family
//	[20:24) drops    — cumulative dropped appends at write time
//	[24:56) arg0..3  — four int64 event arguments
//	[56:64) checksum — FNV-1a over bytes [0,56)
const SlotBytes = 64

// Event kinds. The code column refines each kind; see rules.go for the
// instrument-name mapping and KindString/CodeString for the decoding.
const (
	KindBoot     uint16 = 1  // recorder (re)armed: arg0=nslots, arg1=budget pages
	KindRecover  uint16 = 2  // ring adopted after a crash: arg0=adopted seq, arg1=torn slots
	KindDirty    uint16 = 3  // dirty-page gauge: arg0=pages
	KindBudget   uint16 = 4  // effective dirty-budget gauge: arg0=pages
	KindLadder   uint16 = 5  // ladder state change: code=new state ordinal
	KindLadderEv uint16 = 6  // ladder transition cause counters
	KindHealth   uint16 = 7  // health monitor re-derivations and verdicts
	KindSensor   uint16 = 8  // fused-sensor rejections and episodes
	KindServe    uint16 = 9  // serve shed/stall decisions
	KindCursor   uint16 = 10 // recovery cursor movement
	KindSpan     uint16 = 11 // finished trace span: arg0=start ns, arg1=end ns
	KindMark     uint16 = 12 // caller-supplied milestone
)

// Record is one decoded ring entry.
type Record struct {
	Seq   uint64
	At    sim.Time
	Kind  uint16
	Code  uint16
	Drops uint32
	Args  [4]int64
}

// checksum is FNV-1a over b.
func checksum(b []byte) uint64 {
	h := fnv.New64a()
	h.Write(b)
	return h.Sum64()
}

// EncodeRecord writes r into buf's first SlotBytes bytes in the slot
// layout above, checksum included. The recovery cursor stores its
// two-slot ring in the same format.
func EncodeRecord(buf []byte, r Record) {
	binary.LittleEndian.PutUint64(buf[0:], r.Seq)
	binary.LittleEndian.PutUint64(buf[8:], uint64(r.At))
	binary.LittleEndian.PutUint16(buf[16:], r.Kind)
	binary.LittleEndian.PutUint16(buf[18:], r.Code)
	binary.LittleEndian.PutUint32(buf[20:], r.Drops)
	for i, a := range r.Args {
		binary.LittleEndian.PutUint64(buf[24+8*i:], uint64(a))
	}
	binary.LittleEndian.PutUint64(buf[56:], checksum(buf[:56]))
}

// decodeRecord validates one slot. ok is false for never-written
// (all-zero), torn, or corrupted slots.
func decodeRecord(buf []byte) (Record, bool) {
	if binary.LittleEndian.Uint64(buf[56:]) != checksum(buf[:56]) {
		return Record{}, false
	}
	var r Record
	r.Seq = binary.LittleEndian.Uint64(buf[0:])
	if r.Seq == 0 {
		return Record{}, false
	}
	r.At = sim.Time(binary.LittleEndian.Uint64(buf[8:]))
	r.Kind = binary.LittleEndian.Uint16(buf[16:])
	r.Code = binary.LittleEndian.Uint16(buf[18:])
	r.Drops = binary.LittleEndian.Uint32(buf[20:])
	for i := range r.Args {
		r.Args[i] = int64(binary.LittleEndian.Uint64(buf[24+8*i:]))
	}
	return r, true
}

// Store is the byte-addressed battery-backed window the ring lives in —
// the shape of *core.Mapping (and wal.Store).
type Store interface {
	WriteAt(p []byte, off int64) error
	ReadAt(p []byte, off int64) error
	Size() int64
}

// Gate decides whether the recorder may touch [off, off+n) of its store
// right now without blocking or breaking the dirty budget. A false
// verdict turns the append into a counted drop. Nil means always-yes.
type Gate func(off, n int64) bool

// Recorder appends records to the ring. Appends are serialised by a
// try-lock: a nested append (a gauge tee firing from inside an
// append's own ring-page fault) or a racing one loses the lock — the
// recorder never blocks and never recurses. A lock-loser's record is
// parked in a one-slot deferral buffer and appended by the lock
// holder right after it releases the ring; only when that slot is
// already taken is the event dropped and counted.
type Recorder struct {
	store  Store
	now    func() sim.Time
	gate   Gate
	nslots uint64

	busy   atomic.Bool
	sealed atomic.Bool
	paused atomic.Bool
	drops  atomic.Uint32
	seq    atomic.Uint64 // last successfully appended seq
	buf    [SlotBytes]byte

	// The deferral buffer. pmu guards pending; pendingSet is the
	// occupancy flag lock-losers CAS on.
	pmu        sync.Mutex
	pendingSet atomic.Bool
	pending    pendingRec
}

// pendingRec is a parked append awaiting the ring lock.
type pendingRec struct {
	kind, code uint16
	args       [4]int64
}

// Options configures New.
type Options struct {
	// Now supplies virtual time for each record. Required.
	Now func() sim.Time
	// Gate is consulted before every write; nil admits everything.
	Gate Gate
}

// New arms a recorder over store. The ring geometry is derived from the
// store size (one slot per 64 bytes); the store must hold at least two
// slots. New writes nothing — the caller appends a Boot record once
// wiring is done, or adopts an existing ring via Adopt after recovery.
func New(store Store, opts Options) (*Recorder, error) {
	if store == nil {
		return nil, fmt.Errorf("blackbox: nil store")
	}
	nslots := uint64(store.Size() / SlotBytes)
	if nslots < 2 {
		return nil, fmt.Errorf("blackbox: store of %d bytes holds %d slots, need >= 2", store.Size(), nslots)
	}
	if opts.Now == nil {
		return nil, fmt.Errorf("blackbox: Options.Now is required")
	}
	r := &Recorder{
		store:  store,
		now:    opts.Now,
		gate:   opts.Gate,
		nslots: nslots,
	}
	return r, nil
}

// Slots returns the ring capacity in records.
func (r *Recorder) Slots() uint64 { return r.nslots }

// LastSeq returns the sequence number of the most recent successful
// append (0 before any).
func (r *Recorder) LastSeq() uint64 {
	if r == nil {
		return 0
	}
	return r.seq.Load()
}

// Dropped returns the cumulative count of appends the recorder shed —
// lost try-locks, gate refusals, and store errors.
func (r *Recorder) Dropped() uint32 {
	if r == nil {
		return 0
	}
	return r.drops.Load()
}

// Adopt continues an existing ring: subsequent appends extend the walk's
// adopted sequence, keeping seq monotone across reboots so post-crash
// records sort after pre-crash ones.
func (r *Recorder) Adopt(w WalkResult) {
	r.seq.Store(w.LastSeq)
}

// Append writes one record. It never blocks: if the slot's page cannot
// be touched right now (gate) or the store errors, the event is
// dropped and counted; if another append holds the ring — almost
// always the tee of this recorder's OWN ring-page fault (dirtying a
// clean ring slot page moves the dirty gauge, which tees back here
// while the lock is held) — the record is parked and the lock holder
// appends it right after its own, so the structural re-entry costs
// ordering, not data. Only a second lock-loser, arriving while the
// deferral slot is full, is dropped. The cumulative drop count rides
// in every subsequent record, so a forensic walk sees the gaps.
// Nil-safe, like the obs instruments.
func (r *Recorder) Append(kind, code uint16, a0, a1, a2, a3 int64) {
	if r == nil || r.sealed.Load() {
		return
	}
	if r.paused.Load() {
		r.drops.Add(1)
		return
	}
	if !r.busy.CompareAndSwap(false, true) {
		r.park(kind, code, a0, a1, a2, a3)
		return
	}
	r.appendLocked(kind, code, a0, a1, a2, a3)
	r.busy.Store(false)
	// Drain the deferral buffer. Bounded: a drained append's own page
	// fault can park at most one more record, and the ring has finitely
	// many pages to fault on.
	for r.pendingSet.Load() {
		r.pmu.Lock()
		p := r.pending
		r.pendingSet.Store(false)
		r.pmu.Unlock()
		if !r.busy.CompareAndSwap(false, true) {
			r.drops.Add(1) // a racing thread owns the ring now
			return
		}
		r.appendLocked(p.kind, p.code, p.args[0], p.args[1], p.args[2], p.args[3])
		r.busy.Store(false)
	}
}

// park stashes a lock-loser's record for the lock holder to drain.
func (r *Recorder) park(kind, code uint16, a0, a1, a2, a3 int64) {
	if r.pendingSet.CompareAndSwap(false, true) {
		r.pmu.Lock()
		r.pending = pendingRec{kind: kind, code: code, args: [4]int64{a0, a1, a2, a3}}
		r.pmu.Unlock()
		return
	}
	r.drops.Add(1)
}

// appendLocked writes one record; the caller holds busy.
func (r *Recorder) appendLocked(kind, code uint16, a0, a1, a2, a3 int64) {
	seq := r.seq.Load() + 1
	off := int64((seq-1)%r.nslots) * SlotBytes
	if r.gate != nil && !r.gate(off, SlotBytes) {
		r.drops.Add(1)
		return
	}
	EncodeRecord(r.buf[:], Record{
		Seq:   seq,
		At:    r.now(),
		Kind:  kind,
		Code:  code,
		Drops: r.drops.Load(),
		Args:  [4]int64{a0, a1, a2, a3},
	})
	if err := r.store.WriteAt(r.buf[:], off); err != nil {
		r.drops.Add(1)
	} else {
		r.seq.Store(seq)
	}
}

// Seal permanently stops the recorder. The facade calls it at the
// instant power fails: the flush's own bookkeeping (the dirty gauge
// collapsing, the flush span finishing) must not mutate ring pages
// after the energy audit began, or the restored ring would disagree
// with what the SSD holds. Sealed appends vanish silently — power is
// off; there is no later record left to carry a drop count. Nil-safe.
func (r *Recorder) Seal() {
	if r != nil {
		r.sealed.Store(true)
	}
}

// Quiesce pauses the recorder until the returned resume func runs;
// paused appends become counted drops. It exists for whole-set drains
// (FlushAll): the dirty gauge falling as each clean completes would
// tee an append that re-dirties a ring page, and the drain loop —
// which runs until the dirty set is empty — would chase its own
// telemetry forever. Not reentrant; nil-safe.
func (r *Recorder) Quiesce() (resume func()) {
	if r == nil {
		return func() {}
	}
	r.paused.Store(true)
	return func() { r.paused.Store(false) }
}

// Boot appends the arming record.
func (r *Recorder) Boot(budgetPages int64) {
	if r == nil {
		return
	}
	r.Append(KindBoot, 0, int64(r.nslots), budgetPages, 0, 0)
}

// Mark appends a caller-labelled milestone (code is caller-defined).
func (r *Recorder) Mark(code uint16, a0, a1 int64) {
	r.Append(KindMark, code, a0, a1, 0, 0)
}

// Keeps implements obs.Sink: the registry tees only the counters and
// gauges named in the rules table, so the others cost no lookup here.
func (r *Recorder) Keeps(name string) bool {
	_, ok := instrumentRules[name]
	return ok
}

// CounterAdd implements obs.Sink: counters named in the rules table
// become records carrying (total, delta).
func (r *Recorder) CounterAdd(name string, delta, total uint64) {
	ev, ok := instrumentRules[name]
	if !ok {
		return
	}
	r.Append(ev.Kind, ev.Code, int64(total), int64(delta), 0, 0)
}

// GaugeSet implements obs.Sink: gauges named in the rules table become
// records carrying the new level. Ladder records additionally carry the
// state ordinal in the code column so a forensic walk can name the
// final state without consulting the args.
func (r *Recorder) GaugeSet(name string, v int64) {
	ev, ok := instrumentRules[name]
	if !ok {
		return
	}
	code := ev.Code
	if ev.Kind == KindLadder && v >= 0 && v <= 0xFFFF {
		code = uint16(v)
	}
	r.Append(ev.Kind, code, v, 0, 0, 0)
}

// SpanFinished implements obs.Sink: spans named in the span-rules table
// become KindSpan records carrying (start, end).
func (r *Recorder) SpanFinished(rec obs.SpanRecord) {
	code, ok := spanRules[rec.Name]
	if !ok {
		return
	}
	r.Append(KindSpan, code, int64(rec.Start), int64(rec.End), 0, 0)
}

var _ obs.Sink = (*Recorder)(nil)
