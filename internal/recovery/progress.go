// progress.go is the persistent recovery cursor: the small,
// battery-backed record of how far a recovery has durably progressed, so
// a power failure striking *during* recovery — the cascading-outage
// regime, where restores run on a sagging battery that browns out again
// mid-replay — resumes instead of silently re-running work.
//
// The cursor lives in an ordinary NV-DRAM mapping, so its writes are
// dirty-budget-accounted and flushed by the same power-fail path as the
// data whose recovery it tracks. Durability is two-slot atomic: each
// write encodes a full checksummed snapshot into the slot its sequence
// number selects (alternating), so a write torn by yet another outage
// leaves the other slot valid. A cursor whose both slots fail
// verification is not an error: OpenCursor falls back to a fresh cursor
// and the caller runs a full from-scratch recovery — the one behaviour
// that is always safe — rather than ever trusting a partial record.
//
// Monotonicity contract (the nested crash sweep's cursor-regression
// oracle):
//
//   - Seq strictly increases on every durable write.
//   - Incarnation (one per outage being recovered from) never decreases.
//   - Within an incarnation, Attempt (one per recovery attempt; cascaded
//     re-crashes restart attempts) never decreases.
//   - Within an attempt, (Phase, Record) never regresses lexicographically.
//   - Within an incarnation, Record — the count of redo records durably
//     completed — never decreases, even across attempts. Volatile phases
//     (region restore, journal-table rebuild) re-run on every attempt
//     because their effects live in DRAM; Record only tracks durable
//     replay work, which is exactly what must never be re-applied
//     blindly or skipped.
package recovery

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"

	"viyojit/internal/obs"
	"viyojit/internal/wal"
)

// CursorStore is the NV-DRAM surface the cursor lives in (same shape as
// wal.Store — typically a dedicated one-page core.Manager mapping).
type CursorStore = wal.Store

// Phase is a recovery pipeline stage. Phases are ordered: recovery
// advances PhaseRestore → PhaseWALReplay → PhaseIntentRedo → PhaseDrain
// → PhaseDone within an attempt, and a cascaded re-crash restarts the
// next attempt at PhaseRestore (restore's effects are volatile).
type Phase uint8

const (
	// PhaseNone: formatted, no recovery has ever run.
	PhaseNone Phase = iota
	// PhaseRestore: reloading NV-DRAM pages from the SSD.
	PhaseRestore
	// PhaseWALReplay: replaying log records to rebuild volatile tables
	// (the intent journal's dedup table, application WALs).
	PhaseWALReplay
	// PhaseIntentRedo: applying redo images of in-flight intents — the
	// only phase with durable per-record effects; Record counts them.
	PhaseIntentRedo
	// PhaseDrain: draining the re-dirtied set to the SSD so recovery
	// ends with a clean durable state before serving resumes.
	PhaseDrain
	// PhaseDone: recovery complete.
	PhaseDone
)

func (p Phase) String() string {
	switch p {
	case PhaseNone:
		return "none"
	case PhaseRestore:
		return "restore"
	case PhaseWALReplay:
		return "wal-replay"
	case PhaseIntentRedo:
		return "intent-redo"
	case PhaseDrain:
		return "drain"
	case PhaseDone:
		return "done"
	}
	return "unknown"
}

// Progress is one durable cursor record.
type Progress struct {
	// Seq is the monotone write counter; it also selects the slot.
	Seq uint64
	// Incarnation counts outages recovered from; BeginRecovery bumps it
	// when starting fresh (PhaseNone or PhaseDone).
	Incarnation uint64
	// Attempt counts recovery attempts within the incarnation; a
	// re-crash mid-recovery bumps it on resume.
	Attempt uint64
	// Phase is the stage the recovery is in.
	Phase Phase
	// Record is the number of redo records durably completed this
	// incarnation (cumulative across attempts).
	Record uint64
	// BudgetPages is the dirty budget this attempt runs under — the
	// post-outage, possibly shrunken figure, recorded for audit.
	BudgetPages uint64
}

// InRecovery reports whether the progress describes an unfinished
// recovery (a resume candidate).
func (p Progress) InRecovery() bool { return p.Phase > PhaseNone && p.Phase < PhaseDone }

// Less orders two progress records by the monotonicity contract:
// (Incarnation, Attempt, Phase, Record), with Seq as the final
// tie-break. A cursor regresses iff a later observation is Less than an
// earlier one.
func (p Progress) Less(q Progress) bool {
	if p.Incarnation != q.Incarnation {
		return p.Incarnation < q.Incarnation
	}
	if p.Attempt != q.Attempt {
		return p.Attempt < q.Attempt
	}
	if p.Phase != q.Phase {
		return p.Phase < q.Phase
	}
	if p.Record != q.Record {
		return p.Record < q.Record
	}
	return p.Seq < q.Seq
}

const (
	cursorMagic uint64 = 0x56494A5243555253 // "VIJRCURS"

	slotBytes = 64
	// MinCursorBytes is the smallest store a cursor accepts: two slots.
	MinCursorBytes = 2 * slotBytes
)

// Typed errors. Match with errors.Is.
var (
	// ErrCursorRegression: an Advance would move the cursor backwards —
	// always a recovery-logic bug, never applied.
	ErrCursorRegression = errors.New("recovery: cursor advance would regress progress")
	// ErrNotRecovering: Advance/Finish without a BeginRecovery.
	ErrNotRecovering = errors.New("recovery: cursor is not inside a recovery (call BeginRecovery)")
)

// Cursor is the persistent recovery cursor. Single-goroutine, like the
// rest of the simulated stack.
type Cursor struct {
	store    CursorStore
	cur      Progress
	resumed  bool // Open found an unfinished recovery
	fellBack bool // Open found a corrupt cursor and formatted fresh

	advances  *obs.Counter
	resumes   *obs.Counter
	fallbacks *obs.Counter
}

func newCursor(store CursorStore, reg *obs.Registry) *Cursor {
	if reg == nil {
		reg = obs.NewRegistry()
	}
	return &Cursor{
		store:     store,
		advances:  reg.Counter("recovery_cursor_advances_total"),
		resumes:   reg.Counter("recovery_resumes_total"),
		fallbacks: reg.Counter("recovery_cursor_fallbacks_total"),
	}
}

// cursorSum is FNV-1a over a slot's first 56 bytes (everything but the
// checksum word itself).
func cursorSum(b []byte) uint64 {
	h := fnv.New64a()
	h.Write(b[:slotBytes-8])
	return h.Sum64()
}

func encodeSlot(p Progress) []byte {
	var b [slotBytes]byte
	binary.LittleEndian.PutUint64(b[0:], cursorMagic)
	binary.LittleEndian.PutUint64(b[8:], p.Seq)
	binary.LittleEndian.PutUint64(b[16:], p.Incarnation)
	binary.LittleEndian.PutUint64(b[24:], p.Attempt)
	binary.LittleEndian.PutUint64(b[32:], uint64(p.Phase))
	binary.LittleEndian.PutUint64(b[40:], p.Record)
	binary.LittleEndian.PutUint64(b[48:], p.BudgetPages)
	binary.LittleEndian.PutUint64(b[56:], cursorSum(b[:]))
	return b[:]
}

// decodeSlot validates one slot. ok is false for bad magic, bad
// checksum, or a phase outside the enum — anything a torn write, a bit
// flip, or a truncated store could produce.
func decodeSlot(b []byte) (Progress, bool) {
	if len(b) < slotBytes {
		return Progress{}, false
	}
	if binary.LittleEndian.Uint64(b[0:]) != cursorMagic {
		return Progress{}, false
	}
	if binary.LittleEndian.Uint64(b[56:]) != cursorSum(b) {
		return Progress{}, false
	}
	phase := binary.LittleEndian.Uint64(b[32:])
	if phase > uint64(PhaseDone) {
		return Progress{}, false
	}
	return Progress{
		Seq:         binary.LittleEndian.Uint64(b[8:]),
		Incarnation: binary.LittleEndian.Uint64(b[16:]),
		Attempt:     binary.LittleEndian.Uint64(b[24:]),
		Phase:       Phase(phase),
		Record:      binary.LittleEndian.Uint64(b[40:]),
		BudgetPages: binary.LittleEndian.Uint64(b[48:]),
	}, true
}

// CreateCursor formats a fresh cursor across the store. reg may be nil.
func CreateCursor(store CursorStore, reg *obs.Registry) (*Cursor, error) {
	if store.Size() < MinCursorBytes {
		return nil, fmt.Errorf("recovery: cursor store of %d bytes too small (min %d)", store.Size(), MinCursorBytes)
	}
	c := newCursor(store, reg)
	c.cur = Progress{Seq: 1, Phase: PhaseNone}
	// Invalidate the other slot first so stale bytes from a previous
	// tenant of the store can never outrank the fresh record.
	var zero [slotBytes]byte
	if err := store.WriteAt(zero[:], slotBytes); err != nil {
		return nil, err
	}
	if err := c.write(); err != nil {
		return nil, err
	}
	return c, nil
}

// OpenCursor attaches to an existing cursor (the recovery path). It
// reads both slots, validates each, and adopts the one with the higher
// sequence number; a write torn by a mid-recovery outage therefore costs
// at most that one write, never the cursor. If neither slot validates —
// truncated store, bit flips, or bytes that were never a cursor — it
// falls back to formatting a fresh cursor (FellBack reports this) so the
// caller runs a full from-scratch recovery instead of trusting a partial
// record. reg may be nil.
func OpenCursor(store CursorStore, reg *obs.Registry) (*Cursor, error) {
	if store.Size() < MinCursorBytes {
		return nil, fmt.Errorf("recovery: cursor store of %d bytes too small (min %d)", store.Size(), MinCursorBytes)
	}
	var raw [2 * slotBytes]byte
	if err := store.ReadAt(raw[:], 0); err != nil {
		return nil, err
	}
	p0, ok0 := decodeSlot(raw[:slotBytes])
	p1, ok1 := decodeSlot(raw[slotBytes:])
	c := newCursor(store, reg)
	switch {
	case ok0 && ok1:
		if p1.Seq > p0.Seq {
			c.cur = p1
		} else {
			c.cur = p0
		}
	case ok0:
		c.cur = p0
	case ok1:
		c.cur = p1
	default:
		// Corrupt beyond recovery: format fresh and force a full
		// from-scratch recovery. Never resume from a record that did not
		// verify.
		c.fellBack = true
		c.fallbacks.Inc()
		c.cur = Progress{Seq: 1, Phase: PhaseNone}
		var zero [slotBytes]byte
		if err := store.WriteAt(zero[:], slotBytes); err != nil {
			return nil, err
		}
		if err := c.write(); err != nil {
			return nil, err
		}
		return c, nil
	}
	if c.cur.InRecovery() {
		c.resumed = true
		c.resumes.Inc()
	}
	return c, nil
}

// write persists the current progress into the slot its Seq selects.
func (c *Cursor) write() error {
	return c.store.WriteAt(encodeSlot(c.cur), int64(c.cur.Seq%2)*slotBytes)
}

// Progress returns the cursor's current durable record.
func (c *Cursor) Progress() Progress { return c.cur }

// Resumed reports whether OpenCursor found an unfinished recovery — the
// signature of a crash during a previous recovery attempt.
func (c *Cursor) Resumed() bool { return c.resumed }

// FellBack reports whether OpenCursor found a corrupt cursor and
// formatted fresh, forcing a full from-scratch recovery.
func (c *Cursor) FellBack() bool { return c.fellBack }

// BeginRecovery opens a recovery attempt under the given dirty budget
// and returns the durable progress the attempt starts from. Starting
// fresh (PhaseNone or PhaseDone) opens a new incarnation at attempt 1
// with Record reset; resuming an unfinished recovery bumps Attempt,
// preserves Record (the redos already durably completed), and restarts
// the phase ladder at PhaseRestore — restore's effects are volatile and
// must re-run. The returned resumed flag distinguishes the two.
func (c *Cursor) BeginRecovery(budgetPages int) (Progress, bool, error) {
	if budgetPages < 0 {
		budgetPages = 0
	}
	resumed := c.cur.InRecovery()
	next := c.cur
	next.Seq++
	next.BudgetPages = uint64(budgetPages)
	next.Phase = PhaseRestore
	if resumed {
		next.Attempt++
	} else {
		next.Incarnation++
		next.Attempt = 1
		next.Record = 0
	}
	c.cur = next
	if err := c.write(); err != nil {
		return Progress{}, false, err
	}
	c.advances.Inc()
	return c.cur, resumed, nil
}

// Advance durably records that recovery reached (phase, record). It is
// idempotent — re-recording the current position is a no-op write with a
// fresh Seq — and refuses regressions: a smaller phase, a smaller record
// within the phase, or any shrink of the incarnation-cumulative Record
// returns ErrCursorRegression with the cursor unchanged.
func (c *Cursor) Advance(phase Phase, record uint64) error {
	if !c.cur.InRecovery() {
		return ErrNotRecovering
	}
	if phase < c.cur.Phase || (phase == c.cur.Phase && record < c.cur.Record) || record < c.cur.Record {
		return fmt.Errorf("%w: at %v/%d, asked %v/%d", ErrCursorRegression, c.cur.Phase, c.cur.Record, phase, record)
	}
	if phase >= PhaseDone {
		return fmt.Errorf("recovery: use Finish to complete a recovery, not Advance(%v)", phase)
	}
	next := c.cur
	next.Seq++
	next.Phase = phase
	next.Record = record
	c.cur = next
	if err := c.write(); err != nil {
		return err
	}
	c.advances.Inc()
	return nil
}

// Finish durably marks the recovery complete (PhaseDone). The next
// BeginRecovery opens a fresh incarnation.
func (c *Cursor) Finish() error {
	if !c.cur.InRecovery() {
		return ErrNotRecovering
	}
	next := c.cur
	next.Seq++
	next.Phase = PhaseDone
	c.cur = next
	if err := c.write(); err != nil {
		return err
	}
	c.advances.Inc()
	return nil
}
