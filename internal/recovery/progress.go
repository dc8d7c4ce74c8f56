// progress.go is the persistent recovery cursor: the small,
// battery-backed record of how far a recovery has durably progressed, so
// a power failure striking *during* recovery — the cascading-outage
// regime, where restores run on a sagging battery that browns out again
// mid-replay — resumes instead of silently re-running work.
//
// The cursor lives in an ordinary NV-DRAM mapping, so its writes are
// dirty-budget-accounted and flushed by the same power-fail path as the
// data whose recovery it tracks. Durability is two-slot atomic: the
// cursor is a two-slot ring of flight-recorder records (blackbox's
// 64-byte checksummed format, kind KindCursor), each write a full
// snapshot in the slot its sequence number selects ((Seq-1) mod 2,
// alternating), so a write torn by yet another outage leaves the other
// slot valid. A cursor whose both slots fail
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
	"errors"
	"fmt"

	"viyojit/internal/blackbox"
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
	slotBytes = blackbox.SlotBytes
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

// record is p as a flight-recorder record: Seq is the record's seq,
// Phase its code, and the args carry (Incarnation, Attempt, Record,
// BudgetPages).
func record(p Progress) blackbox.Record {
	return blackbox.Record{
		Seq:  p.Seq,
		Kind: blackbox.KindCursor,
		Code: uint16(p.Phase),
		Args: [4]int64{int64(p.Incarnation), int64(p.Attempt), int64(p.Record), int64(p.BudgetPages)},
	}
}

// progress reads a cursor back out of r. ok is false for a record of
// another kind or a phase outside the enum.
func progress(r blackbox.Record) (Progress, bool) {
	if r.Kind != blackbox.KindCursor || r.Code > uint16(PhaseDone) {
		return Progress{}, false
	}
	return Progress{
		Seq:         r.Seq,
		Incarnation: uint64(r.Args[0]),
		Attempt:     uint64(r.Args[1]),
		Phase:       Phase(r.Code),
		Record:      uint64(r.Args[2]),
		BudgetPages: uint64(r.Args[3]),
	}, true
}

// CreateCursor formats a fresh cursor across the store. reg may be nil.
func CreateCursor(store CursorStore, reg *obs.Registry) (*Cursor, error) {
	if store.Size() < MinCursorBytes {
		return nil, fmt.Errorf("recovery: cursor store of %d bytes too small (min %d)", store.Size(), MinCursorBytes)
	}
	c := newCursor(store, reg)
	if err := c.format(); err != nil {
		return nil, err
	}
	return c, nil
}

// OpenCursor attaches to an existing cursor (the recovery path). It
// walks both slots (blackbox.Walk: checksum, nonzero seq, seq bound to
// its slot) and adopts the newest cursor record among them; a write torn
// by a mid-recovery outage therefore costs at most that one write, never
// the cursor. If neither slot validates — truncated store, bit flips,
// or bytes that were never a cursor — it
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
	c := newCursor(store, reg)
	recs := blackbox.Walk(raw[:]).Records
	found := false
	for i := len(recs) - 1; i >= 0 && !found; i-- {
		c.cur, found = progress(recs[i])
	}
	if !found {
		// Corrupt beyond recovery: format fresh and force a full
		// from-scratch recovery. Never resume from a record that did not
		// verify.
		c.fellBack = true
		c.fallbacks.Inc()
		if err := c.format(); err != nil {
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

// format writes a fresh cursor (Seq 1, slot 0). It invalidates the
// other slot first, so stale bytes from a previous tenant of the store
// can never outrank the fresh record.
func (c *Cursor) format() error {
	c.cur = Progress{Seq: 1, Phase: PhaseNone}
	var zero [slotBytes]byte
	if err := c.store.WriteAt(zero[:], slotBytes); err != nil {
		return err
	}
	return c.write()
}

// write persists the current progress into the slot its Seq selects.
func (c *Cursor) write() error {
	var b [slotBytes]byte
	blackbox.EncodeRecord(b[:], record(c.cur))
	return c.store.WriteAt(b[:], int64((c.cur.Seq-1)%2)*slotBytes)
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
	if phase < c.cur.Phase || record < c.cur.Record {
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
