package serve

import (
	"errors"
	"fmt"

	"viyojit/internal/core"
	"viyojit/internal/intent"
	"viyojit/internal/kvstore"
	"viyojit/internal/obs"
	"viyojit/internal/recovery"
)

// ReplayOptions parameterises ReplayPendingWith. Every field is
// optional; the zero value replays with no cursor, no budget pumping and
// no instruments.
type ReplayOptions struct {
	// Cursor, when set, makes the replay restartable: each redo's
	// completion is durably recorded (recovery.PhaseIntentRedo with the
	// incarnation-cumulative record count) before the next redo starts,
	// so a power failure mid-replay leaves monotone, durable evidence of
	// exactly how far redo progressed. The resumed attempt's pending
	// list self-prunes — journal completions are battery-flushed with
	// everything else, so durably-completed redos have already left it —
	// and any residual record (a completion lost to ErrJournalFull) is
	// re-applied blindly, which is a no-op: re-applying record k twice
	// writes the same image twice. The cursor must already be inside a
	// recovery (BeginRecovery called).
	Cursor *recovery.Cursor
	// Mgr, when set, makes the replay budget-aware: the event queue is
	// pumped between redos so the manager's inline budget enforcement
	// (forced cleans on the fault path) completes its drains, keeping
	// dirty ≤ budget at every virtual-time instant of the replay — the
	// manager's budget should already hold the post-outage, possibly
	// shrunken figure before this is called. Stall and page accounting
	// come from the manager's stats deltas.
	Mgr *core.Manager
	// Obs receives the replay instruments (recovery_redo_pages,
	// recovery_budget_stalls); nil skips them.
	Obs *obs.Registry
}

// ReplayStats reports what a restartable replay did.
type ReplayStats struct {
	// Redone is the number of redo images applied by THIS run.
	Redone int
	// StartRecord is the cursor's cumulative record count when this run
	// began: redos durably completed by earlier attempts of the same
	// incarnation (0 without a cursor or on a fresh incarnation).
	StartRecord uint64
	// PagesDirtied is how many page admissions the redos caused
	// (manager stats delta; 0 without Mgr).
	PagesDirtied uint64
	// BudgetStalls is how many forced synchronous cleans the redos hit
	// against the recovery budget (manager stats delta; 0 without Mgr).
	BudgetStalls uint64
}

// ReplayPendingWith resolves every journaled intent whose result never
// committed: the ops that were in flight when power failed. It applies
// each one's redo image to the store and completes it in the journal, so
// by the time the server takes traffic every entry is Done and a retry
// can only dedup. Redos run in the journal's deterministic (client, seq)
// order. Under a serially-dispatched server at most one intent can be in
// flight per crash; the loop handles any number for journals with other
// producers.
//
// Call it during recovery, after intent.Open and BEFORE serving resumes.
// The ordering matters for correctness, not just hygiene: a redo image
// is the post-state of the crashed attempt, so re-applying it is only
// sound while the store still holds pre-crash state. Once new mutations
// land on the same key, a late redo would rewind them — which is why the
// in-flight resolution lives here and not in the retry path. (execIdem
// keeps a retry-time redo as a fallback for servers recovered without
// this call, with exactly that caveat.)
//
// The options make the replay restartable and budget-aware:
//
//   - with a cursor: advances the cursor durably after every redo, so a
//     crash mid-replay resumes with the completed count intact — the
//     cursor-monotonicity oracle's input — and each redo stays
//     individually idempotent (blind-image application; twice is a
//     no-op);
//   - with a manager: pumps simulated time after every redo so
//     budget-forced cleans drain incrementally — dirty ≤ the (possibly
//     post-outage-shrunken) budget holds during the replay, not just
//     after it.
func ReplayPendingWith(store *kvstore.Store, j *intent.Journal, opts ReplayOptions) (ReplayStats, error) {
	var stats ReplayStats
	if store == nil || j == nil {
		return stats, fmt.Errorf("serve: ReplayPendingWith needs a store and a journal")
	}
	var redoPages, budgetStalls *obs.Counter
	if opts.Obs != nil {
		redoPages = opts.Obs.Counter("recovery_redo_pages")
		budgetStalls = opts.Obs.Counter("recovery_budget_stalls")
	}
	var base core.Stats
	if opts.Mgr != nil {
		base = opts.Mgr.Stats()
	}

	record := uint64(0)
	if opts.Cursor != nil {
		p := opts.Cursor.Progress()
		if !p.InRecovery() {
			return stats, fmt.Errorf("serve: replay cursor is not inside a recovery (phase %v)", p.Phase)
		}
		record = p.Record
		stats.StartRecord = record
		// Entering the redo phase is itself durable progress: a crash
		// here resumes knowing the volatile phases completed once.
		if err := opts.Cursor.Advance(recovery.PhaseIntentRedo, record); err != nil {
			return stats, fmt.Errorf("serve: entering intent-redo phase: %w", err)
		}
	}

	for _, p := range j.Pending() {
		code, err := applyImage(store, p.Entry.RedoKey, p.Entry.RedoVal, p.Entry.Tombstone)
		if err != nil {
			return stats, fmt.Errorf("serve: redo of client %d seq %d: %w", p.Client, p.Seq, err)
		}
		if err := j.Complete(p.Client, p.Seq, code, p.Entry.RedoVal); err != nil && !errors.Is(err, intent.ErrJournalFull) {
			return stats, fmt.Errorf("serve: completing redo of client %d seq %d: %w", p.Client, p.Seq, err)
		}
		stats.Redone++
		record++
		if opts.Mgr != nil {
			// Let budget-forced cleans finish before the next redo
			// dirties more pages: the incremental drain that keeps
			// dirty ≤ budget throughout.
			opts.Mgr.Pump()
		}
		if opts.Cursor != nil {
			if err := opts.Cursor.Advance(recovery.PhaseIntentRedo, record); err != nil {
				return stats, fmt.Errorf("serve: recording redo %d: %w", record, err)
			}
		}
	}

	if opts.Mgr != nil {
		cur := opts.Mgr.Stats()
		stats.PagesDirtied = cur.PagesDirtied - base.PagesDirtied
		stats.BudgetStalls = cur.ForcedCleans - base.ForcedCleans
	}
	if redoPages != nil {
		redoPages.Add(stats.PagesDirtied)
	}
	if budgetStalls != nil {
		budgetStalls.Add(stats.BudgetStalls)
	}
	return stats, nil
}
