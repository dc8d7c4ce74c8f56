package serve

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"viyojit/internal/core"
	"viyojit/internal/intent"
	"viyojit/internal/kvstore"
	"viyojit/internal/nvdram"
	"viyojit/internal/obs"
	"viyojit/internal/pheap"
	"viyojit/internal/recovery"
	"viyojit/internal/sim"
	"viyojit/internal/ssd"
)

// replayWorld is a store + journal stack with no server: the shape the
// recovery path sees.
type replayWorld struct {
	clock  *sim.Clock
	events *sim.Queue
	mgr    *core.Manager
	heapM  *core.Mapping
	jM     *core.Mapping
	store  *kvstore.Store
	j      *intent.Journal
}

func newReplayWorld(t *testing.T, budget int) *replayWorld {
	t.Helper()
	clock := sim.NewClock()
	events := sim.NewQueue()
	region, err := nvdram.New(clock, nvdram.Config{Size: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	dev := ssd.New(clock, events, ssd.Config{})
	mgr, err := core.NewManager(clock, events, region, dev, core.Config{DirtyBudgetPages: budget})
	if err != nil {
		t.Fatal(err)
	}
	heapM, err := mgr.Map("heap", 256<<10)
	if err != nil {
		t.Fatal(err)
	}
	heap, err := pheap.Format(heapM)
	if err != nil {
		t.Fatal(err)
	}
	store, err := kvstore.Create(heap, 64)
	if err != nil {
		t.Fatal(err)
	}
	jM, err := mgr.Map("intent", 64<<10)
	if err != nil {
		t.Fatal(err)
	}
	j, err := intent.Create(jM, intent.Config{})
	if err != nil {
		t.Fatal(err)
	}
	w := &replayWorld{clock: clock, events: events, mgr: mgr, heapM: heapM, jM: jM, store: store, j: j}
	t.Cleanup(func() {
		if !mgr.Closed() {
			mgr.Close()
		}
	})
	return w
}

// seedInFlight journals n intents and leaves them in-flight, applying
// every second one to the store first — the two crash windows redo must
// close (crash before apply, crash after apply before result).
func (w *replayWorld) seedInFlight(t *testing.T, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		client, seq := uint64(1+i%3), uint64(1+i/3)
		key := []byte(fmt.Sprintf("key-%02d", i))
		val := []byte(fmt.Sprintf("val-%02d", i))
		tomb := i%5 == 4
		if err := w.j.Begin(client, seq, intent.Checksum(key, val, 0), key, val, tomb); err != nil {
			t.Fatalf("Begin %d: %v", i, err)
		}
		if i%2 == 0 && !tomb {
			if err := w.store.Put(key, val); err != nil {
				t.Fatalf("Put %d: %v", i, err)
			}
		}
	}
}

// heapBytes snapshots the store's entire backing mapping.
func (w *replayWorld) heapBytes(t *testing.T) []byte {
	t.Helper()
	b := make([]byte, w.heapM.Size())
	if err := w.heapM.ReadAt(b, 0); err != nil {
		t.Fatal(err)
	}
	return b
}

// TestReplayPendingRunTwice is the run-twice property: replaying the
// same journal a second time changes nothing — byte-identical store
// bytes and an identical dedup table. The first replay resolves every
// in-flight intent; the second finds nothing pending and must be a pure
// no-op.
func TestReplayPendingRunTwice(t *testing.T) {
	w := newReplayWorld(t, 64)
	w.seedInFlight(t, 12)

	first, err := ReplayPendingWith(w.store, w.j, ReplayOptions{})
	if err != nil {
		t.Fatalf("first replay: %v", err)
	}
	if first.Redone != 12 {
		t.Fatalf("first replay redid %d, want 12", first.Redone)
	}
	state1 := w.heapBytes(t)
	table1 := w.j.Snapshot()

	second, err := ReplayPendingWith(w.store, w.j, ReplayOptions{})
	if err != nil {
		t.Fatalf("second replay: %v", err)
	}
	if second.Redone != 0 {
		t.Fatalf("second replay redid %d, want 0", second.Redone)
	}
	if !bytes.Equal(state1, w.heapBytes(t)) {
		t.Fatalf("second replay mutated the store bytes")
	}
	if !reflect.DeepEqual(table1, w.j.Snapshot()) {
		t.Fatalf("second replay mutated the dedup table")
	}
}

// TestRMWResultSurvivesReplayPending: recovery cannot tell an in-doubt
// Put from an in-doubt read-modify-write, so it caches every redo value
// as the result; each one reads back byte-equal from the live table, two
// compactions later, and from a reopened journal.
func TestRMWResultSurvivesReplayPending(t *testing.T) {
	w := newReplayWorld(t, 64)
	w.seedInFlight(t, 9)
	pending := w.j.Pending()
	if st, err := ReplayPendingWith(w.store, w.j, ReplayOptions{}); err != nil || st.Redone != len(pending) || st.Redone != 9 {
		t.Fatalf("replay redid %d of %d, err %v", st.Redone, len(pending), err)
	}
	check := func(j *intent.Journal, label string) {
		t.Helper()
		for _, p := range pending {
			e, st := j.Lookup(p.Client, p.Seq)
			if st != intent.StateDone || !bytes.Equal(e.Result, p.Entry.RedoVal) {
				t.Fatalf("%s: client %d seq %d is %v caching %q, want done caching %q",
					label, p.Client, p.Seq, st, e.Result, p.Entry.RedoVal)
			}
		}
	}
	check(w.j, "replayed")
	for i := 0; i < 2; i++ {
		if err := w.j.Compact(); err != nil {
			t.Fatal(err)
		}
	}
	check(w.j, "compacted twice")
	j2, err := intent.Open(w.jM, nil)
	if err != nil {
		t.Fatal(err)
	}
	check(j2, "reopened")
}

// TestReplayPendingCrashBetweenRuns interleaves a crash between the two
// replays: the journal is reopened from its battery-flushed bytes (the
// crash model flushes every dirty page) and replayed again against the
// same store. Reopening must observe every intent already Done, and the
// second replay — now driven by the rebuilt table — must leave the
// store bytes and dedup table exactly as the first did.
func TestReplayPendingCrashBetweenRuns(t *testing.T) {
	w := newReplayWorld(t, 64)
	w.seedInFlight(t, 9)

	if _, err := ReplayPendingWith(w.store, w.j, ReplayOptions{}); err != nil {
		t.Fatalf("first replay: %v", err)
	}
	state1 := w.heapBytes(t)
	table1 := w.j.Snapshot()

	// Crash: the mapping bytes are what survives; reopen the journal
	// from them (rebuilt dedup table) and replay again.
	j2, err := intent.Open(w.jM, nil)
	if err != nil {
		t.Fatalf("reopen journal: %v", err)
	}
	again, err := ReplayPendingWith(w.store, j2, ReplayOptions{})
	if err != nil {
		t.Fatalf("post-crash replay: %v", err)
	}
	if again.Redone != 0 {
		t.Fatalf("post-crash replay redid %d, want 0", again.Redone)
	}
	if !bytes.Equal(state1, w.heapBytes(t)) {
		t.Fatalf("post-crash replay mutated the store bytes")
	}
	if !reflect.DeepEqual(table1, j2.Snapshot()) {
		t.Fatalf("rebuilt dedup table diverged from the live one after replay")
	}
}

// TestReplayPendingCrashMidReplay crashes between the two runs while
// intents are still unresolved: the first "attempt" resolves only what
// it reaches before the (simulated) crash, the journal reopens, and the
// remaining intents replay on the second attempt. The end state must be
// identical to a never-crashed single replay on a twin world.
func TestReplayPendingCrashMidReplay(t *testing.T) {
	const n = 10
	// Twin A: one uninterrupted replay.
	a := newReplayWorld(t, 64)
	a.seedInFlight(t, n)
	if _, err := ReplayPendingWith(a.store, a.j, ReplayOptions{}); err != nil {
		t.Fatalf("twin replay: %v", err)
	}
	wantState := a.heapBytes(t)

	// Twin B: replay half by hand (deterministic Pending order), crash,
	// reopen, replay the rest.
	b := newReplayWorld(t, 64)
	b.seedInFlight(t, n)
	pend := b.j.Pending()
	for _, p := range pend[:n/2] {
		code, err := applyImage(b.store, p.Entry.RedoKey, p.Entry.RedoVal, p.Entry.Tombstone)
		if err != nil {
			t.Fatalf("manual redo: %v", err)
		}
		if err := b.j.Complete(p.Client, p.Seq, code, cloneBytes(p.Entry.RedoVal)); err != nil {
			t.Fatalf("manual complete: %v", err)
		}
	}
	j2, err := intent.Open(b.jM, nil)
	if err != nil {
		t.Fatalf("reopen journal: %v", err)
	}
	resumed, err := ReplayPendingWith(b.store, j2, ReplayOptions{})
	if err != nil {
		t.Fatalf("resumed replay: %v", err)
	}
	if resumed.Redone != n-n/2 {
		t.Fatalf("resumed replay redid %d, want %d", resumed.Redone, n-n/2)
	}
	if !bytes.Equal(wantState, b.heapBytes(t)) {
		t.Fatalf("crash-interrupted replay diverged from uninterrupted twin")
	}
}

// TestReplayPendingWithCursorAndBudget exercises the restartable,
// budget-aware form end to end: the cursor records every redo, the
// manager enforces a budget smaller than the redo working set (forcing
// stalls), and dirty never exceeds the budget.
func TestReplayPendingWithCursorAndBudget(t *testing.T) {
	const budget = 2
	w := newReplayWorld(t, budget)
	w.seedInFlight(t, 12)
	// Drain the seeding's dirty pages so the replay starts clean, as a
	// real recovery would (restore writes bypass the manager).
	w.mgr.FlushAll()

	curM, err := w.mgr.Map("cursor", 4096)
	if err != nil {
		t.Fatal(err)
	}
	cur, err := recovery.CreateCursor(curM, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := cur.BeginRecovery(budget); err != nil {
		t.Fatal(err)
	}

	reg := obs.NewRegistry()
	stats, err := ReplayPendingWith(w.store, w.j, ReplayOptions{Cursor: cur, Mgr: w.mgr, Obs: reg})
	if err != nil {
		t.Fatalf("ReplayPendingWith: %v", err)
	}
	if stats.Redone != 12 || stats.StartRecord != 0 {
		t.Fatalf("stats: %+v", stats)
	}
	if got := cur.Progress(); got.Phase != recovery.PhaseIntentRedo || got.Record != 12 {
		t.Fatalf("cursor after replay: %+v", got)
	}
	if w.mgr.DirtyCount() > w.mgr.EffectiveDirtyBudget() {
		t.Fatalf("dirty %d exceeds budget %d after replay", w.mgr.DirtyCount(), w.mgr.EffectiveDirtyBudget())
	}
	if stats.BudgetStalls == 0 {
		t.Fatalf("a %d-page budget under a 12-redo replay must stall; stats %+v", budget, stats)
	}
	if got := reg.Counter("recovery_budget_stalls").Value(); got != stats.BudgetStalls {
		t.Fatalf("recovery_budget_stalls = %d, want %d", got, stats.BudgetStalls)
	}
	if got := reg.Counter("recovery_redo_pages").Value(); got != stats.PagesDirtied {
		t.Fatalf("recovery_redo_pages = %d, want %d", got, stats.PagesDirtied)
	}

	// Without BeginRecovery the cursor is refused.
	if err := cur.Finish(); err != nil {
		t.Fatal(err)
	}
	if _, err := ReplayPendingWith(w.store, w.j, ReplayOptions{Cursor: cur}); err == nil {
		t.Fatalf("replay accepted a cursor outside a recovery")
	}
}
