package recovery

import (
	"errors"
	"testing"

	"viyojit/internal/obs"
)

// memStore is a trivial in-memory CursorStore for unit tests.
type memStore struct{ b []byte }

func newMemStore(n int) *memStore { return &memStore{b: make([]byte, n)} }

func (m *memStore) ReadAt(p []byte, off int64) error {
	if off < 0 || off+int64(len(p)) > int64(len(m.b)) {
		return errors.New("memStore: read out of range")
	}
	copy(p, m.b[off:])
	return nil
}

func (m *memStore) WriteAt(p []byte, off int64) error {
	if off < 0 || off+int64(len(p)) > int64(len(m.b)) {
		return errors.New("memStore: write out of range")
	}
	copy(m.b[off:], p)
	return nil
}

func (m *memStore) Size() int64 { return int64(len(m.b)) }

func TestCursorFreshLifecycle(t *testing.T) {
	st := newMemStore(4096)
	c, err := CreateCursor(st, nil)
	if err != nil {
		t.Fatalf("CreateCursor: %v", err)
	}
	if got := c.Progress(); got.Phase != PhaseNone || got.InRecovery() {
		t.Fatalf("fresh cursor: got %+v, want PhaseNone", got)
	}
	if c.Resumed() || c.FellBack() {
		t.Fatalf("fresh cursor claims resumed=%v fellBack=%v", c.Resumed(), c.FellBack())
	}

	p, resumed, err := c.BeginRecovery(8)
	if err != nil || resumed {
		t.Fatalf("BeginRecovery: %+v resumed=%v err=%v", p, resumed, err)
	}
	if p.Incarnation != 1 || p.Attempt != 1 || p.Phase != PhaseRestore || p.Record != 0 || p.BudgetPages != 8 {
		t.Fatalf("first attempt progress: %+v", p)
	}

	steps := []struct {
		phase Phase
		rec   uint64
	}{
		{PhaseWALReplay, 0},
		{PhaseIntentRedo, 0},
		{PhaseIntentRedo, 3},
		{PhaseIntentRedo, 3}, // idempotent re-record
		{PhaseDrain, 3},
	}
	for _, s := range steps {
		if err := c.Advance(s.phase, s.rec); err != nil {
			t.Fatalf("Advance(%v,%d): %v", s.phase, s.rec, err)
		}
	}
	if err := c.Finish(); err != nil {
		t.Fatalf("Finish: %v", err)
	}
	if got := c.Progress(); got.Phase != PhaseDone || got.Record != 3 {
		t.Fatalf("after Finish: %+v", got)
	}

	// Reopen: a finished recovery is not a resume candidate.
	c2, err := OpenCursor(st, nil)
	if err != nil {
		t.Fatalf("OpenCursor: %v", err)
	}
	if c2.Resumed() || c2.FellBack() {
		t.Fatalf("done cursor claims resumed=%v fellBack=%v", c2.Resumed(), c2.FellBack())
	}
	// A new outage opens incarnation 2 with Record reset.
	p2, resumed, err := c2.BeginRecovery(4)
	if err != nil || resumed {
		t.Fatalf("BeginRecovery after done: %+v resumed=%v err=%v", p2, resumed, err)
	}
	if p2.Incarnation != 2 || p2.Attempt != 1 || p2.Record != 0 || p2.BudgetPages != 4 {
		t.Fatalf("second incarnation: %+v", p2)
	}
}

func TestCursorResumePreservesRecord(t *testing.T) {
	st := newMemStore(MinCursorBytes)
	c, err := CreateCursor(st, nil)
	if err != nil {
		t.Fatalf("CreateCursor: %v", err)
	}
	if _, _, err := c.BeginRecovery(8); err != nil {
		t.Fatalf("BeginRecovery: %v", err)
	}
	if err := c.Advance(PhaseIntentRedo, 5); err != nil {
		t.Fatalf("Advance: %v", err)
	}

	// Simulated re-crash: reopen from the same bytes.
	reg := obs.NewRegistry()
	c2, err := OpenCursor(st, reg)
	if err != nil {
		t.Fatalf("OpenCursor: %v", err)
	}
	if !c2.Resumed() {
		t.Fatalf("expected Resumed after mid-recovery reopen; progress %+v", c2.Progress())
	}
	if got := reg.Counter("recovery_resumes_total").Value(); got != 1 {
		t.Fatalf("recovery_resumes_total = %d, want 1", got)
	}
	p, resumed, err := c2.BeginRecovery(4)
	if err != nil || !resumed {
		t.Fatalf("resume BeginRecovery: %+v resumed=%v err=%v", p, resumed, err)
	}
	if p.Incarnation != 1 || p.Attempt != 2 || p.Record != 5 || p.Phase != PhaseRestore {
		t.Fatalf("resumed attempt should preserve Record and restart phases: %+v", p)
	}
	// Record must stay cumulative across the re-run: re-recording
	// phases below the preserved Record count is a regression.
	if err := c2.Advance(PhaseIntentRedo, 4); !errors.Is(err, ErrCursorRegression) {
		t.Fatalf("Advance shrinking Record: err=%v, want ErrCursorRegression", err)
	}
	if err := c2.Advance(PhaseIntentRedo, 7); err != nil {
		t.Fatalf("Advance growing Record: %v", err)
	}
}

func TestCursorRejectsRegression(t *testing.T) {
	st := newMemStore(MinCursorBytes)
	c, _ := CreateCursor(st, nil)
	if err := c.Advance(PhaseWALReplay, 0); !errors.Is(err, ErrNotRecovering) {
		t.Fatalf("Advance before BeginRecovery: err=%v, want ErrNotRecovering", err)
	}
	if err := c.Finish(); !errors.Is(err, ErrNotRecovering) {
		t.Fatalf("Finish before BeginRecovery: err=%v, want ErrNotRecovering", err)
	}
	if _, _, err := c.BeginRecovery(8); err != nil {
		t.Fatalf("BeginRecovery: %v", err)
	}
	if err := c.Advance(PhaseIntentRedo, 2); err != nil {
		t.Fatalf("Advance: %v", err)
	}
	before := c.Progress()
	if err := c.Advance(PhaseWALReplay, 2); !errors.Is(err, ErrCursorRegression) {
		t.Fatalf("phase regression: err=%v, want ErrCursorRegression", err)
	}
	if err := c.Advance(PhaseIntentRedo, 1); !errors.Is(err, ErrCursorRegression) {
		t.Fatalf("record regression: err=%v, want ErrCursorRegression", err)
	}
	if err := c.Advance(PhaseDone, 2); err == nil {
		t.Fatalf("Advance(PhaseDone) must be rejected in favour of Finish")
	}
	if got := c.Progress(); got != before {
		t.Fatalf("rejected advances mutated the cursor: %+v -> %+v", before, got)
	}
}

func TestCursorTornWriteKeepsPriorSlot(t *testing.T) {
	st := newMemStore(MinCursorBytes)
	c, _ := CreateCursor(st, nil)
	if _, _, err := c.BeginRecovery(8); err != nil {
		t.Fatalf("BeginRecovery: %v", err)
	}
	if err := c.Advance(PhaseIntentRedo, 9); err != nil {
		t.Fatalf("Advance: %v", err)
	}
	want := c.Progress()

	// Tear the *next* write: Advance writes the other slot; shred it
	// mid-write by corrupting whichever slot the next Seq selects.
	if err := c.Advance(PhaseDrain, 9); err != nil {
		t.Fatalf("Advance: %v", err)
	}
	tornSlot := int64((c.Progress().Seq-1)%2) * slotBytes
	for i := int64(8); i < 24; i++ { // shred the time, kind, code and drops words
		st.b[tornSlot+i] ^= 0xFF
	}

	c2, err := OpenCursor(st, nil)
	if err != nil {
		t.Fatalf("OpenCursor: %v", err)
	}
	if c2.FellBack() {
		t.Fatalf("torn single slot must not force a fallback")
	}
	if got := c2.Progress(); got != want {
		t.Fatalf("after torn write: got %+v, want prior slot %+v", got, want)
	}
}

// TestCreateCursorOutranksStaleTenant: formatting a cursor over a store
// whose previous cursor was mid-recovery leaves no slot that outranks the
// fresh record, whichever slot the old cursor's newest write took.
func TestCreateCursorOutranksStaleTenant(t *testing.T) {
	for advances := 1; advances <= 2; advances++ {
		st := newMemStore(MinCursorBytes)
		old, _ := CreateCursor(st, nil)
		if _, _, err := old.BeginRecovery(8); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < advances; i++ {
			if err := old.Advance(PhaseIntentRedo, uint64(i)); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := CreateCursor(st, nil); err != nil {
			t.Fatal(err)
		}
		c, err := OpenCursor(st, nil)
		if err != nil {
			t.Fatal(err)
		}
		if got := c.Progress(); c.Resumed() || got != (Progress{Seq: 1, Phase: PhaseNone}) {
			t.Fatalf("after %d advances, the re-formatted cursor opens at %+v (resumed %v), want the fresh record", advances, got, c.Resumed())
		}
	}
}

func TestCursorCorruptFallsBackFresh(t *testing.T) {
	st := newMemStore(MinCursorBytes)
	c, _ := CreateCursor(st, nil)
	if _, _, err := c.BeginRecovery(8); err != nil {
		t.Fatalf("BeginRecovery: %v", err)
	}
	if err := c.Advance(PhaseIntentRedo, 3); err != nil {
		t.Fatalf("Advance: %v", err)
	}
	for i := range st.b {
		st.b[i] ^= 0xA5
	}
	reg := obs.NewRegistry()
	c2, err := OpenCursor(st, reg)
	if err != nil {
		t.Fatalf("OpenCursor: %v", err)
	}
	if !c2.FellBack() || c2.Resumed() {
		t.Fatalf("corrupt cursor: fellBack=%v resumed=%v, want fallback", c2.FellBack(), c2.Resumed())
	}
	if got := reg.Counter("recovery_cursor_fallbacks_total").Value(); got != 1 {
		t.Fatalf("recovery_cursor_fallbacks_total = %d, want 1", got)
	}
	if got := c2.Progress(); got.Phase != PhaseNone || got.InRecovery() {
		t.Fatalf("fallback cursor must start from scratch: %+v", got)
	}
	// And the fallback is durable: reopening sees the fresh cursor.
	c3, err := OpenCursor(st, nil)
	if err != nil {
		t.Fatalf("reopen after fallback: %v", err)
	}
	if c3.FellBack() || c3.Progress().Phase != PhaseNone {
		t.Fatalf("fallback was not persisted: fellBack=%v %+v", c3.FellBack(), c3.Progress())
	}
}

func TestCursorTooSmall(t *testing.T) {
	if _, err := CreateCursor(newMemStore(MinCursorBytes-1), nil); err == nil {
		t.Fatalf("CreateCursor on undersized store must fail")
	}
	if _, err := OpenCursor(newMemStore(MinCursorBytes-1), nil); err == nil {
		t.Fatalf("OpenCursor on undersized store must fail")
	}
}

func TestProgressLess(t *testing.T) {
	base := Progress{Incarnation: 2, Attempt: 2, Phase: PhaseIntentRedo, Record: 5, Seq: 10}
	lesser := []Progress{
		{Incarnation: 1, Attempt: 9, Phase: PhaseDone, Record: 99, Seq: 99},
		{Incarnation: 2, Attempt: 1, Phase: PhaseDone, Record: 99, Seq: 99},
		{Incarnation: 2, Attempt: 2, Phase: PhaseWALReplay, Record: 99, Seq: 99},
		{Incarnation: 2, Attempt: 2, Phase: PhaseIntentRedo, Record: 4, Seq: 99},
		{Incarnation: 2, Attempt: 2, Phase: PhaseIntentRedo, Record: 5, Seq: 9},
	}
	for _, p := range lesser {
		if !p.Less(base) {
			t.Errorf("%+v should be Less than %+v", p, base)
		}
		if base.Less(p) {
			t.Errorf("%+v should not be Less than %+v", base, p)
		}
	}
	if base.Less(base) {
		t.Errorf("Less must be irreflexive")
	}
}
