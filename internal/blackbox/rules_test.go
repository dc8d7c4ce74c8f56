package blackbox

import (
	"fmt"
	"strings"
	"testing"
)

// Every record kind must render a distinct, non-"unknown" name — the
// dump exposition depends on it — and unknown kinds must say so rather
// than alias a real one.
func TestKindStringCoversEveryKind(t *testing.T) {
	kinds := []uint16{
		KindBoot, KindRecover, KindDirty, KindBudget, KindLadder,
		KindLadderEv, KindHealth, KindSensor, KindServe, KindCursor,
		KindSpan, KindMark,
	}
	seen := map[string]uint16{}
	for _, k := range kinds {
		s := KindString(k)
		if s == "unknown" || s == "" {
			t.Errorf("KindString(%d) = %q; every defined kind needs a real name", k, s)
		}
		if prev, dup := seen[s]; dup {
			t.Errorf("KindString maps both %d and %d to %q", prev, k, s)
		}
		seen[s] = k
	}
	if got := KindString(999); got != "unknown" {
		t.Errorf("KindString(999) = %q, want unknown", got)
	}
}

// Every (kind, code) pair the rules can emit must render a name, and
// kinds without a code refinement must render empty — WriteText keys
// its "/code" suffix on that.
func TestCodeStringCoversEmittedPairs(t *testing.T) {
	for name, ev := range instrumentRules {
		switch ev.Kind {
		case KindDirty, KindBudget, KindLadder:
			// Codeless kinds (the ladder's code is the state ordinal,
			// covered below).
		default:
			if CodeString(ev.Kind, ev.Code) == "" {
				t.Errorf("rule %q emits (%d,%d) with no CodeString name", name, ev.Kind, ev.Code)
			}
		}
	}
	for name, code := range spanRules {
		if got := CodeString(KindSpan, code); got != name {
			t.Errorf("span rule %q renders as %q; the dump must echo the span name", name, got)
		}
	}
	// Ladder state ordinals all render.
	for st := uint16(0); st < 4; st++ {
		if CodeString(KindLadder, st) == "" {
			t.Errorf("ladder state %d has no name", st)
		}
	}
	for _, code := range []uint16{CodeSpanClean, CodeSpanFlush, CodeSpanServe} {
		if CodeString(KindSpan, code) == "" {
			t.Errorf("span code %d has no name", code)
		}
	}
	if got := CodeString(KindDirty, 0); got != "" {
		t.Errorf("CodeString(KindDirty, 0) = %q, want empty (no code refinement)", got)
	}
	if got := CodeString(KindSensor, 999); got != "" {
		t.Errorf("CodeString(KindSensor, 999) = %q, want empty for unknown code", got)
	}
}

// The sensor and remaining code spaces render every defined constant.
func TestCodeStringCoversDefinedConstants(t *testing.T) {
	cases := []struct {
		kind  uint16
		codes []uint16
	}{
		{KindLadderEv, []uint16{CodeEmergencyEnter, CodeReadOnlyEnter, CodeResume}},
		{KindHealth, []uint16{CodeDerivedBudgetPages, CodeBudgetMilliJoules, CodeEffectiveMilliJ,
			CodeHealthEmergency, CodeReadOnlyFall, CodeHealthRecovery, CodeScrubDegrade}},
		{KindSensor, []uint16{CodeRejectBounds, CodeRejectRate, CodeRejectStale,
			CodeRejectDisagree, CodeSoloSample, CodeBlindSample, CodeRetrust}},
		{KindServe, []uint16{CodeShedOverload, CodeShedDeadline, CodeShedReadOnly, CodeStallPredicted}},
		{KindCursor, []uint16{CodeCursorAdvance, CodeCursorResume, CodeCursorFallback}},
	}
	for _, c := range cases {
		seen := map[string]bool{}
		for _, code := range c.codes {
			s := CodeString(c.kind, code)
			if s == "" {
				t.Errorf("CodeString(%s, %d) is empty", KindString(c.kind), code)
			}
			if seen[s] {
				t.Errorf("CodeString(%s, %d) = %q duplicates another code", KindString(c.kind), code, s)
			}
			seen[s] = true
		}
	}
}

func TestSlotsReportsRingCapacity(t *testing.T) {
	r, _, _ := testRecorder(t, 16)
	if got := r.Slots(); got != 16 {
		t.Errorf("Slots() = %d, want 16", got)
	}
}

// failStore errors on read: ReadAndWalk must surface it, not walk junk.
type failStore struct{}

func (failStore) WriteAt(p []byte, off int64) error { return nil }
func (failStore) ReadAt(p []byte, off int64) error  { return fmt.Errorf("injected read error") }
func (failStore) Size() int64                       { return 4 * SlotBytes }

func TestReadAndWalkErrors(t *testing.T) {
	if _, err := ReadAndWalk(nil); err == nil {
		t.Error("ReadAndWalk(nil) did not error")
	}
	if _, err := ReadAndWalk(failStore{}); err == nil || !strings.Contains(err.Error(), "injected read error") {
		t.Errorf("ReadAndWalk(failStore) err = %v, want the injected read error", err)
	}
}
