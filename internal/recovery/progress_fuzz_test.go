package recovery

import (
	"bytes"
	"testing"

	"viyojit/internal/blackbox"
)

// FuzzRecoveryCursor throws arbitrary bytes — truncations, bit flips,
// torn slot writes — at OpenCursor and checks the resume contract: the
// cursor either resumes from a record that round-trips verification, or
// falls back to a fresh from-scratch cursor. It must never surface a
// progress record that did not decode cleanly (the "partial redo applied
// silently" failure ISSUE 8 forbids), and the post-open cursor must
// always be durable and usable.
func FuzzRecoveryCursor(f *testing.F) {
	// Seeds: a legitimate mid-recovery cursor, its torn/flipped
	// variants, and degenerate stores.
	mk := func(mut func(b []byte)) []byte {
		st := newMemStore(MinCursorBytes)
		c, err := CreateCursor(st, nil)
		if err != nil {
			f.Fatalf("seed CreateCursor: %v", err)
		}
		if _, _, err := c.BeginRecovery(8); err != nil {
			f.Fatalf("seed BeginRecovery: %v", err)
		}
		if err := c.Advance(PhaseIntentRedo, 7); err != nil {
			f.Fatalf("seed Advance: %v", err)
		}
		if mut != nil {
			mut(st.b)
		}
		return st.b
	}
	f.Add(mk(nil))
	f.Add(mk(func(b []byte) { b[12] ^= 0x01 }))           // bit flip in slot 0
	f.Add(mk(func(b []byte) { b[slotBytes+12] ^= 0x80 })) // bit flip in slot 1
	f.Add(mk(func(b []byte) { copy(b[slotBytes:], make([]byte, 32)) }))
	other := make([]byte, MinCursorBytes) // a valid record, but not a cursor
	blackbox.EncodeRecord(other, blackbox.Record{Seq: 1, Kind: blackbox.KindMark, Code: 1})
	f.Add(other)
	f.Add(make([]byte, MinCursorBytes))    // all zeros
	f.Add(bytes.Repeat([]byte{0xFF}, 200)) // all ones, odd size
	f.Add([]byte{1, 2, 3})                 // truncated below minimum

	f.Fuzz(func(t *testing.T, raw []byte) {
		st := &memStore{b: append([]byte(nil), raw...)}
		c, err := OpenCursor(st, nil)
		if st.Size() < MinCursorBytes {
			if err == nil {
				t.Fatalf("OpenCursor accepted undersized store of %d bytes", st.Size())
			}
			return
		}
		if err != nil {
			t.Fatalf("OpenCursor on %d-byte store: %v", st.Size(), err)
		}

		// The newest cursor record the walk of both slots adopts
		// (checksum, and Seq bound to slot (Seq-1) mod 2), if any.
		var want blackbox.Record
		ok := false
		for _, r := range blackbox.Walk(raw[:MinCursorBytes]).Records {
			if r.Kind == blackbox.KindCursor && r.Code <= uint16(PhaseDone) {
				want, ok = r, true
			}
		}
		p := c.Progress()
		if c.FellBack() {
			// Fallback must mean from-scratch: nothing to resume, and
			// nothing that verifies was passed over.
			if ok || c.Resumed() || p.InRecovery() || p.Incarnation != 0 || p.Record != 0 {
				t.Fatalf("fallback cursor (valid record %v) still carries state: resumed=%v %+v", ok, c.Resumed(), p)
			}
		} else {
			// The adopted record must be that one: the "never trust a
			// partial record" property.
			args := [4]int64{int64(p.Incarnation), int64(p.Attempt), int64(p.Record), int64(p.BudgetPages)}
			if !ok || want.Seq != p.Seq || want.Code != uint16(p.Phase) || want.Args != args {
				t.Fatalf("cursor adopted a record that does not verify: %+v (walk ok=%v %+v)", p, ok, want)
			}
			if c.Resumed() != p.InRecovery() {
				t.Fatalf("resumed=%v disagrees with progress %+v", c.Resumed(), p)
			}
		}
		if p.Phase > PhaseDone {
			t.Fatalf("out-of-range phase surfaced: %+v", p)
		}

		// Whatever Open decided, the cursor must now be usable: a full
		// begin→advance→finish pass succeeds and survives reopen.
		prev := p
		np, resumed, err := c.BeginRecovery(4)
		if err != nil {
			t.Fatalf("BeginRecovery after open: %v", err)
		}
		if resumed != prev.InRecovery() {
			t.Fatalf("BeginRecovery resumed=%v, but prior progress %+v", resumed, prev)
		}
		if resumed && np.Record != prev.Record {
			t.Fatalf("resume lost Record: %+v -> %+v", prev, np)
		}
		if prev.Less(np) == false && np != prev {
			t.Fatalf("BeginRecovery regressed: %+v -> %+v", prev, np)
		}
		if err := c.Advance(PhaseIntentRedo, np.Record+1); err != nil {
			t.Fatalf("Advance after open: %v", err)
		}
		if err := c.Finish(); err != nil {
			t.Fatalf("Finish after open: %v", err)
		}
		c2, err := OpenCursor(st, nil)
		if err != nil {
			t.Fatalf("reopen: %v", err)
		}
		if got := c2.Progress(); got != c.Progress() {
			t.Fatalf("reopen does not round-trip: wrote %+v, read %+v", c.Progress(), got)
		}
	})
}
