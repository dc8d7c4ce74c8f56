package intent

import (
	"fmt"
	"testing"
)

// TestPendingDeterministicOrder checks that Pending lists exactly the
// in-flight intents, sorted by (client, seq) regardless of the map
// iteration order they live under — the redo-order contract restartable
// recovery's cursor indexes into.
func TestPendingDeterministicOrder(t *testing.T) {
	j, ms := mustCreate(t, 1<<16)
	// Interleave clients and seqs; complete some so only true
	// in-flights remain.
	type op struct {
		client, seq uint64
		done        bool
	}
	ops := []op{
		{3, 1, false}, {1, 2, true}, {2, 1, false}, {1, 1, false},
		{3, 2, true}, {2, 3, false}, {2, 2, true},
	}
	for _, o := range ops {
		key := []byte(fmt.Sprintf("k%d-%d", o.client, o.seq))
		val := []byte(fmt.Sprintf("v%d-%d", o.client, o.seq))
		if err := j.Begin(o.client, o.seq, Checksum(key, val, 0), key, val, false); err != nil {
			t.Fatalf("Begin(%d,%d): %v", o.client, o.seq, err)
		}
		if o.done {
			if err := j.Complete(o.client, o.seq, 0, nil); err != nil {
				t.Fatalf("Complete(%d,%d): %v", o.client, o.seq, err)
			}
		}
	}

	want := []struct{ client, seq uint64 }{{1, 1}, {2, 1}, {2, 3}, {3, 1}}
	check := func(j *Journal, label string) {
		t.Helper()
		got := j.Pending()
		if len(got) != len(want) {
			t.Fatalf("%s: %d pending, want %d: %+v", label, len(got), len(want), got)
		}
		for i, w := range want {
			p := got[i]
			if p.Client != w.client || p.Seq != w.seq {
				t.Fatalf("%s: pending[%d] = (%d,%d), want (%d,%d)", label, i, p.Client, p.Seq, w.client, w.seq)
			}
			if p.Entry.Done {
				t.Fatalf("%s: pending[%d] marked done", label, i)
			}
			wantKey := fmt.Sprintf("k%d-%d", w.client, w.seq)
			if string(p.Entry.RedoKey) != wantKey {
				t.Fatalf("%s: pending[%d] redo key %q, want %q", label, i, p.Entry.RedoKey, wantKey)
			}
			// Deep copy: mutating the view must not touch the journal.
			p.Entry.RedoKey[0] ^= 0xFF
			if e, _ := j.Lookup(w.client, w.seq); string(e.RedoKey) != wantKey {
				t.Fatalf("%s: Pending aliases journal memory", label)
			}
		}
	}
	check(j, "live")

	// The same list must come back after a crash-reopen (rebuilt table).
	j2, err := Open(ms, nil)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	check(j2, "reopened")

	if got := mustCreateEmptyPending(t); got != 0 {
		t.Fatalf("fresh journal has %d pending, want 0", got)
	}
}

func mustCreateEmptyPending(t *testing.T) int {
	t.Helper()
	j, _ := mustCreate(t, 1<<16)
	return len(j.Pending())
}
