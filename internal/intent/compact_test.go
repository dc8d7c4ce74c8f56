package intent

import (
	"bytes"
	"fmt"
	"testing"
)

// TestRMWResultSurvivesCompactionAndReopen: a result journaled as "the
// redo value" (a flag, no bytes), one journaled in full and an empty one
// all come back byte-equal from the live table, from a table two
// compactions later, and from a reopened journal — replayed once from
// intent + result records and once from a snapshot.
func TestRMWResultSurvivesCompactionAndReopen(t *testing.T) {
	image := bytes.Repeat([]byte("rmw"), 100)
	other := bytes.Repeat([]byte("other"), 50)
	results := map[uint64][]byte{1: image, 2: other, 3: nil}

	j, ms := mustCreate(t, 1<<16)
	for seq, res := range results {
		if err := j.Begin(4, seq, seq, []byte("key"), image, false); err != nil {
			t.Fatal(err)
		}
		if err := j.Complete(4, seq, byte(seq), res); err != nil {
			t.Fatal(err)
		}
	}
	check := func(j *Journal, label string) {
		t.Helper()
		for seq, want := range results {
			e, st := j.Lookup(4, seq)
			if st != StateDone || e.Code != byte(seq) || !bytes.Equal(e.Result, want) {
				t.Fatalf("%s: seq %d is %v with code %d and a %d-byte result, want done, %d, %d bytes",
					label, seq, st, e.Code, len(e.Result), seq, len(want))
			}
		}
	}
	reopen := func() *Journal {
		t.Helper()
		j2, err := Open(ms, nil)
		if err != nil {
			t.Fatal(err)
		}
		return j2
	}
	check(j, "live")
	check(reopen(), "reopened from records")
	// The flagged result cost its record no result bytes.
	if got, fat := j.Stats().AppendBytes, uint64(3*len(image)+len(other)+len(image)); got >= fat {
		t.Fatalf("journal appended %d bytes; the flagged result was written out (%d)", got, fat)
	}
	for i := 0; i < 2; i++ {
		if err := j.Compact(); err != nil {
			t.Fatal(err)
		}
	}
	check(j, "compacted twice")
	check(reopen(), "reopened from a snapshot")
}

// pageStore counts the distinct pages a journal writes.
type pageStore struct {
	*memStore
	pages map[int64]bool
}

func (p *pageStore) WriteAt(b []byte, off int64) error {
	for pg := off / pageBytes; pg <= (off+int64(len(b))-1)/pageBytes; pg++ {
		p.pages[pg] = true
	}
	return p.memStore.WriteAt(b, off)
}

// TestJournalFootprintTracksLiveState is the tentpole's contract: the
// pages the journal keeps writing — what it holds of the dirty budget —
// follow its live table, not its capacity, and it appends little more than
// the values it protects. 16 clients × window 16 doing 1 KiB Puts on a
// 1 MiB store wrote 255 of its 256 pages, 4.5 bytes per value byte, when a
// done Put cached its value and compaction waited for a full half.
func TestJournalFootprintTracksLiveState(t *testing.T) {
	const clients, ops = 16, 5000
	ps := &pageStore{memStore: newMemStore(1 << 20), pages: map[int64]bool{}}
	j, err := Create(ps, Config{})
	if err != nil {
		t.Fatal(err)
	}
	val := bytes.Repeat([]byte("v"), 1024)
	payload := 0
	for i := 0; i < ops; i++ {
		client, seq := uint64(1+i%clients), uint64(1+i/clients)
		key := []byte(fmt.Sprintf("user%08d", i%997))
		if err := j.Begin(client, seq, uint64(i), key, val, false); err != nil {
			t.Fatal(err)
		}
		if err := j.Complete(client, seq, 0, nil); err != nil { // what serve passes for a Put
			t.Fatal(err)
		}
		payload += len(key) + len(val)
	}
	st := j.Stats()
	snapPages := (st.LiveBytes + pageBytes - 1) / pageBytes
	// Per half: the run up to the limit, the record that crosses it, the
	// log header page; plus the journal's own header page.
	if limit := 2*(growthFactor*snapPages+2) + 1; int64(len(ps.pages)) > limit {
		t.Errorf("journal wrote %d distinct pages with a %d-page live table, want ≤ %d", len(ps.pages), snapPages, limit)
	}
	if amp := float64(st.AppendBytes) / float64(payload); amp > 1.3 {
		t.Errorf("journal appended %.2f bytes per payload byte (%d snapshot bytes in %d compactions), want ≤ 1.3",
			amp, st.SnapshotBytes, st.Compactions)
	}
	if st.Compactions == 0 || st.LiveEntries != clients*DefaultWindow {
		t.Fatalf("vacuous run: %d compactions, %d live entries", st.Compactions, st.LiveEntries)
	}
}

// TestCompactCrashAtEveryStoreWrite cuts power at every byte of the write
// stream of one compaction — so after each of its store writes and inside
// each — and reopens. Compact changes where the table lives, never what it
// holds, so every cut must reopen to exactly that table, whole, from the
// old half or the new one; the last cut must find the new one. Both halves
// hold an older generation's table when the compaction starts, which is
// what a flip ahead of a whole snapshot would expose.
func TestCompactCrashAtEveryStoreWrite(t *testing.T) {
	var want map[uint64]ClientSnapshot
	var oldGen uint64
	// history runs the same traffic up to one final Compact and returns
	// the write-stream offsets at which that Compact started and ended.
	history := func(st *cutStore) (from, to int) {
		j, err := Create(st, Config{})
		if err != nil {
			t.Fatal(err)
		}
		val := bytes.Repeat([]byte("v"), 64)
		for s := uint64(1); s <= 60; s++ {
			client := 1 + s%3
			if err := j.Begin(client, s, s*7, []byte(fmt.Sprintf("key-%d", s)), val, s%5 == 0); err != nil {
				t.Fatal(err)
			}
			if s%4 != 0 { // leave every fourth op in flight
				res := [][]byte{val, []byte("r"), nil}[s%3]
				if err := j.Complete(client, s, byte(s), res); err != nil {
					t.Fatal(err)
				}
			}
			if s == 20 || s == 40 {
				if err := j.Compact(); err != nil {
					t.Fatal(err)
				}
			}
		}
		want, oldGen = j.Snapshot(), j.gen
		from = st.spent()
		if err := j.Compact(); err != nil {
			t.Fatal(err)
		}
		return from, st.spent()
	}
	from, to := history(&cutStore{memStore: newMemStore(1 << 15), budget: uncut})
	if to-from < 512 {
		t.Fatalf("compaction wrote %d bytes; the table is too small to tear", to-from)
	}
	for cut := from; cut <= to; cut++ {
		cs := &cutStore{memStore: newMemStore(1 << 15), budget: cut}
		history(cs)
		j2, err := Open(cs.memStore, nil)
		if err != nil {
			t.Fatalf("cut %d: reopen: %v", cut, err)
		}
		if j2.TornOpen() {
			t.Fatalf("cut %d: reopened on a torn half (gen %d)", cut, j2.gen)
		}
		if g := j2.gen; g != oldGen && g != oldGen+1 || cut == to && g != oldGen+1 {
			t.Fatalf("cut %d of [%d, %d]: reopened at gen %d from gen %d", cut, from, to, g, oldGen)
		}
		assertSnapshotsEqual(t, want, j2.Snapshot())
	}
}

// TestCompactAllocatesNothing: once both halves' logs exist and the
// snapshot buffers are sized, a compaction — the snapshot, the inactive
// half's reset and the generation flip — allocates nothing: the log's
// zero header and the journal's generation word are owned scratch, not
// locals escaping through the Store interface.
func TestCompactAllocatesNothing(t *testing.T) {
	j, _ := mustCreate(t, 1<<16)
	for c := uint64(1); c <= 4; c++ {
		for seq := uint64(1); seq <= 3; seq++ {
			if err := j.Begin(c, seq, seq, []byte("key"), []byte("value"), false); err != nil {
				t.Fatal(err)
			}
			if seq < 3 {
				if err := j.Complete(c, seq, 0, nil); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	for i := 0; i < 2; i++ { // open both halves' logs, size the buffers
		if err := j.Compact(); err != nil {
			t.Fatal(err)
		}
	}
	before := j.Stats().Compactions
	if n := mallocs(50, func() {
		if err := j.Compact(); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("50 compactions allocate %d times, want 0", n)
	}
	if n := j.Stats().Compactions - before; n != 100 {
		t.Fatalf("%d compactions in the two passes, want 100", n)
	}
}
