package intent

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"runtime"
	"testing"

	"viyojit/internal/obs"
	"viyojit/internal/sim"
)

type memStore struct{ data []byte }

func newMemStore(size int) *memStore { return &memStore{data: make([]byte, size)} }

func (m *memStore) Size() int64 { return int64(len(m.data)) }

func (m *memStore) ReadAt(p []byte, off int64) error {
	if off < 0 || off+int64(len(p)) > int64(len(m.data)) {
		return errors.New("memStore: out of range")
	}
	copy(p, m.data[off:])
	return nil
}

func (m *memStore) WriteAt(p []byte, off int64) error {
	if off < 0 || off+int64(len(p)) > int64(len(m.data)) {
		return errors.New("memStore: out of range")
	}
	copy(m.data[off:], p)
	return nil
}

func mustCreate(t *testing.T, size int) (*Journal, *memStore) {
	t.Helper()
	ms := newMemStore(size)
	j, err := Create(ms, Config{})
	if err != nil {
		t.Fatal(err)
	}
	return j, ms
}

func TestCreateValidation(t *testing.T) {
	if _, err := Create(newMemStore(MinStoreBytes-1), Config{}); err == nil {
		t.Fatal("undersized store accepted")
	}
	if _, err := Create(newMemStore(MinStoreBytes), Config{}); err != nil {
		t.Fatalf("minimum store rejected: %v", err)
	}
}

func TestOpenRejectsNonJournal(t *testing.T) {
	if _, err := Open(newMemStore(1<<16), nil); !errors.Is(err, ErrNoJournal) {
		t.Fatalf("err = %v, want ErrNoJournal", err)
	}
	// A header whose window is not DefaultWindow is corrupt.
	_, ms := mustCreate(t, MinStoreBytes)
	if _, err := Open(ms, nil); err != nil {
		t.Fatalf("fresh journal: %v", err)
	}
	for _, w := range []uint64{0, 1, DefaultWindow / 2, DefaultWindow + 1, math.MaxUint64} {
		binary.LittleEndian.PutUint64(ms.data[offWindow:], w)
		if _, err := Open(ms, nil); err == nil || errors.Is(err, ErrNoJournal) {
			t.Fatalf("header window %d: err = %v, want a corrupt-header error", w, err)
		}
	}
}

func TestProtocolStates(t *testing.T) {
	j, _ := mustCreate(t, 1<<16)

	if _, st := j.Lookup(7, 1); st != StateNew {
		t.Fatalf("unseen pair state = %v", st)
	}
	sum := Checksum([]byte("k"), []byte("v1"), 0)
	if err := j.Begin(7, 1, sum, []byte("k"), []byte("v1"), false); err != nil {
		t.Fatal(err)
	}
	e, st := j.Lookup(7, 1)
	if st != StateInFlight || !bytes.Equal(e.RedoKey, []byte("k")) || !bytes.Equal(e.RedoVal, []byte("v1")) || e.OpSum != sum {
		t.Fatalf("in-flight view = %+v state %v", e, st)
	}
	if err := j.Complete(7, 1, 3, []byte("res")); err != nil {
		t.Fatal(err)
	}
	e, st = j.Lookup(7, 1)
	if st != StateDone || e.Code != 3 || !bytes.Equal(e.Result, []byte("res")) {
		t.Fatalf("done view = %+v state %v", e, st)
	}
	if e.RedoKey != nil || e.RedoVal != nil {
		t.Fatal("redo image retained after Complete")
	}
}

func TestBeginValidation(t *testing.T) {
	j, _ := mustCreate(t, 1<<16)
	if err := j.Begin(0, 1, 0, []byte("k"), nil, true); err == nil {
		t.Fatal("zero client accepted")
	}
	if err := j.Begin(1, 0, 0, []byte("k"), nil, true); err == nil {
		t.Fatal("zero seq accepted")
	}
	if err := j.Begin(1, 1, 0, []byte("k"), nil, true); err != nil {
		t.Fatal(err)
	}
	if err := j.Begin(1, 1, 0, []byte("k"), nil, true); !errors.Is(err, ErrSeqReuse) {
		t.Fatalf("duplicate Begin err = %v, want ErrSeqReuse", err)
	}
}

func TestWindowGC(t *testing.T) {
	const W = DefaultWindow
	j, _ := mustCreate(t, 1<<16)
	for s := uint64(1); s <= W+6; s++ {
		if err := j.Begin(1, s, s, []byte("k"), []byte("v"), false); err != nil {
			t.Fatalf("seq %d: %v", s, err)
		}
		if err := j.Complete(1, s, 0, nil); err != nil {
			t.Fatalf("seq %d: %v", s, err)
		}
	}
	// maxSeq=W+6 → low=7: seqs 7..W+6 retryable, 1..6 GC'd.
	for s := uint64(1); s <= 6; s++ {
		if _, st := j.Lookup(1, s); st != StateBelowWindow {
			t.Fatalf("seq %d state = %v, want below-window", s, st)
		}
	}
	for s := uint64(7); s <= W+6; s++ {
		if _, st := j.Lookup(1, s); st != StateDone {
			t.Fatalf("seq %d state = %v, want done", s, st)
		}
	}
	if err := j.Begin(1, 3, 3, []byte("k"), []byte("v"), false); !errors.Is(err, ErrStaleSeq) {
		t.Fatalf("below-window Begin err = %v, want ErrStaleSeq", err)
	}
	if err := j.Complete(1, 3, 0, nil); !errors.Is(err, ErrStaleSeq) {
		t.Fatalf("below-window Complete err = %v, want ErrStaleSeq", err)
	}
	if got := j.Stats().GCDropped; got != 6 {
		t.Fatalf("GCDropped = %d, want 6", got)
	}
}

func TestCompactionPreservesTableAndSurvivesReopen(t *testing.T) {
	// Small journal so live traffic forces several compactions.
	j, ms := mustCreate(t, MinStoreBytes+4096*4)
	val := bytes.Repeat([]byte("x"), 200)
	for s := uint64(1); s <= 200; s++ {
		client := uint64(1 + s%3)
		if err := j.Begin(client, 1+(s-1)/3, s, []byte(fmt.Sprintf("key-%d", s%17)), val, false); err != nil {
			t.Fatalf("seq %d: %v", s, err)
		}
		if err := j.Complete(client, 1+(s-1)/3, byte(s%5), []byte("r")); err != nil {
			t.Fatalf("seq %d: %v", s, err)
		}
	}
	if j.Stats().Compactions == 0 {
		t.Fatal("no compaction triggered; test is vacuous")
	}
	before := j.Snapshot()
	j2, err := Open(ms, obs.NewRegistry())
	if err != nil {
		t.Fatal(err)
	}
	assertSnapshotsEqual(t, before, j2.Snapshot())
	if j2.gen != j.gen {
		t.Fatalf("reopened gen %d != live gen %d", j2.gen, j.gen)
	}
}

func TestExplicitCompactIdempotentState(t *testing.T) {
	j, ms := mustCreate(t, 1<<16)
	for s := uint64(1); s <= 5; s++ {
		if err := j.Begin(2, s, s, []byte("k"), []byte("v"), false); err != nil {
			t.Fatal(err)
		}
	}
	gen := j.gen
	if err := j.Compact(); err != nil {
		t.Fatal(err)
	}
	if j.gen != gen+1 {
		t.Fatalf("gen after compact = %d, want %d", j.gen, gen+1)
	}
	j2, err := Open(ms, nil)
	if err != nil {
		t.Fatal(err)
	}
	assertSnapshotsEqual(t, j.Snapshot(), j2.Snapshot())
}

func TestJournalFullAndUnjournaledComplete(t *testing.T) {
	// Minimum-size journal: each half has 4096 record bytes. Two fat
	// in-flight intents fill a half AND their compaction snapshot, so a
	// third Begin has nowhere to go even after compaction.
	j, _ := mustCreate(t, MinStoreBytes)
	fat := bytes.Repeat([]byte("z"), 1800)
	if err := j.Begin(1, 1, 1, []byte("a"), fat, false); err != nil {
		t.Fatal(err)
	}
	if err := j.Begin(1, 2, 2, []byte("b"), fat, false); err != nil {
		t.Fatal(err)
	}
	if err := j.Begin(1, 3, 3, []byte("c"), fat, false); !errors.Is(err, ErrJournalFull) {
		t.Fatalf("third fat Begin err = %v, want ErrJournalFull", err)
	}
	if _, st := j.Lookup(1, 3); st != StateNew {
		t.Fatalf("failed Begin left table entry: state %v", st)
	}
	// A fat result cannot be journaled either — Complete reports the
	// error but the table must still advance (retry costs one extra
	// redo re-apply, never a double apply).
	if err := j.Complete(1, 1, 9, bytes.Repeat([]byte("r"), 600)); err == nil {
		t.Fatal("expected unjournaled-complete error")
	}
	e, st := j.Lookup(1, 1)
	if st != StateDone || e.Code != 9 {
		t.Fatalf("table did not advance on unjournaled complete: %v %+v", st, e)
	}
}

func TestChecksumDistinguishesOps(t *testing.T) {
	a := Checksum([]byte("k"), []byte("v"), 0)
	if a != Checksum([]byte("k"), []byte("v"), 0) {
		t.Fatal("checksum not deterministic")
	}
	for _, other := range []uint64{
		Checksum([]byte("k"), []byte("w"), 0),
		Checksum([]byte("l"), []byte("v"), 0),
		Checksum([]byte("k"), []byte("v"), 1),
		Checksum([]byte("kv"), nil, 0),
		Checksum(nil, []byte("kv"), 0),
	} {
		if other == a {
			t.Fatal("checksum collision across distinct ops")
		}
	}
	// The lengths frame key against value: the same bytes split
	// differently are different ops.
	if Checksum([]byte("kv"), nil, 0) == Checksum(nil, []byte("kv"), 0) {
		t.Fatal(`("kv", nil) and ("", "kv") share a checksum`)
	}
}

func assertSnapshotsEqual(t *testing.T, a, b map[uint64]ClientSnapshot) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("client count %d != %d", len(a), len(b))
	}
	for c, ca := range a {
		cb, ok := b[c]
		if !ok {
			t.Fatalf("client %d missing", c)
		}
		if ca.Low != cb.Low || ca.MaxSeq != cb.MaxSeq {
			t.Fatalf("client %d window (%d,%d) != (%d,%d)", c, ca.Low, ca.MaxSeq, cb.Low, cb.MaxSeq)
		}
		if len(ca.Entries) != len(cb.Entries) {
			t.Fatalf("client %d entry count %d != %d", c, len(ca.Entries), len(cb.Entries))
		}
		for s, ea := range ca.Entries {
			eb, ok := cb.Entries[s]
			if !ok {
				t.Fatalf("client %d seq %d missing", c, s)
			}
			if ea.OpSum != eb.OpSum || ea.Done != eb.Done || ea.Code != eb.Code ||
				ea.Tombstone != eb.Tombstone ||
				!bytes.Equal(ea.RedoKey, eb.RedoKey) || !bytes.Equal(ea.RedoVal, eb.RedoVal) ||
				!bytes.Equal(ea.Result, eb.Result) {
				t.Fatalf("client %d seq %d entry mismatch:\n  %+v\n  %+v", c, s, ea, eb)
			}
		}
	}
}

// cutStore models power failure mid-write: the first `budget` bytes of
// write traffic land, everything after is lost, possibly tearing a
// record or header write down the middle.
type cutStore struct {
	*memStore
	budget int
}

// uncut is a budget no history reaches; spent is how much of it one used.
const uncut = 1 << 30

func (c *cutStore) spent() int { return uncut - c.budget }

func (c *cutStore) WriteAt(p []byte, off int64) error {
	if c.budget <= 0 {
		return nil // power is gone; writes vanish
	}
	n := len(p)
	if n > c.budget {
		n = c.budget
	}
	c.budget -= n
	return c.memStore.WriteAt(p[:n], off)
}

// Crash-prefix property: cut the write stream at every byte budget and
// the journal must reopen with a table that is a consistent prefix of
// the committed protocol history — acked (Completed) requests may only
// disappear wholesale with their intent (never resurface as in-flight
// with a *different* redo), and nothing ever decodes as garbage.
func TestCrashCutPrefix(t *testing.T) {
	type opRec struct {
		seq   uint64
		sum   uint64
		acked bool
	}
	runHistory := func(st Store) []opRec {
		j, err := Create(st, Config{})
		if err != nil {
			return nil // header itself torn; Open must reject, checked below
		}
		var hist []opRec
		val := bytes.Repeat([]byte("v"), 64)
		for s := uint64(1); s <= 40; s++ {
			if err := j.Begin(1, s, s*7, []byte(fmt.Sprintf("key-%d", s)), val, s%5 == 0); err != nil {
				break
			}
			hist = append(hist, opRec{seq: s, sum: s * 7})
			if s%3 != 0 { // leave every third op in flight
				if err := j.Complete(1, s, byte(s), nil); err != nil {
					break
				}
				hist[len(hist)-1].acked = true
			}
		}
		return hist
	}

	// Full run to size the write stream.
	full := &cutStore{memStore: newMemStore(1 << 15), budget: uncut}
	fullHist := runHistory(full)
	if len(fullHist) != 40 {
		t.Fatalf("full history ran %d ops, want 40", len(fullHist))
	}
	total := full.spent()

	for cut := 0; cut <= total; cut += 97 {
		cs := &cutStore{memStore: newMemStore(1 << 15), budget: cut}
		hist := runHistory(cs)
		j2, err := Open(cs.memStore, nil)
		if errors.Is(err, ErrNoJournal) {
			continue // crashed before the magic landed — correct refusal
		}
		if err != nil {
			t.Fatalf("cut %d: reopen failed: %v", cut, err)
		}
		snap := j2.Snapshot()[1]
		for _, op := range hist {
			e, ok := snap.Entries[op.seq]
			if !ok {
				continue // lost with the torn tail or GC'd — allowed
			}
			if e.OpSum != op.sum {
				t.Fatalf("cut %d: seq %d rebuilt with wrong opSum %d (want %d)", cut, op.seq, e.OpSum, op.sum)
			}
		}
		_ = hist
	}
}

// TestBeginCompleteAllocations pins a steady-state Begin+Complete pair,
// compactions included, at zero. Both records are encoded into the
// journal's buffer and appended through the log's, and a snapshot is
// staged and sorted in buffers the journal keeps. The dedup table's own
// state is recycled too: the entry is one the window dropped, and the
// redo image is copied into a buffer that came back from a Complete (nil
// result: Complete frees it) or from the window (redo result: the image
// is the cached result until its entry leaves the window). The window's
// map reuses the slot of the entry it drops.
func TestBeginCompleteAllocations(t *testing.T) {
	for _, tc := range []struct {
		name   string
		result func(val []byte) []byte
	}{
		{"nil result", func([]byte) []byte { return nil }},
		{"redo result", func(val []byte) []byte { return val }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			j, _ := mustCreate(t, 1<<22)
			key, val := []byte("user0001"), bytes.Repeat([]byte{'v'}, 100)
			result := tc.result(val)
			seq := uint64(0)
			pair := func() {
				seq++
				if err := j.Begin(1, seq, 7, key, val, false); err != nil {
					t.Fatal(err)
				}
				if err := j.Complete(1, seq, 0, result); err != nil {
					t.Fatal(err)
				}
			}
			for j.Stats().Compactions < 3 {
				pair() // fill the window, size the buffers, reach both halves' logs
			}
			before := j.Stats().Compactions
			if n := mallocs(500, pair); n != 0 {
				t.Fatalf("500 Begin+Complete pairs allocate %d times, want 0", n)
			}
			if j.Stats().Compactions == before {
				t.Fatal("no compaction inside the measured run")
			}
		})
	}
}

// recountLive is what the live-entry count used to be computed as on
// every Begin, a walk of every client's window, and the snapshot size
// that walk implies.
func (j *Journal) recountLive() (entries int, snapshotBytes int64) {
	snapshotBytes = 1
	for _, w := range j.table {
		entries += len(w.entries)
		snapshotBytes += snapClientBytes
		for _, e := range w.entries {
			snapshotBytes += e.snapBytes()
		}
	}
	return entries, snapshotBytes
}

// TestLiveEntriesMatchesRecount drives a seeded mix of Begin, Complete,
// Compact and Open (replaying intents, results and snapshot records,
// with windows sliding and garbage-collecting throughout) and checks the
// running live-entry and live-byte counts, the Stats fields and the
// gauges against a recount after every step, and the byte count against
// the snapshot Compact actually wrote.
func TestLiveEntriesMatchesRecount(t *testing.T) {
	reg := obs.NewRegistry()
	ms := newMemStore(1 << 20)
	j, err := Create(ms, Config{Obs: reg})
	if err != nil {
		t.Fatal(err)
	}
	rng := sim.NewRNG(31)
	next := map[uint64]uint64{}
	var open []struct{ client, seq uint64 }
	reopens, compactions := 0, 0
	for step := 0; step < 3000; step++ {
		switch r := rng.Intn(100); {
		case r < 50:
			client := uint64(1 + rng.Intn(6))
			next[client]++
			if err := j.Begin(client, next[client], 7, []byte("k"), []byte("value")[:1+r%5], r%2 == 0); err != nil {
				t.Fatalf("step %d: begin: %v", step, err)
			}
			open = append(open, struct{ client, seq uint64 }{client, next[client]})
		case r < 90 && len(open) > 0:
			i := rng.Intn(len(open))
			// A seq the window has since dropped completes as a no-op.
			// The result is the redo value, something else, or nothing.
			result := [][]byte{[]byte("value")[:1+r%5], []byte("r"), nil}[r%3]
			if err := j.Complete(open[i].client, open[i].seq, 0, result); err != nil && !errors.Is(err, ErrStaleSeq) {
				t.Fatalf("step %d: complete: %v", step, err)
			}
			open = append(open[:i], open[i+1:]...)
		case r < 95:
			wrote := j.Stats().SnapshotBytes
			if err := j.Compact(); err != nil {
				t.Fatalf("step %d: compact: %v", step, err)
			}
			compactions++
			if wrote = j.Stats().SnapshotBytes - wrote; int64(wrote) != j.Stats().LiveBytes {
				t.Fatalf("step %d: snapshot of %d bytes, live bytes %d", step, wrote, j.Stats().LiveBytes)
			}
		default:
			if j, err = Open(ms, reg); err != nil {
				t.Fatalf("step %d: open: %v", step, err)
			}
			reopens++
		}
		want, wantBytes := j.recountLive()
		if j.live != want || j.Stats().LiveEntries != want {
			t.Fatalf("step %d: live counter %d, Stats %d, recount %d", step, j.live, j.Stats().LiveEntries, want)
		}
		if got := reg.Gauge("intent_live_entries").Value(); got != int64(want) {
			t.Fatalf("step %d: gauge %d, recount %d", step, got, want)
		}
		if got := j.Stats().LiveBytes; got != wantBytes {
			t.Fatalf("step %d: live bytes %d, recount %d", step, got, wantBytes)
		}
		if got := reg.Gauge("intent_live_bytes").Value(); got != wantBytes {
			t.Fatalf("step %d: live-bytes gauge %d, recount %d", step, got, wantBytes)
		}
	}
	dropped, replayed := reg.Counter("intent_gc_dropped_total").Value(), reg.Counter("intent_replayed_records_total").Value()
	if reopens == 0 || compactions == 0 || dropped == 0 || replayed == 0 || j.live == 0 {
		t.Fatalf("schedule missed a path: %d reopens, %d compactions, %d dropped, %d replayed, %d live",
			reopens, compactions, dropped, replayed, j.live)
	}
}

// mallocs runs f runs times to reach steady state, then runs times more,
// and returns what the second pass allocated in total:
// testing.AllocsPerRun's integer average would hide up to runs-1
// allocations.
func mallocs(runs int, f func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	for i := 0; i < runs; i++ {
		f()
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs
}
