package wal

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"testing/quick"

	"viyojit/internal/sim"
)

// memStore mirrors the pheap test store.
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

func TestCreateValidation(t *testing.T) {
	if _, err := Create(newMemStore(100)); err == nil {
		t.Fatal("tiny store accepted")
	}
}

func TestAppendReplayRoundTrip(t *testing.T) {
	l, err := Create(newMemStore(1 << 16))
	if err != nil {
		t.Fatal(err)
	}
	var want [][]byte
	for i := 0; i < 20; i++ {
		payload := []byte(fmt.Sprintf("txn-%03d", i))
		want = append(want, payload)
		seq, err := l.Append(payload)
		if err != nil {
			t.Fatal(err)
		}
		if seq != uint64(i+1) {
			t.Fatalf("seq = %d, want %d", seq, i+1)
		}
	}
	var got [][]byte
	if err := l.Replay(func(seq uint64, p []byte) error {
		got = append(got, append([]byte(nil), p...))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("replayed %d records, want %d", len(got), len(want))
	}
	for i := range want {
		if !bytes.Equal(got[i], want[i]) {
			t.Fatalf("record %d = %q, want %q", i, got[i], want[i])
		}
	}
}

func TestAppendRejectsEmptyAndFull(t *testing.T) {
	l, err := Create(newMemStore(recordBase + 64))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append(nil); err == nil {
		t.Fatal("empty payload accepted")
	}
	if _, err := l.Append(make([]byte, 16)); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append(make([]byte, 64)); !errors.Is(err, ErrFull) {
		t.Fatalf("overfull append: %v, want ErrFull", err)
	}
}

func TestOpenRecoversCommittedRecords(t *testing.T) {
	ms := newMemStore(1 << 16)
	l1, err := Create(ms)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if _, err := l1.Append([]byte(fmt.Sprintf("r%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	l2, err := Open(ms)
	if err != nil {
		t.Fatal(err)
	}
	n, err := countRecords(l2)
	if err != nil {
		t.Fatal(err)
	}
	if n != 10 {
		t.Fatalf("recovered %d records, want 10", n)
	}
	// Appends continue with the right sequence.
	seq, err := l2.Append([]byte("post-recovery"))
	if err != nil {
		t.Fatal(err)
	}
	if seq != 11 {
		t.Fatalf("post-recovery seq = %d, want 11", seq)
	}
}

func TestOpenRejectsNonLog(t *testing.T) {
	if _, err := Open(newMemStore(1 << 16)); err == nil {
		t.Fatal("unformatted store accepted")
	}
}

func TestTornRecordStopsReplay(t *testing.T) {
	ms := newMemStore(1 << 16)
	l, err := Create(ms)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if _, err := l.Append([]byte(fmt.Sprintf("ok-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	// Simulate a torn append: record bytes partially written, header
	// already advanced (the worst case). Corrupt the last record's
	// payload in place.
	ms.data[l.Head()-1] ^= 0xFF
	l2, err := Open(ms)
	if err != nil {
		t.Fatal(err)
	}
	n, err := countRecords(l2)
	if err != nil {
		t.Fatal(err)
	}
	if n != 4 {
		t.Fatalf("replay returned %d records, want 4 (prefix before the torn one)", n)
	}
}

func TestTornHeaderRebuilds(t *testing.T) {
	ms := newMemStore(1 << 16)
	l, err := Create(ms)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 7; i++ {
		if _, err := l.Append([]byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	// Tear the header's head field completely.
	for i := 0; i < 8; i++ {
		ms.data[offHead+i] = 0xFF
	}
	l2, err := Open(ms)
	if err != nil {
		t.Fatal(err)
	}
	n, err := countRecords(l2)
	if err != nil {
		t.Fatal(err)
	}
	if n != 7 {
		t.Fatalf("rebuilt log has %d records, want 7", n)
	}
	if seq, err := l2.Append([]byte("after")); err != nil || seq != 8 {
		t.Fatalf("append after rebuild: seq=%d err=%v", seq, err)
	}
}

func TestReplayCallbackErrorAborts(t *testing.T) {
	l, err := Create(newMemStore(1 << 16))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := l.Append([]byte("r")); err != nil {
			t.Fatal(err)
		}
	}
	boom := errors.New("boom")
	if err := l.Replay(func(uint64, []byte) error { return boom }); !errors.Is(err, boom) {
		t.Fatalf("replay error = %v, want boom", err)
	}
}

func TestReset(t *testing.T) {
	ms := newMemStore(1 << 16)
	l, err := Create(ms)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if _, err := l.Append([]byte("old")); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Reset(); err != nil {
		t.Fatal(err)
	}
	n, err := countRecords(l)
	if err != nil {
		t.Fatal(err)
	}
	if n != 0 {
		t.Fatalf("records after reset = %d", n)
	}
	// New appends start at seq 1 and old bytes never resurface.
	if seq, err := l.Append([]byte("new")); err != nil || seq != 1 {
		t.Fatalf("append after reset: seq=%d err=%v", seq, err)
	}
	l2, err := Open(ms)
	if err != nil {
		t.Fatal(err)
	}
	if n, _ := countRecords(l2); n != 1 {
		t.Fatalf("reopened log has %d records, want 1", n)
	}
}

// A reused log must not report the pre-reset torn tail: Reset clears
// the StopReason along with the head, so recovery code keying off
// LastStop sees a clean log.
func TestResetClearsStopReason(t *testing.T) {
	ms := newMemStore(1 << 16)
	l, err := Create(ms)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append([]byte("committed")); err != nil {
		t.Fatal(err)
	}
	// Tear the tail: bytes of a second record, header never advanced,
	// then a corrupted header so the scan sees garbage.
	if err := ms.WriteAt([]byte{0xFF, 0xFF, 0xFF, 0x7F}, l.Head()); err != nil {
		t.Fatal(err)
	}
	l.head = -1 // force a full scan, like Open's rebuild after a torn header
	if err := l.Replay(func(uint64, []byte) error { return nil }); err != nil {
		t.Fatal(err)
	}
	if l.LastStop() != StopTorn {
		t.Fatalf("setup: LastStop = %v, want StopTorn", l.LastStop())
	}
	if err := l.Reset(); err != nil {
		t.Fatal(err)
	}
	if l.LastStop() != StopHead {
		t.Fatalf("LastStop after Reset = %v, want StopHead (stale StopReason leaked)", l.LastStop())
	}
}

// Property: crash at any byte boundary during an append sequence loses at
// most the in-flight record; the committed prefix always replays intact.
func TestCrashPrefixProperty(t *testing.T) {
	f := func(seed uint64, nRecords uint8, cut uint16) bool {
		rng := sim.NewRNG(seed)
		ms := newMemStore(1 << 16)
		l, err := Create(ms)
		if err != nil {
			return false
		}
		var committed [][]byte
		for i := 0; i < int(nRecords)%30+1; i++ {
			payload := make([]byte, rng.Intn(100)+1)
			for j := range payload {
				payload[j] = byte(rng.Uint64())
			}
			if _, err := l.Append(payload); err != nil {
				return false
			}
			committed = append(committed, payload)
		}
		// Crash: zero a suffix of the store starting at a random point
		// AFTER the last committed record (modelling a torn in-flight
		// append beyond the head).
		start := l.Head() + int64(cut)%256
		if start < int64(len(ms.data)) {
			for i := start; i < int64(len(ms.data)); i++ {
				ms.data[i] = 0
			}
		}
		l2, err := Open(ms)
		if err != nil {
			return false
		}
		var got [][]byte
		if err := l2.Replay(func(_ uint64, p []byte) error {
			got = append(got, append([]byte(nil), p...))
			return nil
		}); err != nil {
			return false
		}
		if len(got) != len(committed) {
			return false
		}
		for i := range got {
			if !bytes.Equal(got[i], committed[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestEveryBitFlipOfARecordStopsReplay is the detection-strength bar for
// the 32-bit record checksum, exhaustive over one committed 1 KiB record
// (header and payload): whichever bit flips, Replay delivers the intact
// prefix and stops StopTorn at that record — never a damaged payload,
// never the records behind it.
func TestEveryBitFlipOfARecordStopsReplay(t *testing.T) {
	ms := newMemStore(1 << 14)
	l, err := Create(ms)
	if err != nil {
		t.Fatal(err)
	}
	first := []byte("intact prefix")
	if _, err := l.Append(first); err != nil {
		t.Fatal(err)
	}
	target := l.Head()
	payload := make([]byte, 1024)
	for i := range payload {
		payload[i] = byte(i*131 + 7)
	}
	if _, err := l.Append(payload); err != nil {
		t.Fatal(err)
	}
	end := l.Head()
	if _, err := l.Append([]byte("behind the damage")); err != nil {
		t.Fatal(err)
	}

	undetected := 0
	for bit := int64(0); bit < (end-target)*8; bit++ {
		ms.data[target+bit/8] ^= 1 << (bit % 8)
		lg, err := Open(ms)
		if err != nil {
			t.Fatalf("bit %d: open: %v", bit, err)
		}
		var got [][]byte
		if err := lg.Replay(func(_ uint64, p []byte) error {
			got = append(got, bytes.Clone(p))
			return nil
		}); err != nil {
			t.Fatalf("bit %d: replay errored instead of stopping: %v", bit, err)
		}
		if len(got) != 1 || !bytes.Equal(got[0], first) || lg.LastStop() != StopTorn {
			undetected++
			t.Errorf("bit %d of the record: replayed %d records, stop %v; want the 1-record prefix and torn", bit, len(got), lg.LastStop())
		}
		ms.data[target+bit/8] ^= 1 << (bit % 8)
	}
	t.Logf("%d damaged records checked, %d undetected", (end-target)*8, undetected)

	lg, err := Open(ms)
	if err != nil {
		t.Fatal(err)
	}
	if n, err := countRecords(lg); err != nil || n != 3 || lg.LastStop() != StopHead {
		t.Fatalf("restored image replays %d records (err %v, stop %v), want 3 to the head", n, err, lg.LastStop())
	}
}

// TestAppendAllocations pins a steady-state Append at zero allocations:
// the record and the header image are built in buffers the log owns, and
// the checksum runs over the record buffer.
func TestAppendAllocations(t *testing.T) {
	l, err := Create(newMemStore(1 << 22))
	if err != nil {
		t.Fatal(err)
	}
	payload := make([]byte, 1024)
	if n := mallocs(1000, func() {
		if _, err := l.Append(payload); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("1000 Appends allocate %d times, want 0", n)
	}
}

// TestReplayReusesPayloadBuffer: Replay reads every record into one
// buffer the Log owns. A payload kept past fn without a copy is the same
// memory as the next one, and reads the next record's bytes once that is
// read; a steady-state Replay allocates nothing.
func TestReplayReusesPayloadBuffer(t *testing.T) {
	l, err := Create(newMemStore(1 << 14))
	if err != nil {
		t.Fatal(err)
	}
	first, second := bytes.Repeat([]byte{'a'}, 64), bytes.Repeat([]byte{'b'}, 48)
	for _, p := range [][]byte{first, second} {
		if _, err := l.Append(p); err != nil {
			t.Fatal(err)
		}
	}
	var kept [][]byte
	var copies [][]byte
	if err := l.Replay(func(_ uint64, p []byte) error {
		kept = append(kept, p)
		copies = append(copies, bytes.Clone(p))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(kept) != 2 || !bytes.Equal(copies[0], first) || !bytes.Equal(copies[1], second) {
		t.Fatalf("replayed %q, want the two records appended", copies)
	}
	if &kept[0][0] != &kept[1][0] || !bytes.Equal(kept[0][:len(second)], second) {
		t.Fatalf("the first payload, kept uncopied, reads %q after the second was read: the buffer was not reused", kept[0])
	}
	if n := mallocs(100, func() {
		if _, err := countRecords(l); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("100 Replays allocate %d times, want 0", n)
	}
}

// TestOpenOnRetiresDonor: a log opened or created on a retired log's
// buffers uses them, reads what Open and Create would, and leaves the
// donor panicking, naming retirement, on any access to its store, while
// its Head still reads.
func TestOpenOnRetiresDonor(t *testing.T) {
	ms := newMemStore(1 << 14)
	donor, err := Create(ms)
	if err != nil {
		t.Fatal(err)
	}
	want := [][]byte{[]byte("one"), bytes.Repeat([]byte{'x'}, 300), []byte("three")}
	for _, p := range want {
		if _, err := donor.Append(p); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := countRecords(donor); err != nil {
		t.Fatal(err)
	}
	rec, payload, head := &donor.rec[0], &donor.payload[0], donor.Head()
	l, err := OpenOn(ms, donor)
	if err != nil {
		t.Fatal(err)
	}
	var got [][]byte
	if err := l.Replay(func(_ uint64, p []byte) error {
		got = append(got, bytes.Clone(p))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(got) != fmt.Sprint(want) || l.LastStop() != StopHead {
		t.Fatalf("the log opened on the donor's buffers replays %q (stop %v), want %q", got, l.LastStop(), want)
	}
	if &l.payload[0] != payload || &l.rec[:1][0] != rec {
		t.Fatal("OpenOn did not take the donor's buffers")
	}
	if donor.Head() != head {
		t.Fatalf("the donor's Head reads %d after the hand-off, want %d", donor.Head(), head)
	}
	for what, use := range map[string]func(){
		"Append": func() { _, _ = donor.Append([]byte("late")) },
		"Replay": func() { _, _ = countRecords(donor) },
	} {
		func() {
			defer func() {
				if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "retired") {
					t.Fatalf("%s on the donor: panic %v, want one naming retirement", what, r)
				}
			}()
			use()
		}()
	}
	fresh, err := CreateOn(newMemStore(1<<14), l)
	if err != nil {
		t.Fatal(err)
	}
	if n, err := countRecords(fresh); err != nil || n != 0 || &fresh.payload[:1][0] != payload {
		t.Fatalf("a log created on the buffers holds %d records (err %v), or did not take them", n, err)
	}
}

// countRecords returns the number of committed records by replaying l.
func countRecords(l *Log) (int, error) {
	n := 0
	err := l.Replay(func(uint64, []byte) error {
		n++
		return nil
	})
	return n, err
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
