package intent

import (
	"bytes"
	"testing"
)

// FuzzIntentReplay throws arbitrary bytes — including truncated and
// bit-flipped images of real journals — at the recovery path. Open must
// never panic; when it does accept the image, the journal must remain
// protocol-usable.
func FuzzIntentReplay(f *testing.F) {
	// Seed 1: a healthy journal with live traffic and a compaction.
	healthy := newMemStore(MinStoreBytes)
	if j, err := Create(healthy, Config{}); err == nil {
		for s := uint64(1); s <= 12; s++ {
			_ = j.Begin(1, s, s*3, []byte("key"), bytes.Repeat([]byte("v"), 40), s%4 == 0)
			if s%2 == 0 {
				_ = j.Complete(1, s, byte(s), []byte("r"))
			}
		}
		_ = j.Compact()
	}
	f.Add(healthy.data)
	// Seed 2: truncated mid-journal.
	f.Add(healthy.data[:len(healthy.data)/2])
	// Seeds 3 and 4: the active half opens with a one-record snapshot of
	// in-flight, done and flag-result entries and goes on with live
	// records, a result that is only the "redo value" flag among them;
	// whole, and cut inside the snapshot record.
	snapshot := newMemStore(MinStoreBytes)
	if j, err := Create(snapshot, Config{}); err == nil {
		val := bytes.Repeat([]byte("v"), 40)
		for s := uint64(1); s <= 6; s++ {
			_ = j.Begin(2, s, s*3, []byte("key"), val, s%4 == 0)
			if s%2 == 0 {
				_ = j.Complete(2, s, byte(s), [][]byte{val, []byte("r")}[s/2%2])
			}
			if s == 4 {
				_ = j.Compact()
			}
		}
	}
	f.Add(snapshot.data)
	f.Add(snapshot.data[:headerBytes+minHalfBytes+pageBytes+100])
	// Seed 5: empty and garbage.
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0xA5}, MinStoreBytes))

	f.Fuzz(func(t *testing.T, data []byte) {
		// Pad to the minimum so size validation isn't the only path hit.
		buf := make([]byte, MinStoreBytes)
		copy(buf, data)
		ms := &memStore{data: buf}

		j, err := Open(ms, nil)
		if err == nil {
			// Whatever the bytes said, the journal must still work.
			if _, st := j.Lookup(999, 1); st != StateNew && st != StateBelowWindow {
				t.Fatalf("fresh client lookup state = %v", st)
			}
			seq := uint64(1)
			if w := j.table[999]; w != nil && w.low > seq {
				seq = w.low
			}
			if err := j.Begin(999, seq, 7, []byte("k"), []byte("v"), false); err == nil {
				if _, st := j.Lookup(999, seq); st != StateInFlight {
					t.Fatalf("post-Begin state = %v", st)
				}
				_ = j.Complete(999, seq, 1, nil)
			}
		}

		// Truncations of the (possibly rewritten) image must also never panic.
		for _, cut := range []int{0, 1, headerBytes - 1, headerBytes, len(buf) / 2, len(buf) - 3} {
			short := make([]byte, cut)
			copy(short, buf[:cut])
			_, _ = Open(&memStore{data: short}, nil)
		}
	})
}
