package intent

import (
	"bytes"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"viyojit/internal/obs"
	"viyojit/internal/sim"
)

// clockStore charges every access to a virtual clock, as a mapping does:
// two journals that make the same store accesses read the same time.
type clockStore struct {
	*memStore
	clock *sim.Clock
}

func (c clockStore) ReadAt(p []byte, off int64) error {
	c.clock.Advance(sim.Duration(50 + len(p)))
	return c.memStore.ReadAt(p, off)
}

func (c clockStore) WriteAt(p []byte, off int64) error {
	c.clock.Advance(sim.Duration(80 + len(p)))
	return c.memStore.WriteAt(p, off)
}

// driveJournal runs steps seeded requests from six clients through j,
// each client's seqs following the highest in j's table: intents left in
// flight, plain results, results that are the redo value, tombstones.
func driveJournal(t *testing.T, j *Journal, rng *sim.RNG, steps int) {
	t.Helper()
	next := map[uint64]uint64{}
	for c, w := range j.Snapshot() {
		next[c] = w.MaxSeq
	}
	for step := 0; step < steps; step++ {
		client := uint64(1 + rng.Intn(6))
		next[client]++
		seq := next[client]
		key := []byte(fmt.Sprintf("k%d", rng.Intn(50)))
		val := bytes.Repeat([]byte{byte(step)}, 1+rng.Intn(120))
		if err := j.Begin(client, seq, Checksum(key, val, 0), key, val, rng.Intn(9) == 0); err != nil {
			t.Fatalf("step %d: Begin: %v", step, err)
		}
		var err error
		switch rng.Intn(4) {
		case 0: // left in flight
		case 1:
			err = j.Complete(client, seq, 0, val)
		default:
			err = j.Complete(client, seq, byte(step), []byte(fmt.Sprintf("r%d", step%7)))
		}
		if err != nil {
			t.Fatalf("step %d: Complete: %v", step, err)
		}
	}
}

// journalImage returns the bytes of a 64 KiB journal that holds intents,
// results and a compaction snapshot, and whose last record's final byte
// never landed: a torn tail.
func journalImage(t *testing.T, seed uint64) []byte {
	t.Helper()
	j, ms := mustCreate(t, 1<<16)
	driveJournal(t, j, sim.NewRNG(seed), 500)
	if j.Stats().Compactions == 0 {
		t.Fatal("the journal never compacted: the test would prove nothing")
	}
	image := bytes.Clone(ms.data)
	image[headerBytes+int64(j.gen&1)*j.halfSize+j.log.Head()-1] ^= 0xFF
	return image
}

// TestRecycledJournalMatchesFresh: a journal reopened on a retired
// journal's tables and buffers (OpenOn) reads as one Open rebuilt. The
// donor was itself reopened and has compacted, so its table, windows,
// entries, image buffers and both logs are populated. Over a journal
// image holding intents, results, a compaction snapshot and a torn tail,
// the recycled journal's Snapshot, Pending, Stats, TornOpen and virtual
// clock equal a fresh Open's, and they stay equal, store bytes included,
// over the same traffic afterwards. The donor panics on use, naming
// retirement, and its Stats still read.
func TestRecycledJournalMatchesFresh(t *testing.T) {
	for seed := uint64(1); seed <= 3; seed++ {
		image := journalImage(t, seed)
		donor, err := Open(&memStore{data: journalImage(t, seed+100)}, nil)
		if err != nil {
			t.Fatal(err)
		}
		driveJournal(t, donor, sim.NewRNG(seed+200), 300)
		if err := donor.Compact(); err != nil {
			t.Fatal(err)
		}
		if donor.logs[0] == nil || donor.logs[1] == nil || donor.live == 0 || len(donor.imgs) == 0 {
			t.Fatalf("seed %d: the donor holds %d entries, %d image buffers and logs %v: the test would prove nothing",
				seed, donor.live, len(donor.imgs), donor.logs)
		}
		donorStats, table := donor.Stats(), reflect.ValueOf(donor.table).UnsafePointer()

		freshClock, recycledClock := sim.NewClock(), sim.NewClock()
		freshStore := clockStore{&memStore{data: bytes.Clone(image)}, freshClock}
		recycledStore := clockStore{&memStore{data: bytes.Clone(image)}, recycledClock}
		fresh, err := Open(freshStore, obs.NewRegistry())
		if err != nil {
			t.Fatal(err)
		}
		recycled, err := OpenOn(recycledStore, obs.NewRegistry(), donor)
		if err != nil {
			t.Fatal(err)
		}
		if reflect.ValueOf(recycled.table).UnsafePointer() != table {
			t.Fatalf("seed %d: the reopened journal did not take the donor's table", seed)
		}
		for what, use := range map[string]func(){
			"Lookup":   func() { donor.Lookup(1, 1) },
			"Begin":    func() { _ = donor.Begin(1, 1000, 1, []byte("k"), []byte("v"), false) },
			"Snapshot": func() { donor.Snapshot() },
			"OpenOn":   func() { _, _ = OpenOn(&memStore{data: bytes.Clone(image)}, nil, donor) },
		} {
			func() {
				defer func() {
					if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "retired") {
						t.Fatalf("seed %d: %s on the donor after the hand-off: panic %v, want one naming retirement", seed, what, r)
					}
				}()
				use()
			}()
		}
		if got := donor.Stats(); got != donorStats {
			t.Fatalf("seed %d: the donor's Stats changed across the hand-off:\n%+v\nwant %+v", seed, got, donorStats)
		}

		check := func(when string) {
			t.Helper()
			if !fresh.TornOpen() || recycled.TornOpen() != fresh.TornOpen() {
				t.Fatalf("seed %d, %s: TornOpen recycled %v, fresh %v, want both true", seed, when, recycled.TornOpen(), fresh.TornOpen())
			}
			if !snapshotsEqual(recycled.Snapshot(), fresh.Snapshot()) {
				t.Fatalf("seed %d, %s: Snapshots differ", seed, when)
			}
			if g, w := recycled.Pending(), fresh.Pending(); !reflect.DeepEqual(g, w) || len(w) == 0 {
				t.Fatalf("seed %d, %s: Pending differs or is empty:\nrecycled %+v\nfresh    %+v", seed, when, g, w)
			}
			if g, w := recycled.Stats(), fresh.Stats(); g != w {
				t.Fatalf("seed %d, %s: Stats differ:\nrecycled %+v\nfresh    %+v", seed, when, g, w)
			}
			if g, w := recycledClock.Now(), freshClock.Now(); g != w {
				t.Fatalf("seed %d, %s: virtual time differs: recycled %v, fresh %v", seed, when, g, w)
			}
		}
		check("after the reopen")
		driveJournal(t, recycled, sim.NewRNG(seed+300), 400)
		driveJournal(t, fresh, sim.NewRNG(seed+300), 400)
		if fresh.Stats().Compactions == 0 {
			t.Fatalf("seed %d: no compaction after the reopen: both logs were not exercised", seed)
		}
		check("after the same traffic")
		if !bytes.Equal(recycledStore.data, freshStore.data) {
			t.Fatalf("seed %d: the store images differ after the same traffic", seed)
		}
	}
}
