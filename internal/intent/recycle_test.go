package intent

import (
	"bytes"
	"fmt"
	"slices"
	"testing"

	"viyojit/internal/sim"
)

// refEntry is the model's private copy of one table entry.
type refEntry struct {
	opSum            uint64
	done             bool
	code             byte
	tombstone        bool
	key, val, result []byte
}

type refWin struct {
	low, maxSeq uint64
	entries     map[uint64]*refEntry
}

// refTable is the dedup table as a map that owns every byte it holds:
// what the journal's table must read as, however it recycles buffers.
type refTable struct {
	wins map[uint64]*refWin
}

func (m *refTable) clone() *refTable {
	c := &refTable{wins: make(map[uint64]*refWin, len(m.wins))}
	for id, w := range m.wins {
		cw := &refWin{low: w.low, maxSeq: w.maxSeq, entries: make(map[uint64]*refEntry, len(w.entries))}
		for s, e := range w.entries {
			ce := *e
			cw.entries[s] = &ce
		}
		c.wins[id] = cw
	}
	return c
}

func (m *refTable) begin(client, seq, sum uint64, key, val []byte, tombstone bool) {
	w := m.wins[client]
	if w == nil {
		w = &refWin{low: 1, entries: make(map[uint64]*refEntry)}
		m.wins[client] = w
	}
	w.entries[seq] = &refEntry{opSum: sum, tombstone: tombstone, key: bytes.Clone(key), val: bytes.Clone(val)}
	w.maxSeq = max(w.maxSeq, seq)
	if w.maxSeq >= DefaultWindow {
		for ; w.low < w.maxSeq-DefaultWindow+1; w.low++ {
			delete(w.entries, w.low)
		}
	}
}

func (m *refTable) complete(client, seq uint64, code byte, result []byte) {
	e := m.wins[client].entries[seq]
	if len(result) > 0 && bytes.Equal(result, e.val) {
		result = e.val
	} else {
		result = bytes.Clone(result)
	}
	e.done, e.code, e.result, e.key, e.val = true, code, result, nil, nil
}

// entry returns the model's entry for (client, seq), nil if the table has
// none.
func (m *refTable) entry(client, seq uint64) *refEntry {
	if w := m.wins[client]; w != nil {
		return w.entries[seq]
	}
	return nil
}

func (m *refTable) snapshot() map[uint64]ClientSnapshot {
	out := make(map[uint64]ClientSnapshot, len(m.wins))
	for id, w := range m.wins {
		cs := ClientSnapshot{Low: w.low, MaxSeq: w.maxSeq, Entries: make(map[uint64]Entry, len(w.entries))}
		for s, e := range w.entries {
			cs.Entries[s] = Entry{OpSum: e.opSum, Done: e.done, Code: e.code, Tombstone: e.tombstone,
				RedoKey: e.key, RedoVal: e.val, Result: e.result}
		}
		out[id] = cs
	}
	return out
}

// inFlight lists the model's in-flight (client, seq) pairs in Pending's
// order.
func (m *refTable) inFlight() []PendingIntent {
	var out []PendingIntent
	for id, w := range m.wins {
		for s, e := range w.entries {
			if !e.done {
				out = append(out, PendingIntent{Client: id, Seq: s,
					Entry: Entry{OpSum: e.opSum, Tombstone: e.tombstone, RedoKey: e.key, RedoVal: e.val}})
			}
		}
	}
	slices.SortFunc(out, func(a, b PendingIntent) int {
		if a.Client != b.Client {
			return int(a.Client) - int(b.Client)
		}
		return int(a.Seq) - int(b.Seq)
	})
	return out
}

// heldView is a slice a Lookup returned, with the bytes it held then.
type heldView struct {
	client, seq uint64
	redo        bool // a redo image (RedoKey or RedoVal), else a Result
	view, want  []byte
}

// alive reports whether the view's documented life lasts in table m: a
// redo image until its entry completes or leaves the window, a result
// until its entry leaves the window.
func (v heldView) alive(m *refTable) bool {
	e := m.entry(v.client, v.seq)
	return e != nil && e.done != v.redo
}

// crashStore lands writes in full until a crash is armed, then lands
// writes more in full, tears the next record write to tear bytes, and
// drops the rest. Writes of 16 bytes or less — the journal's generation
// word and the log's head ‖ seq — land whole or not at all, as the
// NV-DRAM region applies them.
type crashStore struct {
	*memStore
	armed  bool
	writes int
	tear   int
}

func (c *crashStore) WriteAt(p []byte, off int64) error {
	switch {
	case !c.armed:
	case c.writes > 0:
		c.writes--
	default:
		if len(p) > 16 && c.tear > 0 {
			c.memStore.WriteAt(p[:min(c.tear, len(p)-1)], off)
			c.tear = 0
		}
		return nil // power is gone; the write vanishes
	}
	return c.memStore.WriteAt(p, off)
}

// TestRecycledTableMatchesPrivateCopies drives a seeded script over three
// clients — Begin, Complete with a nil, a redo-equal and a
// different result, tombstones, Lookup, Compact, Pending, and a crash cut
// mid-Begin or mid-Complete followed by Open — and after every step
// checks the journal's table against a model that owns private copies of
// every byte, and every view Lookup returned against the bytes it held
// for as long as Entry says the view lives. The journal recycles entries
// and image buffers, so a buffer handed back too early, or an entry
// reused without a reset, shows up here as a table or a view that
// changed under the model.
func TestRecycledTableMatchesPrivateCopies(t *testing.T) {
	const clients = 3
	for _, seed := range []uint64{1, 7, 0x5EED} {
		t.Run(fmt.Sprintf("seed-%#x", seed), func(t *testing.T) {
			rng := sim.NewRNG(seed)
			cs := &crashStore{memStore: newMemStore(1 << 18)}
			j, err := Create(cs, Config{})
			if err != nil {
				t.Fatal(err)
			}
			ref := &refTable{wins: map[uint64]*refWin{}}
			next := map[uint64]uint64{}
			var views []heldView
			randBytes := func(n int) []byte {
				p := make([]byte, n)
				for i := range p {
					p[i] = byte(rng.Intn(256))
				}
				return p
			}
			// begin issues the client's next seq with a fresh redo image.
			begin := func(client uint64) error {
				next[client]++
				seq := next[client]
				key := randBytes(1 + rng.Intn(12))
				tombstone := rng.Intn(5) == 0
				var val []byte
				if !tombstone {
					val = randBytes(rng.Intn(48))
				}
				sum := Checksum(key, val, seq)
				if err := j.Begin(client, seq, sum, key, val, tombstone); err != nil {
					return err
				}
				ref.begin(client, seq, sum, key, val, tombstone)
				return nil
			}
			// complete finishes a random in-flight entry with a nil, a
			// redo-equal (a copy of the redo value) or a different result.
			complete := func() (bool, error) {
				open := ref.inFlight()
				if len(open) == 0 {
					return false, nil
				}
				p := open[rng.Intn(len(open))]
				code := byte(rng.Intn(256))
				var result []byte
				switch rng.Intn(3) {
				case 1:
					result = bytes.Clone(p.Entry.RedoVal)
				case 2:
					result = randBytes(1 + rng.Intn(24))
				}
				if err := j.Complete(p.Client, p.Seq, code, result); err != nil {
					return true, err
				}
				ref.complete(p.Client, p.Seq, code, result)
				return true, nil
			}
			var begins, completes, lookups, compacts, crashes, pendings, torn int
			for step := 0; step < 2500; step++ {
				client := uint64(1 + rng.Intn(clients))
				switch r := rng.Intn(100); {
				case r < 35:
					if err := begin(client); err != nil {
						t.Fatalf("step %d: begin: %v", step, err)
					}
					begins++
				case r < 65:
					if _, err := complete(); err != nil {
						t.Fatalf("step %d: complete: %v", step, err)
					}
					completes++
				case r < 85:
					w := ref.wins[client]
					if w == nil {
						break
					}
					seq := w.low - 1 + uint64(rng.Intn(int(w.maxSeq-w.low+3)))
					e, st := j.Lookup(client, seq)
					want := StateNew
					switch re := ref.entry(client, seq); {
					case seq < w.low:
						want = StateBelowWindow
					case re != nil && re.done:
						want = StateDone
					case re != nil:
						want = StateInFlight
					}
					if st != want {
						t.Fatalf("step %d: Lookup(%d, %d) = %v, model says %v", step, client, seq, st, want)
					}
					switch st {
					case StateInFlight:
						for _, v := range [][]byte{e.RedoKey, e.RedoVal} {
							views = append(views, heldView{client, seq, true, v, bytes.Clone(v)})
						}
					case StateDone:
						views = append(views, heldView{client, seq, false, e.Result, bytes.Clone(e.Result)})
					}
					lookups++
				case r < 90:
					if err := j.Compact(); err != nil {
						t.Fatalf("step %d: compact: %v", step, err)
					}
					compacts++
				case r < 94:
					got, want := j.Pending(), ref.inFlight()
					if len(got) != len(want) {
						t.Fatalf("step %d: %d pending intents, model has %d", step, len(got), len(want))
					}
					for i := range got {
						g, w := got[i], want[i]
						if g.Client != w.Client || g.Seq != w.Seq || g.Entry.OpSum != w.Entry.OpSum ||
							g.Entry.Tombstone != w.Entry.Tombstone ||
							!bytes.Equal(g.Entry.RedoKey, w.Entry.RedoKey) || !bytes.Equal(g.Entry.RedoVal, w.Entry.RedoVal) {
							t.Fatalf("step %d: pending[%d] = %+v, model %+v", step, i, g, w)
						}
					}
					pendings++
				default:
					// Power fails part-way through a Begin or a Complete: the
					// reopened table is the model before the op or after it.
					pre := ref.clone()
					cs.armed, cs.writes, cs.tear = true, rng.Intn(6), rng.Intn(64)
					var err error
					if rng.Intn(2) == 0 {
						err = begin(client)
					} else if ok, cerr := complete(); ok {
						err = cerr
					}
					cs.armed = false
					if err != nil {
						t.Fatalf("step %d: op under a crash cut: %v", step, err)
					}
					if j, err = Open(cs, nil); err != nil {
						t.Fatalf("step %d: open after a crash cut: %v", step, err)
					}
					got := j.Snapshot()
					if !snapshotsEqual(got, ref.snapshot()) {
						if !snapshotsEqual(got, pre.snapshot()) {
							t.Fatalf("step %d: the reopened table is neither the model before the cut op nor after it", step)
						}
						ref = pre
						torn++
					}
					views = views[:0] // views die with the journal that lent them
					crashes++
				}
				assertSnapshotsEqual(t, ref.snapshot(), j.Snapshot())
				live := views[:0]
				for _, v := range views {
					if !v.alive(ref) {
						continue
					}
					if !bytes.Equal(v.view, v.want) {
						t.Fatalf("step %d: a view of client %d seq %d (redo %v) changed in its lifetime: %x, was %x",
							step, v.client, v.seq, v.redo, v.view, v.want)
					}
					live = append(live, v)
				}
				views = live
			}
			if begins == 0 || completes == 0 || lookups == 0 || compacts == 0 || crashes == 0 || pendings == 0 || torn == 0 {
				t.Fatalf("schedule missed a path: %d begins, %d completes, %d lookups, %d compactions, %d crashes (%d lost the op), %d pendings",
					begins, completes, lookups, compacts, crashes, torn, pendings)
			}
			if j.Stats().GCDropped == 0 {
				t.Fatal("no entry left a window; nothing was recycled")
			}
		})
	}
}

// snapshotsEqual is assertSnapshotsEqual as a predicate.
func snapshotsEqual(a, b map[uint64]ClientSnapshot) bool {
	if len(a) != len(b) {
		return false
	}
	for c, ca := range a {
		cb, ok := b[c]
		if !ok || ca.Low != cb.Low || ca.MaxSeq != cb.MaxSeq || len(ca.Entries) != len(cb.Entries) {
			return false
		}
		for s, ea := range ca.Entries {
			eb, ok := cb.Entries[s]
			if !ok || ea.OpSum != eb.OpSum || ea.Done != eb.Done || ea.Code != eb.Code ||
				ea.Tombstone != eb.Tombstone || !bytes.Equal(ea.RedoKey, eb.RedoKey) ||
				!bytes.Equal(ea.RedoVal, eb.RedoVal) || !bytes.Equal(ea.Result, eb.Result) {
				return false
			}
		}
	}
	return true
}
