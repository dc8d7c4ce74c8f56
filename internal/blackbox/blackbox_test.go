package blackbox

import (
	"bytes"
	"fmt"
	"runtime"
	"strings"
	"testing"

	"viyojit/internal/obs"
	"viyojit/internal/sim"
)

// memStore is a plain in-memory Store for recorder unit tests.
type memStore struct {
	b []byte
	// onWrite, when set, runs before the copy — used to simulate a
	// reentrant tee firing from inside the write path.
	onWrite func(off int64)
	fail    bool
}

func newMemStore(n int) *memStore { return &memStore{b: make([]byte, n)} }

func (m *memStore) WriteAt(p []byte, off int64) error {
	if m.onWrite != nil {
		m.onWrite(off)
	}
	if m.fail {
		return fmt.Errorf("memStore: injected write error")
	}
	copy(m.b[off:], p)
	return nil
}

func (m *memStore) ReadAt(p []byte, off int64) error {
	copy(p, m.b[off:])
	return nil
}

func (m *memStore) Size() int64 { return int64(len(m.b)) }

// testRecorder arms a recorder over n slots with a settable clock.
func testRecorder(t *testing.T, nslots int) (*Recorder, *memStore, *sim.Time) {
	t.Helper()
	st := newMemStore(nslots * SlotBytes)
	now := new(sim.Time)
	r, err := New(st, Options{Now: func() sim.Time { return *now }})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return r, st, now
}

func TestAppendWalkRoundTrip(t *testing.T) {
	r, st, now := testRecorder(t, 32)
	for i := 0; i < 20; i++ {
		*now = sim.Time(100 * (i + 1))
		r.Append(KindDirty, 0, int64(i), int64(-i), int64(i*i), 7)
	}
	w := Walk(st.b)
	if len(w.Records) != 20 || w.LastSeq != 20 || w.Torn != 0 || w.Dropped != 0 {
		t.Fatalf("walk: got %d records, last %d, torn %d, dropped %d",
			len(w.Records), w.LastSeq, w.Torn, w.Dropped)
	}
	for i, rec := range w.Records {
		want := Record{
			Seq:  uint64(i + 1),
			At:   sim.Time(100 * (i + 1)),
			Kind: KindDirty,
			Args: [4]int64{int64(i), int64(-i), int64(i * i), 7},
		}
		if rec != want {
			t.Fatalf("record %d: got %+v want %+v", i, rec, want)
		}
	}
}

func TestWrapKeepsNewestWindow(t *testing.T) {
	const nslots = 16
	r, st, now := testRecorder(t, nslots)
	const total = 3*nslots + 5
	for i := 0; i < total; i++ {
		*now = sim.Time(i)
		r.Append(KindMark, 1, int64(i), 0, 0, 0)
	}
	w := Walk(st.b)
	if len(w.Records) != nslots || w.LastSeq != total {
		t.Fatalf("walk after wrap: %d records, last %d", len(w.Records), w.LastSeq)
	}
	for i, rec := range w.Records {
		if want := uint64(total - nslots + 1 + i); rec.Seq != want {
			t.Fatalf("record %d: seq %d, want %d", i, rec.Seq, want)
		}
	}
}

// TestSealStopsAppends: a sealed recorder writes nothing and counts
// nothing — power is off; the ring must stay exactly as the flush saw
// it.
func TestSealStopsAppends(t *testing.T) {
	r, st, now := testRecorder(t, 8)
	*now = 10
	r.Append(KindDirty, 0, 1, 0, 0, 0)
	frozen := append([]byte(nil), st.b...)
	r.Seal()
	r.Append(KindDirty, 0, 2, 0, 0, 0)
	r.Boot(5)
	r.Mark(1, 0, 0)
	if !bytes.Equal(st.b, frozen) {
		t.Fatal("sealed recorder mutated the ring")
	}
	if r.LastSeq() != 1 || r.Dropped() != 0 {
		t.Fatalf("sealed recorder: seq %d dropped %d, want 1/0", r.LastSeq(), r.Dropped())
	}
	var nilRec *Recorder
	nilRec.Seal() // nil-safe
}

// TestQuiesceCountsDrops: unlike Seal, a quiesced recorder keeps the
// honesty ledger — paused appends are counted, and appends resume.
func TestQuiesceCountsDrops(t *testing.T) {
	r, st, now := testRecorder(t, 8)
	*now = 10
	r.Append(KindDirty, 0, 1, 0, 0, 0)
	resume := r.Quiesce()
	r.Append(KindDirty, 0, 2, 0, 0, 0)
	r.Append(KindDirty, 0, 3, 0, 0, 0)
	if r.LastSeq() != 1 || r.Dropped() != 2 {
		t.Fatalf("quiesced: seq %d dropped %d, want 1/2", r.LastSeq(), r.Dropped())
	}
	resume()
	r.Append(KindDirty, 0, 4, 0, 0, 0)
	w := Walk(st.b)
	if w.LastSeq != 2 || w.Dropped != 2 {
		t.Fatalf("after resume: walk last %d dropped %d, want 2/2", w.LastSeq, w.Dropped)
	}
	var nilRec *Recorder
	nilRec.Quiesce()() // nil-safe, resume callable
}

func TestGateRefusalDegradesToSampling(t *testing.T) {
	st := newMemStore(16 * SlotBytes)
	open := true
	r, err := New(st, Options{
		Now:  func() sim.Time { return 0 },
		Gate: func(off, n int64) bool { return open },
	})
	if err != nil {
		t.Fatal(err)
	}
	r.Append(KindMark, 1, 1, 0, 0, 0)
	open = false
	for i := 0; i < 3; i++ {
		r.Append(KindMark, 1, 2, 0, 0, 0) // all shed
	}
	open = true
	r.Append(KindMark, 1, 3, 0, 0, 0)
	if got := r.Dropped(); got != 3 {
		t.Fatalf("Dropped = %d, want 3", got)
	}
	w := Walk(st.b)
	if len(w.Records) != 2 || w.LastSeq != 2 {
		t.Fatalf("walk: %d records, last %d", len(w.Records), w.LastSeq)
	}
	// The surviving record advertises the gap.
	if w.Dropped != 3 {
		t.Fatalf("walk sees %d drops, want 3", w.Dropped)
	}
}

func TestStoreErrorCountsAsDrop(t *testing.T) {
	r, st, _ := testRecorder(t, 8)
	st.fail = true
	r.Append(KindMark, 1, 1, 0, 0, 0)
	if r.LastSeq() != 0 || r.Dropped() != 1 {
		t.Fatalf("after failed write: seq %d drops %d", r.LastSeq(), r.Dropped())
	}
	st.fail = false
	r.Append(KindMark, 1, 2, 0, 0, 0)
	if r.LastSeq() != 1 {
		t.Fatalf("seq after recovery append: %d", r.LastSeq())
	}
}

// TestReentrantAppendIsDeferred proves the never-blocks/never-recurses
// property: an append fired from inside the write path (the shape of a
// gauge tee raised by the ring page's own fault) is parked, never
// executed recursively, and lands right after the append that was
// holding the ring — while a second nested arrival, finding the
// deferral slot full, is counted as a drop.
func TestReentrantAppendIsDeferred(t *testing.T) {
	r, st, _ := testRecorder(t, 8)
	fired := false
	st.onWrite = func(int64) {
		if !fired {
			fired = true
			r.Append(KindMark, 9, 99, 0, 0, 0) // nested: parked
			r.Append(KindMark, 9, 98, 0, 0, 0) // deferral slot full: dropped
		}
	}
	r.Append(KindMark, 1, 1, 0, 0, 0)
	if r.LastSeq() != 2 {
		t.Fatalf("outer + deferred appends did not land: seq %d", r.LastSeq())
	}
	if r.Dropped() != 1 {
		t.Fatalf("second nested append not shed exactly once: drops %d", r.Dropped())
	}
	w := Walk(st.b)
	if len(w.Records) != 2 || w.Records[0].Args[0] != 1 || w.Records[1].Args[0] != 99 {
		t.Fatalf("ring order wrong: %+v", w.Records)
	}
	// Cascading deferral terminates: a drained append's own write parks
	// one more, and the chain drains to empty without recursion.
	depth := 0
	st.onWrite = func(int64) {
		if depth < 3 {
			depth++
			r.Append(KindMark, 9, int64(100+depth), 0, 0, 0)
		}
	}
	r.Append(KindMark, 1, 2, 0, 0, 0)
	if r.LastSeq() != 6 {
		t.Fatalf("cascade did not drain: seq %d", r.LastSeq())
	}
	if r.Dropped() != 1 {
		t.Fatalf("cascade dropped records: drops %d", r.Dropped())
	}
}

func TestAdoptContinuesSequence(t *testing.T) {
	r, st, now := testRecorder(t, 16)
	for i := 0; i < 5; i++ {
		r.Append(KindMark, 1, int64(i), 0, 0, 0)
	}
	w := Walk(st.b)

	// "Reboot": new recorder over the restored image adopts the walk.
	r2, err := New(st, Options{Now: func() sim.Time { return *now }})
	if err != nil {
		t.Fatal(err)
	}
	r2.Adopt(w)
	r2.Append(KindRecover, 0, int64(w.LastSeq), int64(w.Torn), 0, 0)
	w2 := Walk(st.b)
	if w2.LastSeq != 6 || len(w2.Records) != 6 {
		t.Fatalf("after adopt+append: last %d, %d records", w2.LastSeq, len(w2.Records))
	}
}

// buildRing appends n records over nslots slots and returns the raw
// image plus a seq-indexed copy of every record's slot bytes.
func buildRing(t *testing.T, nslots, n int) (data []byte, slotOf map[uint64][]byte) {
	t.Helper()
	st := newMemStore(nslots * SlotBytes)
	now := sim.Time(0)
	r, err := New(st, Options{Now: func() sim.Time { return now }})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		now = sim.Time(i * 10)
		r.Append(KindDirty, 0, int64(i%13), int64(i), 0, 0)
	}
	data = append([]byte(nil), st.b...)
	slotOf = make(map[uint64][]byte)
	for _, rec := range Walk(data).Records {
		slot := (rec.Seq - 1) % uint64(nslots)
		slotOf[rec.Seq] = append([]byte(nil), data[slot*SlotBytes:(slot+1)*SlotBytes]...)
	}
	return data, slotOf
}

// verifyNoInvention checks every adopted record byte-equals the slot it
// claims in the (possibly damaged) image — Walk cannot yield a record
// that is not literally present and intact.
func verifyNoInvention(t *testing.T, data []byte, w WalkResult) {
	t.Helper()
	nslots := uint64(len(data)) / SlotBytes
	var buf [SlotBytes]byte
	for _, rec := range w.Records {
		slot := (rec.Seq - 1) % nslots
		EncodeRecord(buf[:], rec)
		if !bytes.Equal(buf[:], data[slot*SlotBytes:(slot+1)*SlotBytes]) {
			t.Fatalf("invented record: seq %d does not byte-match slot %d", rec.Seq, slot)
		}
	}
}

// TestWalkEveryTruncationOffset zeroes the tail of the image from every
// offset — every possible torn-write suffix — and requires the walk to
// adopt exactly the fully intact slots: nothing invented, nothing
// intact dropped, no panic.
func TestWalkEveryTruncationOffset(t *testing.T) {
	for _, tc := range []struct{ nslots, n int }{
		{16, 10},     // partial ring
		{16, 16 * 2}, // wrapped ring
	} {
		data, _ := buildRing(t, tc.nslots, tc.n)
		orig := append([]byte(nil), data...)
		for k := 0; k <= len(data); k++ {
			tr := append([]byte(nil), orig[:k]...)
			tr = append(tr, make([]byte, len(orig)-k)...)
			w := Walk(tr)
			verifyNoInvention(t, tr, w)
			// Every slot untouched by the truncation must be adopted.
			want := 0
			for s := 0; s+SlotBytes <= len(orig); s += SlotBytes {
				if s+SlotBytes <= k && !allZero(orig[s:s+SlotBytes]) {
					want++
				}
			}
			got := 0
			for _, rec := range w.Records {
				slot := int((rec.Seq - 1) % uint64(tc.nslots))
				if (slot+1)*SlotBytes <= k {
					got++
				}
			}
			if got != want {
				t.Fatalf("nslots=%d n=%d trunc=%d: adopted %d intact slots, want %d",
					tc.nslots, tc.n, k, got, want)
			}
		}
	}
}

// TestWalkEverySingleByteCorruption flips each byte of the image in
// turn: exactly the slot containing the flip must vanish (FNV-1a's
// XOR-and-multiply steps are bijective, so any single-byte change is
// always detected), every other slot must survive intact, and nothing
// may be invented.
func TestWalkEverySingleByteCorruption(t *testing.T) {
	const nslots, n = 16, 12
	data, _ := buildRing(t, nslots, n)
	base := Walk(data)
	if len(base.Records) != n {
		t.Fatalf("base walk: %d records", len(base.Records))
	}
	for i := 0; i < len(data); i++ {
		mut := append([]byte(nil), data...)
		mut[i] ^= 0xA5
		w := Walk(mut)
		verifyNoInvention(t, mut, w)
		hitSlot := i / SlotBytes
		for _, rec := range w.Records {
			if int((rec.Seq-1)%uint64(nslots)) == hitSlot {
				t.Fatalf("byte %d: corrupted slot %d still adopted (seq %d)", i, hitSlot, rec.Seq)
			}
		}
		wantLost := 0
		if hitSlot < n { // flips inside a written slot lose that one record
			wantLost = 1
		}
		if len(w.Records) != n-wantLost {
			t.Fatalf("byte %d: %d records adopted, want %d", i, len(w.Records), n-wantLost)
		}
	}
}

func TestWalkOddLengthsAndEmpty(t *testing.T) {
	for _, n := range []int{0, 1, SlotBytes - 1, SlotBytes + 3} {
		w := Walk(make([]byte, n))
		if len(w.Records) != 0 || w.LastSeq != 0 {
			t.Fatalf("len %d: unexpected records", n)
		}
	}
}

func TestSinkTeeRules(t *testing.T) {
	r, st, now := testRecorder(t, 64)
	reg := obs.NewRegistry()
	reg.SetSink(r)

	*now = 50
	reg.Gauge("core_dirty_pages").Set(7)
	reg.Gauge("core_dirty_pages").Set(7) // no change: no record
	reg.Gauge("core_dirty_budget_pages").Set(8)
	reg.Gauge("core_health_state").Set(2)
	reg.Counter("serve_shed_overload_total").Inc()
	reg.Counter("unrelated_total").Inc() // not in the rules: ignored
	reg.Gauge("unrelated_gauge").Set(3)  // ignored
	tr := reg.Tracer()
	sp := tr.Begin("core.clean", 10)
	tr.Finish(sp, 40, "ok")
	sp2 := tr.Begin("serve.request", 10) // span not in rules: ignored
	tr.Finish(sp2, 20, "ok")

	w := Walk(st.b)
	type ev struct {
		kind, code uint16
		a0         int64
	}
	var got []ev
	for _, rec := range w.Records {
		got = append(got, ev{rec.Kind, rec.Code, rec.Args[0]})
	}
	want := []ev{
		{KindDirty, 0, 7},
		{KindBudget, 0, 8},
		{KindLadder, 2, 2},
		{KindServe, CodeShedOverload, 1},
		{KindSpan, CodeSpanClean, 10},
	}
	if len(got) != len(want) {
		t.Fatalf("teed %d records, want %d: %+v", len(got), len(want), got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("record %d: got %+v want %+v", i, got[i], want[i])
		}
	}
}

// The registry tees the recorder exactly the instruments of the rules
// table: the served path's busiest counters and gauges are not among
// them, so their updates never reach it.
func TestRecorderKeepsRuleInstruments(t *testing.T) {
	r, _, _ := testRecorder(t, 16)
	for name := range instrumentRules {
		if !r.Keeps(name) {
			t.Errorf("rule instrument %q not kept", name)
		}
	}
	for _, name := range []string{"serve_submitted_total", "serve_completed_total", "serve_queue_depth", "unrelated_total"} {
		if r.Keeps(name) {
			t.Errorf("%q kept, but no rule names it", name)
		}
	}
}

func TestLadderRecordCarriesStateInCode(t *testing.T) {
	r, st, _ := testRecorder(t, 16)
	reg := obs.NewRegistry()
	reg.SetSink(r)
	reg.Gauge("core_health_state").Set(3) // ReadOnly
	w := Walk(st.b)
	if len(w.Records) != 1 || w.Records[0].Kind != KindLadder || w.Records[0].Code != 3 {
		t.Fatalf("ladder record: %+v", w.Records)
	}
	rep := BuildReport(w)
	if rep.FinalLadder != 3 {
		t.Fatalf("FinalLadder = %d", rep.FinalLadder)
	}
}

func TestBuildReportTrajectories(t *testing.T) {
	r, st, now := testRecorder(t, 64)
	r.Boot(8)
	series := []struct {
		at     sim.Time
		dirty  int64
		budget int64
	}{{10, 1, 8}, {20, 3, 8}, {30, 5, 6}, {40, 6, 6}}
	for _, s := range series {
		*now = s.at
		r.Append(KindDirty, 0, s.dirty, 0, 0, 0)
		r.Append(KindBudget, 0, s.budget, 0, 0, 0)
	}
	*now = 45
	r.Append(KindLadder, 1, 1, 0, 0, 0)

	w, err := ReadAndWalk(st)
	if err != nil {
		t.Fatal(err)
	}
	rep := BuildReport(w)
	if len(rep.Dirty) != 4 || len(rep.Budget) != 4 {
		t.Fatalf("trajectories: %d dirty, %d budget points", len(rep.Dirty), len(rep.Budget))
	}
	if rep.CrashDirty != 6 || rep.CrashBudget != 6 || rep.FinalLadder != 1 || rep.CrashAt != 45 {
		t.Fatalf("crash instant: dirty=%d budget=%d ladder=%d at=%d",
			rep.CrashDirty, rep.CrashBudget, rep.FinalLadder, rep.CrashAt)
	}
	if rep.Dirty[2].Value != 5 || rep.Dirty[2].At != 30 {
		t.Fatalf("dirty[2] = %+v", rep.Dirty[2])
	}

	var buf bytes.Buffer
	if err := rep.WriteText(&buf, 5); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, frag := range []string{"crash instant:", "dirty=6", "budget=6", "ladder=degraded", "timeline (5 events):"} {
		if !strings.Contains(out, frag) {
			t.Fatalf("report text missing %q:\n%s", frag, out)
		}
	}
}

func TestReportEmptyRing(t *testing.T) {
	rep := BuildReport(Walk(make([]byte, 4*SlotBytes)))
	if rep.CrashDirty != -1 || rep.CrashBudget != -1 || rep.FinalLadder != -1 {
		t.Fatalf("empty ring report: %+v", rep)
	}
	var buf bytes.Buffer
	if err := rep.WriteText(&buf, 10); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "dirty=? budget=? ladder=?") {
		t.Fatalf("empty report text:\n%s", buf.String())
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(nil, Options{Now: func() sim.Time { return 0 }}); err == nil {
		t.Fatal("nil store accepted")
	}
	if _, err := New(newMemStore(SlotBytes), Options{Now: func() sim.Time { return 0 }}); err == nil {
		t.Fatal("one-slot store accepted")
	}
	if _, err := New(newMemStore(4*SlotBytes), Options{}); err == nil {
		t.Fatal("missing Now accepted")
	}
}

func TestNilRecorderIsNoOp(t *testing.T) {
	var r *Recorder
	r.Append(KindMark, 1, 1, 2, 3, 4)
	r.Boot(1)
	if r.LastSeq() != 0 || r.Dropped() != 0 {
		t.Fatal("nil recorder not inert")
	}
}

// TestAppendZeroAlloc is the benchmark-asserted hot-path property: an
// append, and the sink paths that feed it, allocate nothing.
func TestAppendZeroAlloc(t *testing.T) {
	r, _, _ := testRecorder(t, 64)
	if n := mallocs(200, func() {
		r.Append(KindDirty, 0, 1, 2, 3, 4)
	}); n != 0 {
		t.Fatalf("200 Appends allocate %d times", n)
	}
	if n := mallocs(200, func() {
		r.GaugeSet("core_dirty_pages", 5)
		r.CounterAdd("serve_shed_overload_total", 1, 9)
	}); n != 0 {
		t.Fatalf("200 passes over the sink path allocate %d times", n)
	}
}

func BenchmarkBlackBoxAppend(b *testing.B) {
	st := newMemStore(128 * SlotBytes)
	r, err := New(st, Options{Now: func() sim.Time { return 0 }})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Append(KindDirty, 0, int64(i), 0, 0, 0)
	}
}

// FuzzBlackBoxWalk feeds arbitrary bytes to the walk: it must never
// panic, never adopt a record that is not literally intact in the
// image, and keep sequences strictly increasing.
func FuzzBlackBoxWalk(f *testing.F) {
	seedData := func(nslots, n int) []byte {
		st := newMemStore(nslots * SlotBytes)
		r, _ := New(st, Options{Now: func() sim.Time { return 0 }})
		for i := 0; i < n; i++ {
			r.Append(KindDirty, 0, int64(i), 0, 0, 0)
		}
		return st.b
	}
	f.Add([]byte{})
	f.Add(make([]byte, 3*SlotBytes))
	f.Add(seedData(8, 5))
	f.Add(seedData(8, 20))
	torn := seedData(8, 5)
	copy(torn[4*SlotBytes+30:], make([]byte, 20))
	f.Add(torn)
	f.Fuzz(func(t *testing.T, data []byte) {
		w := Walk(data)
		nslots := uint64(len(data)) / SlotBytes
		if uint64(len(w.Records)) > nslots {
			t.Fatalf("more records than slots: %d > %d", len(w.Records), nslots)
		}
		var buf [SlotBytes]byte
		var prev uint64
		for _, rec := range w.Records {
			if rec.Seq <= prev {
				t.Fatalf("sequence not strictly increasing: %d after %d", rec.Seq, prev)
			}
			prev = rec.Seq
			slot := (rec.Seq - 1) % nslots
			EncodeRecord(buf[:], rec)
			if !bytes.Equal(buf[:], data[slot*SlotBytes:(slot+1)*SlotBytes]) {
				t.Fatalf("adopted record seq %d not literally present in slot %d", rec.Seq, slot)
			}
		}
		// The report builder must also hold on arbitrary walks.
		rep := BuildReport(w)
		var sink bytes.Buffer
		if err := rep.WriteText(&sink, 10); err != nil {
			t.Fatal(err)
		}
	})
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
