// Package intent is the per-client idempotency journal that makes
// serving exactly-once across power failure. It lives *inside* the
// battery-backed region: the store it writes is a core.Manager mapping,
// so every journal append is a budget-accounted dirty-page write flushed
// by the same powerfail path as application data — durability
// bookkeeping is billed like any other write traffic.
//
// Protocol (driven by the serve step, on whichever goroutine serves):
//
//	Lookup(client, seq)  -> StateNew: fresh request
//	Begin(client, seq, opSum, redoKey, redoVal, tombstone)
//	    ... apply the mutation to the store ...
//	Complete(client, seq, code, result)
//	    ... ack the client ...
//
// The intent record carries the *computed* redo image (the exact bytes
// the mutation will write), not the operation. That closes the classic
// double-apply window: if power fails after the apply but before the
// result record, the retry finds the in-flight intent and re-applies the
// recorded redo — a blind, idempotent Put/Delete — instead of re-running
// a read-modify-write against already-mutated state.
//
// The result record carries only what the journal does not already hold.
// A result that is the intent's redo value — what a read-modify-write
// returns — is a flag; the table then keeps the redo value as the cached
// result instead of dropping it. A Put's result is empty: its retry
// carries the value and the op checksum proves it is the same one, so a
// done Put is a fixed-size entry in the table and in every snapshot.
//
// The journal's cost is the dirty budget its pages hold, so its footprint
// follows its live state, not its capacity: the table is bounded by
// clients × window entries, fat only where a result must be cached, and
// the log is rewritten once it has grown to growthFactor × the table.
//
// Crash-consistency layering:
//
//   - Records go through internal/wal (length+seq+checksum, record bytes
//     before head pointer), so recovery replays a committed prefix and
//     rejects the torn tail.
//   - The journal is two wal halves behind a header page. Compaction
//     (when the active half's log has grown to growthFactor × the live
//     table in whole pages, or the half is full) writes the live dedup
//     table into the *inactive* half as one snapshot record, then flips
//     the active-generation word — an 8-byte in-page write, which the
//     NV-DRAM region applies all-or-nothing — so a crash at any instant
//     leaves one fully valid half.
//   - Per-client windows bound the table: a client with window W issues
//     seq n only after every seq ≤ n−W is acked, so entries below
//     maxSeq−W+1 can never be legally retried and are GC'd.
package intent

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"slices"

	"viyojit/internal/obs"
	"viyojit/internal/wal"
)

// Store is the NV-DRAM surface the journal lives in (same shape as
// wal.Store / pheap.Store — typically a core.Manager mapping).
type Store = wal.Store

const (
	journalMagic uint64 = 0x56494A494E544A31 // "VIJINTJ1"

	offMagic  = 0
	offGen    = 8
	offHalf   = 16
	offWindow = 24

	headerBytes = 4096 // the header owns the first page

	// DefaultWindow is the per-client sliding dedup window: how many of
	// a client's most recent sequence numbers stay retryable. The header
	// records it, and Open rejects a header that holds any other.
	DefaultWindow = 16

	// MinStoreBytes is the smallest store Create accepts: a header page
	// plus two halves each big enough for a wal.Log.
	MinStoreBytes = headerBytes + 2*minHalfBytes
	minHalfBytes  = 8192
)

// Record kinds.
const (
	kIntent     byte = 1 // a mutation is about to be applied
	kResult     byte = 2 // the mutation completed; result cached for dedup
	kSnapClient byte = 3 // inside a snapshot: a client's window bounds
	kSnapEntry  byte = 4 // inside a snapshot: one live table entry
	kSnapshot   byte = 5 // compaction: the whole live table in one record
)

const (
	pageBytes = 4096

	// growthFactor is how far the active log may grow past the live
	// table before compaction rewrites it: the log's extent in its half
	// reaches growthFactor × the snapshot's whole pages. Compaction
	// traffic is then at most 1/growthFactor of appends, and the pages the
	// journal keeps dirty follow its live state instead of its capacity.
	// Measured flat from 2 to 16 (EXPERIMENTS.md, "The journal holds its
	// live state"); the page rounding keeps a small table from compacting
	// on every append.
	growthFactor = 8
)

// Typed errors. Match with errors.Is.
var (
	// ErrNoJournal: the store does not hold a journal (bad magic) — the
	// caller should Create one rather than Open.
	ErrNoJournal = errors.New("intent: store holds no journal")

	// ErrStaleSeq: the sequence number is below the client's dedup
	// window — it was GC'd, which (by the window invariant) means the
	// client already saw its ack and is violating the protocol by
	// retrying it.
	ErrStaleSeq = errors.New("intent: sequence below dedup window (already acked and GC'd)")

	// ErrSeqReuse: a Begin for a (client, seq) that already has an
	// entry, or a retry whose op checksum differs from the recorded
	// intent — the client reused a sequence number for a different op.
	ErrSeqReuse = errors.New("intent: sequence number reused for a different operation")

	// ErrJournalFull: even after compaction there is no room for the
	// record. The live table outgrew a half — back off and retry, or
	// provision a larger journal mapping.
	ErrJournalFull = errors.New("intent: journal full (live dedup state exceeds half capacity)")
)

// State classifies a (client, seq) pair for the serve step.
type State int

const (
	// StateNew: never seen — run the full Begin/apply/Complete protocol.
	StateNew State = iota
	// StateInFlight: intent recorded, no result — the op may or may not
	// have been applied before a crash; re-apply the recorded redo.
	StateInFlight
	// StateDone: result recorded — return the cached result, do NOT
	// re-apply.
	StateDone
	// StateBelowWindow: GC'd — the client already saw the ack.
	StateBelowWindow
)

func (s State) String() string {
	switch s {
	case StateNew:
		return "new"
	case StateInFlight:
		return "in-flight"
	case StateDone:
		return "done"
	case StateBelowWindow:
		return "below-window"
	}
	return "unknown"
}

// Entry is the dedup table's view of one journaled request. Slices
// alias journal-owned memory, which the journal recycles; callers must
// not mutate them, and must copy what they keep past the view's life:
//
//   - RedoKey and RedoVal last until that entry's Complete, or until the
//     entry leaves the window if it never completes;
//   - Result lasts until the entry leaves the window, or until a later
//     Complete of the same entry replaces it.
//
// Snapshot and Pending return deep copies, which live for ever.
type Entry struct {
	OpSum     uint64
	Done      bool
	Code      byte
	Tombstone bool
	RedoKey   []byte // in-flight only: the key the redo writes
	RedoVal   []byte // in-flight only: the exact bytes to (re-)apply
	Result    []byte // done only: the cached result returned on dedup
}

type entry struct {
	opSum     uint64
	done      bool
	code      byte
	tombstone bool
	key, val  []byte // redo image, cleared once done
	result    []byte
	// img is the journal's buffer key and val are cut from. finish hands
	// it back, unless the result is the redo value and so lives in it:
	// then it goes back when the entry leaves the window.
	img []byte
}

// snapBytes is the entry's size in a snapshot.
func (e *entry) snapBytes() int64 {
	return int64(snapEntryBytes + len(e.key) + len(e.val) + len(e.result))
}

type clientWin struct {
	low     uint64 // lowest retryable seq; everything below is GC'd
	maxSeq  uint64
	entries map[uint64]*entry
}

// Config parameterises Create.
type Config struct {
	// Obs receives the journal's instruments; nil uses a private
	// registry.
	Obs *obs.Registry
}

// Stats is a point-in-time summary of journal activity.
type Stats struct {
	Begins      uint64
	Completes   uint64
	GCDropped   uint64
	Compactions uint64
	// AppendBytes is the payload bytes appended (journal write traffic):
	// intent and result records plus SnapshotBytes, compaction's share.
	AppendBytes   uint64
	SnapshotBytes uint64
	StaleSkips    uint64 // replayed records below the window, ignored
	Replayed      uint64 // records replayed at Open
	LiveEntries   int
	// LiveBytes is what a snapshot of the table would take now;
	// RunLimitBytes is the log extent at which the next append compacts.
	LiveBytes     int64
	RunLimitBytes int64
	Clients       int
	Gen           uint64
	HeadBytes     int64 // next append offset within the active half
	HalfBytes     int64 // capacity of each half
}

// instruments groups the obs counters (journal write traffic is a
// first-class observable: it is the write amplification the
// exactly-once guarantee costs).
type instruments struct {
	begins      *obs.Counter
	completes   *obs.Counter
	gcDropped   *obs.Counter
	compactions *obs.Counter
	recordBytes *obs.Counter
	snapBytes   *obs.Counter
	staleSkips  *obs.Counter
	replayed    *obs.Counter
	tornOpens   *obs.Counter
	unjournaled *obs.Counter
	liveEntries *obs.Gauge
	liveBytes   *obs.Gauge
	runLimit    *obs.Gauge
	liveClients *obs.Gauge
}

func newInstruments(r *obs.Registry) instruments {
	return instruments{
		begins:      r.Counter("intent_begins_total"),
		completes:   r.Counter("intent_completes_total"),
		gcDropped:   r.Counter("intent_gc_dropped_total"),
		compactions: r.Counter("intent_compactions_total"),
		recordBytes: r.Counter("intent_append_record_bytes_total"),
		snapBytes:   r.Counter("intent_append_snapshot_bytes_total"),
		staleSkips:  r.Counter("intent_stale_records_total"),
		replayed:    r.Counter("intent_replayed_records_total"),
		tornOpens:   r.Counter("intent_torn_opens_total"),
		unjournaled: r.Counter("intent_unjournaled_results_total"),
		liveEntries: r.Gauge("intent_live_entries"),
		liveBytes:   r.Gauge("intent_live_bytes"),
		runLimit:    r.Gauge("intent_run_limit_bytes"),
		liveClients: r.Gauge("intent_live_clients"),
	}
}

// Journal is the idempotency journal. Like the rest of the simulated
// stack it is single-goroutine: only the goroutine serving a request
// touches it.
type Journal struct {
	store Store
	// logs are the two halves' logs, nil until first opened or written;
	// log is the active one, logs[gen&1]. Compaction resets and reuses the
	// inactive half's, so its record buffer is sized to a snapshot once.
	logs     [2]*wal.Log
	log      *wal.Log
	gen      uint64
	halfSize int64

	table map[uint64]*clientWin
	// live is the number of entries across every client's window and
	// liveBytes the size of a snapshot of the table, kept in step by win,
	// put, finish and gcLocked so neither an append nor Stats walks the
	// table, and rebuilt by replay like the table itself.
	live      int
	liveBytes int64

	torn bool // last Open stopped on a torn tail (crash signature)

	// Grow-only buffers. append may compact while it still holds the
	// record it was asked to write, so the snapshot is staged in its own.
	rec     []byte   // the intent or result record being appended
	snap    []byte   // Compact's snapshot record
	clients []uint64 // Compact's sorted client ids
	seqs    []uint64 // Compact's sorted seqs of one client
	// word is Compact's generation-word image: a buffer handed to the
	// store escapes through the interface, so a local would cost a heap
	// allocation per compaction.
	word [8]byte

	// Free lists the dedup table draws from, so a steady stream of
	// Begin/Complete pairs allocates nothing: redo-image buffers handed
	// back by finish and gcLocked, entries gcLocked dropped, and a
	// retired journal's client windows, each with its entries map
	// cleared (OpenOn).
	imgs  [][]byte
	spare []*entry
	wins  []*clientWin
	// retiredLogs are a retired journal's logs, whose buffers the first
	// log opened or created on each half is built on (wal.OpenOn,
	// wal.CreateOn).
	retiredLogs [2]*wal.Log

	st    instruments
	stats Stats
}

// subWindow exposes a byte range of the parent store as a wal.Store.
type subWindow struct {
	store Store
	off   int64
	size  int64
}

func (w subWindow) Size() int64 { return w.size }

func (w subWindow) ReadAt(p []byte, off int64) error {
	if off < 0 || off+int64(len(p)) > w.size {
		return fmt.Errorf("intent: half read out of range [%d,%d)", off, off+int64(len(p)))
	}
	return w.store.ReadAt(p, w.off+off)
}

func (w subWindow) WriteAt(p []byte, off int64) error {
	if off < 0 || off+int64(len(p)) > w.size {
		return fmt.Errorf("intent: half write out of range [%d,%d)", off, off+int64(len(p)))
	}
	return w.store.WriteAt(p, w.off+off)
}

func (j *Journal) half(gen uint64) subWindow {
	return subWindow{store: j.store, off: headerBytes + int64(gen&1)*j.halfSize, size: j.halfSize}
}

// Create formats a fresh journal across the store.
func Create(store Store, cfg Config) (*Journal, error) {
	if store.Size() < MinStoreBytes {
		return nil, fmt.Errorf("intent: store of %d bytes too small (min %d)", store.Size(), MinStoreBytes)
	}
	if cfg.Obs == nil {
		cfg.Obs = obs.NewRegistry()
	}
	halfSize := (store.Size() - headerBytes) / 2
	halfSize -= halfSize % 4096 // page-align so halves never share a page
	j := &Journal{
		store:    store,
		gen:      0,
		halfSize: halfSize,
		table:    make(map[uint64]*clientWin),
		st:       newInstruments(cfg.Obs),
	}
	l, err := j.freshLog(0)
	if err != nil {
		return nil, err
	}
	j.log = l
	var hdr [32]byte
	binary.LittleEndian.PutUint64(hdr[offGen:], 0)
	binary.LittleEndian.PutUint64(hdr[offHalf:], uint64(halfSize))
	binary.LittleEndian.PutUint64(hdr[offWindow:], DefaultWindow)
	if err := store.WriteAt(hdr[offGen:offWindow+8], offGen); err != nil {
		return nil, err
	}
	// Magic last: a crash mid-Create leaves a store Open rejects.
	binary.LittleEndian.PutUint64(hdr[:8], journalMagic)
	if err := store.WriteAt(hdr[:8], offMagic); err != nil {
		return nil, err
	}
	return j, nil
}

// Open attaches to an existing journal (the recovery path) and rebuilds
// the dedup table by replaying the active half's committed prefix.
// Torn tails are tolerated: the record torn by the crash is the one
// whose request was never acked, so dropping it is exactly right.
func Open(store Store, reg *obs.Registry) (*Journal, error) { return OpenOn(store, reg, nil) }

// OpenOn is Open on the tables and buffers of retired, the journal a
// reboot retired, or Open itself when retired is nil: its dedup table
// and client windows, cleared, its entries and redo-image buffers, its
// record and compaction buffers, and its two logs' buffers. The table is
// rebuilt by the same replay, with the same charged reads, as Open's.
// retired panics on use from then on; its Stats still read.
func OpenOn(store Store, reg *obs.Registry, retired *Journal) (*Journal, error) {
	var hdr [32]byte
	if err := store.ReadAt(hdr[:], 0); err != nil {
		return nil, err
	}
	if binary.LittleEndian.Uint64(hdr[offMagic:]) != journalMagic {
		return nil, ErrNoJournal
	}
	if reg == nil {
		reg = obs.NewRegistry()
	}
	gen, halfSize := binary.LittleEndian.Uint64(hdr[offGen:]), int64(binary.LittleEndian.Uint64(hdr[offHalf:]))
	window := binary.LittleEndian.Uint64(hdr[offWindow:])
	if halfSize < minHalfBytes || headerBytes+2*halfSize > store.Size() || window != DefaultWindow {
		return nil, fmt.Errorf("intent: corrupt journal header (half=%d window=%d store=%d)",
			halfSize, window, store.Size())
	}
	j := retired.recycle()
	j.store, j.gen, j.halfSize, j.st = store, gen, halfSize, newInstruments(reg)
	l, err := wal.OpenOn(j.half(j.gen), j.retiredLogs[j.gen&1])
	if err != nil {
		return nil, fmt.Errorf("intent: active half: %w", err)
	}
	j.log, j.logs[j.gen&1], j.retiredLogs[j.gen&1] = l, l, nil
	err = l.Replay(func(seq uint64, payload []byte) error {
		j.stats.Replayed++
		j.st.replayed.Inc()
		j.applyRecord(payload)
		return nil
	})
	if err != nil {
		return nil, err
	}
	if l.LastStop() == wal.StopTorn {
		j.torn = true
		j.st.tornOpens.Inc()
	}
	j.publishGauges()
	return j, nil
}

// recycle returns an empty journal with no store, built on j's tables and
// buffers, and retires j; a nil j yields a new one.
func (j *Journal) recycle() *Journal {
	if j == nil {
		return &Journal{table: make(map[uint64]*clientWin)}
	}
	j.mustLive()
	nj := &Journal{
		table:       j.table,
		rec:         j.rec[:0],
		snap:        j.snap[:0],
		clients:     j.clients[:0],
		seqs:        j.seqs[:0],
		imgs:        j.imgs,
		spare:       j.spare,
		wins:        j.wins,
		retiredLogs: j.logs,
	}
	for _, w := range j.table {
		for _, e := range w.entries {
			nj.releaseImg(e)
			nj.spare = append(nj.spare, e)
		}
		clear(w.entries)
		nj.wins = append(nj.wins, w)
	}
	j.stats.Clients = len(j.table)
	clear(nj.table)
	*j = Journal{log: j.log, gen: j.gen, halfSize: j.halfSize, live: j.live, liveBytes: j.liveBytes,
		torn: j.torn, st: j.st, stats: j.stats}
	return nj
}

// mustLive panics if j's tables went to a reboot (OpenOn).
func (j *Journal) mustLive() {
	if j.table == nil {
		panic("intent: use of a journal retired by a reboot (OpenOn)")
	}
}

// TornOpen reports whether the last Open stopped on a torn tail — the
// signature of a crash mid-append. The torn record's request was never
// acked, so it is safe (and correct) that it vanished.
func (j *Journal) TornOpen() bool { return j.torn }

// Stats returns a snapshot of journal activity.
func (j *Journal) Stats() Stats {
	s := j.stats
	s.Gen = j.gen
	s.HeadBytes = j.log.Head()
	s.HalfBytes = j.halfSize
	if j.table != nil { // a retired journal's count is frozen in j.stats
		s.Clients = len(j.table)
	}
	s.LiveEntries = j.live
	s.LiveBytes = j.snapshotBytes()
	s.RunLimitBytes = j.runLimit()
	return s
}

func (j *Journal) publishGauges() {
	j.st.liveEntries.Set(int64(j.live))
	j.st.liveBytes.Set(j.snapshotBytes())
	j.st.runLimit.Set(j.runLimit())
	j.st.liveClients.Set(int64(len(j.table)))
}

// snapshotBytes is the payload a snapshot of the table would be now.
func (j *Journal) snapshotBytes() int64 { return 1 + j.liveBytes }

// runLimit is the extent of the active log, its header page included, at
// which the next append compacts: growthFactor × the snapshot in whole
// pages. A table too big for a half puts the limit past the half's end,
// so a compaction by growth always has room for its snapshot.
func (j *Journal) runLimit() int64 {
	pages := (j.snapshotBytes() + pageBytes - 1) / pageBytes
	return growthFactor * pages * pageBytes
}

// put stores e as w's entry for seq, counting it in place of the entry
// the slot held.
func (j *Journal) put(w *clientWin, seq uint64, e *entry) {
	if old := w.entries[seq]; old != nil {
		j.liveBytes -= old.snapBytes()
	} else {
		j.live++
	}
	j.liveBytes += e.snapBytes()
	w.entries[seq] = e
}

// finish turns e into a done entry caching result, which the entry keeps.
// isRedo says result is e's redo value, so e's image must outlive it.
func (j *Journal) finish(e *entry, code byte, result []byte, isRedo bool) {
	j.liveBytes -= e.snapBytes()
	e.done, e.code, e.result = true, code, result
	e.key, e.val = nil, nil // redo image no longer needed
	if !isRedo {
		j.releaseImg(e)
	}
	j.liveBytes += e.snapBytes()
}

// newEntry returns a zeroed entry, reusing one the window dropped.
func (j *Journal) newEntry() *entry {
	n := len(j.spare)
	if n == 0 {
		return new(entry)
	}
	e := j.spare[n-1]
	j.spare = j.spare[:n-1]
	*e = entry{}
	return e
}

// setImage copies key and val into one buffer from the free list and
// points e's redo image at it. An empty part stays nil, as a copy of it
// always was.
func (j *Journal) setImage(e *entry, key, val []byte) {
	var img []byte
	if n := len(j.imgs); n > 0 {
		img = j.imgs[n-1]
		j.imgs = j.imgs[:n-1]
	}
	img = append(append(slices.Grow(img[:0], len(key)+len(val)), key...), val...)
	e.img = img
	e.key, e.val = part(img[:len(key)]), part(img[len(key):])
}

// part is p with its capacity cut to its length, or nil when it is empty.
func part(p []byte) []byte {
	if len(p) == 0 {
		return nil
	}
	return p[:len(p):len(p)]
}

// releaseImg hands e's image buffer back to the free list.
func (j *Journal) releaseImg(e *entry) {
	if e.img != nil {
		j.imgs = append(j.imgs, e.img)
		e.img = nil
	}
}

func (j *Journal) win(client uint64) *clientWin {
	w := j.table[client]
	if w == nil {
		if n := len(j.wins); n > 0 {
			w, j.wins = j.wins[n-1], j.wins[:n-1]
			w.low, w.maxSeq = 1, 0
		} else {
			w = &clientWin{low: 1, entries: make(map[uint64]*entry)}
		}
		j.table[client] = w
		j.liveBytes += snapClientBytes
	}
	return w
}

// Lookup classifies a (client, seq) pair. The returned Entry is only
// meaningful for StateInFlight (redo image) and StateDone (cached
// result), and its slices are views with the lives Entry documents: a
// redo image must be copied before the Complete that retires it.
func (j *Journal) Lookup(client, seq uint64) (Entry, State) {
	j.mustLive()
	w := j.table[client]
	if w == nil {
		return Entry{}, StateNew
	}
	if seq < w.low {
		return Entry{}, StateBelowWindow
	}
	e := w.entries[seq]
	if e == nil {
		return Entry{}, StateNew
	}
	view := Entry{OpSum: e.opSum, Done: e.done, Code: e.code, Tombstone: e.tombstone,
		RedoKey: e.key, RedoVal: e.val, Result: e.result}
	if e.done {
		return view, StateDone
	}
	return view, StateInFlight
}

// Begin journals the intent to apply a mutation: the op checksum (for
// seq-reuse detection) and the redo image (key, value-or-tombstone) a
// post-crash retry will re-apply. Must be called before the mutation
// touches the store.
func (j *Journal) Begin(client, seq, opSum uint64, redoKey, redoVal []byte, tombstone bool) error {
	j.mustLive()
	if client == 0 || seq == 0 {
		return fmt.Errorf("intent: client and seq must be non-zero")
	}
	if len(redoKey) > 0xFFFF {
		return fmt.Errorf("intent: redo key of %d bytes exceeds 64KiB", len(redoKey))
	}
	w := j.win(client)
	if seq < w.low {
		return ErrStaleSeq
	}
	if w.entries[seq] != nil {
		return ErrSeqReuse
	}
	j.rec = encodeIntent(j.rec, client, seq, opSum, redoKey, redoVal, tombstone)
	if err := j.append(j.rec); err != nil {
		return err
	}
	e := j.newEntry()
	e.opSum, e.tombstone = opSum, tombstone
	j.setImage(e, redoKey, redoVal)
	j.put(w, seq, e)
	if seq > w.maxSeq {
		w.maxSeq = seq
	}
	j.gcLocked(w)
	j.stats.Begins++
	j.st.begins.Inc()
	j.publishGauges()
	return nil
}

// Complete journals the mutation's result, making the (client, seq)
// pair dedupable. A result equal to the entry's redo value — what a
// read-modify-write returns — is journaled as a flag, the intent record
// already holding the bytes, and the table keeps the redo value as the
// result instead of a copy; any other result frees the redo image's
// buffer for a later Begin. Either way the entry's RedoKey and RedoVal
// views end here. If the result record cannot be journaled even after
// compaction, the in-memory table is still updated and the
// condition is counted: losing a result record at a crash only costs an
// extra redo re-apply on retry, never a double-apply.
func (j *Journal) Complete(client, seq uint64, code byte, result []byte) error {
	j.mustLive()
	w := j.table[client]
	if w == nil {
		return fmt.Errorf("intent: Complete for unknown client %d", client)
	}
	if seq < w.low {
		return ErrStaleSeq
	}
	e := w.entries[seq]
	if e == nil {
		return fmt.Errorf("intent: Complete for unjournaled seq %d (client %d)", seq, client)
	}
	isRedo := len(result) > 0 && bytes.Equal(result, e.val)
	j.rec = encodeResult(j.rec, client, seq, code, result, isRedo)
	err := j.append(j.rec)
	j.stats.Completes++ // the table advances either way; see doc comment
	if err != nil {
		j.st.unjournaled.Inc()
	} else {
		j.st.completes.Inc()
	}
	if isRedo {
		result = e.val
	} else {
		result = append([]byte(nil), result...)
	}
	j.finish(e, code, result, isRedo)
	j.publishGauges()
	return err
}

// append writes one record to the active half, first compacting into the
// other half if the log has outgrown the live table (runLimit) or has no
// room left. Both run before the caller updates the table, so the
// snapshot and the record that follows it agree.
func (j *Journal) append(payload []byte) error {
	if j.log.Head() >= j.runLimit() {
		if err := j.Compact(); err != nil {
			return err
		}
	}
	_, err := j.log.Append(payload)
	if errors.Is(err, wal.ErrFull) {
		if cerr := j.Compact(); cerr != nil {
			return cerr
		}
		_, err = j.log.Append(payload)
		if errors.Is(err, wal.ErrFull) {
			return ErrJournalFull
		}
	}
	if err == nil {
		j.stats.AppendBytes += uint64(len(payload))
		j.st.recordBytes.Add(uint64(len(payload)))
	}
	return err
}

// freshLog returns an empty log on gen's half. The half is the inactive
// one (or, in Create, not yet a journal), so nothing reads it until the
// generation word says so.
func (j *Journal) freshLog(gen uint64) (*wal.Log, error) {
	if l := j.logs[gen&1]; l != nil {
		return l, l.Reset()
	}
	l, err := wal.CreateOn(j.half(gen), j.retiredLogs[gen&1])
	j.logs[gen&1], j.retiredLogs[gen&1] = l, nil
	return l, err
}

// Compact snapshots the live dedup table into the inactive half and
// flips the active generation. The half is invisible until the flip, so
// the snapshot is one record: one store write and one head update,
// however many entries it holds. The flip is an 8-byte in-page header
// write — all-or-nothing under the region's per-page write fault — so a
// crash anywhere during compaction leaves exactly one valid journal:
// the old half (flip not yet visible) or the new one (flip landed).
func (j *Journal) Compact() error {
	j.mustLive()
	j.clients = j.clients[:0]
	for c := range j.table {
		j.clients = append(j.clients, c)
	}
	slices.Sort(j.clients)
	j.snap = append(j.snap[:0], kSnapshot)
	for _, c := range j.clients {
		w := j.table[c]
		j.snap = appendSnapClient(j.snap, c, w.low, w.maxSeq)
		j.seqs = j.seqs[:0]
		for s := range w.entries {
			j.seqs = append(j.seqs, s)
		}
		slices.Sort(j.seqs)
		for _, s := range j.seqs {
			j.snap = appendSnapEntry(j.snap, c, s, w.entries[s])
		}
	}
	nl, err := j.freshLog(j.gen + 1)
	if err != nil {
		return err
	}
	if _, err := nl.Append(j.snap); err != nil {
		return snapErr(err)
	}
	// Commit point: flip the generation word.
	binary.LittleEndian.PutUint64(j.word[:], j.gen+1)
	if err := j.store.WriteAt(j.word[:], offGen); err != nil {
		return err
	}
	j.gen++
	j.log = nl
	snapBytes := uint64(len(j.snap))
	j.stats.Compactions++
	j.stats.AppendBytes += snapBytes
	j.stats.SnapshotBytes += snapBytes
	j.st.compactions.Inc()
	j.st.snapBytes.Add(snapBytes)
	return nil
}

func snapErr(err error) error {
	if errors.Is(err, wal.ErrFull) {
		return ErrJournalFull
	}
	return err
}

// gcLocked drops entries below the window's new low-water mark, keeping
// each entry and its image buffer for reuse. Safety is the window
// invariant: a client with window W only issues seq n after every seq ≤
// n−W has been acked, so nothing below maxSeq−W+1 can legally be retried.
func (j *Journal) gcLocked(w *clientWin) {
	if w.maxSeq < DefaultWindow {
		return
	}
	newLow := w.maxSeq - DefaultWindow + 1
	if newLow <= w.low {
		return
	}
	for s := w.low; s < newLow; s++ {
		if e, ok := w.entries[s]; ok {
			delete(w.entries, s)
			j.live--
			j.liveBytes -= e.snapBytes()
			j.stats.GCDropped++
			j.st.gcDropped.Inc()
			j.releaseImg(e)
			j.spare = append(j.spare, e)
		}
	}
	w.low = newLow
}

// applyRecord folds one replayed payload into the table: an intent, a
// result, or a snapshot's parts. Records below a client's window
// (possible when live appends follow a compaction snapshot) are counted
// and skipped; malformed payloads are skipped too — the wal checksum
// already vouched for their integrity, so a decode failure means the
// payload predates this format and dropping it is the conservative
// choice.
func (j *Journal) applyRecord(payload []byte) {
	if !walk(payload, j.apply) {
		j.skipStale()
	}
}

func (j *Journal) apply(rec Record) {
	switch rec.Kind {
	case kIntent:
		w := j.win(rec.Client)
		if rec.Seq < w.low {
			j.skipStale()
			return
		}
		e := j.newEntry()
		e.opSum, e.tombstone = rec.OpSum, rec.Tombstone
		j.setImage(e, rec.Key, rec.Val)
		j.put(w, rec.Seq, e)
		if rec.Seq > w.maxSeq {
			w.maxSeq = rec.Seq
		}
		j.gcLocked(w)
	case kResult:
		w := j.table[rec.Client]
		if w == nil || rec.Seq < w.low {
			j.skipStale()
			return
		}
		e := w.entries[rec.Seq]
		if e == nil {
			j.skipStale()
			return
		}
		if rec.IsRedo {
			rec.Result = e.val
		} else {
			rec.Result = append([]byte(nil), rec.Result...)
		}
		j.finish(e, rec.Code, rec.Result, rec.IsRedo)
	case kSnapClient:
		w := j.win(rec.Client)
		if rec.Low > w.low {
			w.low = rec.Low
		}
		if rec.MaxSeq > w.maxSeq {
			w.maxSeq = rec.MaxSeq
		}
	case kSnapEntry:
		w := j.win(rec.Client)
		if rec.Seq < w.low {
			j.skipStale()
			return
		}
		e := j.newEntry()
		e.opSum, e.tombstone = rec.OpSum, rec.Tombstone
		if rec.Done {
			e.done = true
			e.code = rec.Code
			e.result = append([]byte(nil), rec.Result...)
		} else {
			j.setImage(e, rec.Key, rec.Val)
		}
		j.put(w, rec.Seq, e)
		if rec.Seq > w.maxSeq {
			w.maxSeq = rec.Seq
		}
	}
}

func (j *Journal) skipStale() {
	j.stats.StaleSkips++
	j.st.staleSkips.Inc()
}

// ClientSnapshot is a test/verification view of one client's window.
type ClientSnapshot struct {
	Low     uint64
	MaxSeq  uint64
	Entries map[uint64]Entry
}

// Snapshot exports the whole dedup table (deep-copied) so harnesses can
// compare a rebuilt table against the journal prefix.
func (j *Journal) Snapshot() map[uint64]ClientSnapshot {
	j.mustLive()
	out := make(map[uint64]ClientSnapshot, len(j.table))
	for c, w := range j.table {
		cs := ClientSnapshot{Low: w.low, MaxSeq: w.maxSeq, Entries: make(map[uint64]Entry, len(w.entries))}
		for s, e := range w.entries {
			view := Entry{OpSum: e.opSum, Done: e.done, Code: e.code, Tombstone: e.tombstone}
			view.RedoKey = append([]byte(nil), e.key...)
			view.RedoVal = append([]byte(nil), e.val...)
			view.Result = append([]byte(nil), e.result...)
			cs.Entries[s] = view
		}
		out[c] = cs
	}
	return out
}

// PendingIntent is one in-flight intent (journaled Begin without a
// Complete) in the deterministic replay order.
type PendingIntent struct {
	Client uint64
	Seq    uint64
	Entry  Entry
}

// Pending lists every in-flight intent sorted by (client, seq). This is
// the canonical redo order for restartable recovery: replaying the list
// by index is deterministic across attempts, so a persistent cursor
// counting completed redos identifies exactly which intents a resumed
// recovery may skip. Entry slices are deep-copied, all of them into one
// buffer.
func (j *Journal) Pending() []PendingIntent {
	j.mustLive()
	n, size := 0, 0
	for _, w := range j.table {
		for _, e := range w.entries {
			if !e.done {
				n, size = n+1, size+len(e.key)+len(e.val)
			}
		}
	}
	if n == 0 {
		return nil
	}
	out := make([]PendingIntent, 0, n)
	buf := make([]byte, 0, size)
	for c, w := range j.table {
		for s, e := range w.entries {
			if e.done {
				continue
			}
			view := Entry{OpSum: e.opSum, Done: e.done, Code: e.code, Tombstone: e.tombstone}
			view.RedoKey, buf = copyOnto(buf, e.key)
			view.RedoVal, buf = copyOnto(buf, e.val)
			out = append(out, PendingIntent{Client: c, Seq: s, Entry: view})
		}
	}
	slices.SortFunc(out, func(a, b PendingIntent) int {
		if a.Client != b.Client {
			return cmp.Compare(a.Client, b.Client)
		}
		return cmp.Compare(a.Seq, b.Seq)
	})
	return out
}

// copyOnto copies p onto the end of buf and returns the copy, capped so
// an append to it cannot reach the next one, and buf; nil for an empty p.
func copyOnto(buf, p []byte) ([]byte, []byte) {
	if len(p) == 0 {
		return nil, buf
	}
	i := len(buf)
	buf = append(buf, p...)
	return buf[i:len(buf):len(buf)], buf
}

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Checksum is the op checksum clients record with an intent: 64 check
// bits over the key, the value image and a caller-chosen tag. Retrying
// the same logical op yields the same sum; reusing a seq for a different
// op does not.
//
// The key and value bytes go through CRC32C and CRC32-IEEE, both
// hardware-accelerated in hash/crc32. The two polynomials are coprime, so
// the pair is one CRC whose generator is their degree-64 product: every
// error burst of up to 64 bits changes it. The lengths, which frame key
// against value, and the tag are mixed in arithmetically, through a
// bijective finaliser, so a different tag or a single flipped bit always
// gives a different sum. (Handing them to crc32.Update as bytes would
// cost a heap allocation per call: its argument escapes.)
func Checksum(key, val []byte, tag uint64) uint64 {
	c := crc32.Update(crc32.Update(0, castagnoli, key), castagnoli, val)
	i := crc32.Update(crc32.Update(0, crc32.IEEETable, key), crc32.IEEETable, val)
	frame := fmix64(uint64(len(key)) + fmix64(uint64(len(val))))
	return fmix64(uint64(c)<<32 | uint64(i) ^ frame ^ tag)
}

// fmix64 is MurmurHash3's 64-bit finaliser: a bijection that spreads
// every input bit over the whole word.
func fmix64(h uint64) uint64 {
	h ^= h >> 33
	h *= 0xFF51AFD7ED558CCD
	h ^= h >> 33
	h *= 0xC4CEB9FE1A85EC53
	h ^= h >> 33
	return h
}
