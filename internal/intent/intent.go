// Package intent is the per-client idempotency journal that makes
// serving exactly-once across power failure. It lives *inside* the
// battery-backed region: the store it writes is a core.Manager mapping,
// so every journal append is a budget-accounted dirty-page write flushed
// by the same powerfail path as application data — durability
// bookkeeping is billed like any other write traffic.
//
// Protocol (driven by the serve dispatch loop):
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
// Crash-consistency layering:
//
//   - Records go through internal/wal (length+seq+checksum, record bytes
//     before head pointer), so recovery replays a committed prefix and
//     rejects the torn tail.
//   - The journal is two wal halves behind a header page. Compaction
//     (when the active half fills) snapshots the live dedup table into
//     the *inactive* half, then flips the active-generation word — an
//     8-byte in-page write, which the NV-DRAM region applies
//     all-or-nothing — so a crash at any instant leaves one fully valid
//     half.
//   - Per-client windows bound the table: a client with window W issues
//     seq n only after every seq ≤ n−W is acked, so entries below
//     maxSeq−W+1 can never be legally retried and are GC'd.
package intent

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sort"

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
	// a client's most recent sequence numbers stay retryable.
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
	kSnapClient byte = 3 // compaction: a client's window bounds
	kSnapEntry  byte = 4 // compaction: one live table entry
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

// State classifies a (client, seq) pair for the dispatch loop.
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
// alias journal-owned memory; callers must not mutate them.
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
}

type clientWin struct {
	low     uint64 // lowest retryable seq; everything below is GC'd
	maxSeq  uint64
	entries map[uint64]*entry
}

// Config parameterises Create.
type Config struct {
	// Window is the per-client sliding dedup window (default
	// DefaultWindow). Persisted in the header; Open restores it.
	Window int
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
	AppendBytes uint64 // record payload bytes appended (journal write traffic)
	StaleSkips  uint64 // replayed records below the window, ignored
	Replayed    uint64 // records replayed at Open
	LiveEntries int
	Clients     int
	Gen         uint64
	HeadBytes   int64 // next append offset within the active half
	HalfBytes   int64 // capacity of each half
}

// instruments groups the obs counters (journal write traffic is a
// first-class observable: it is the write amplification the
// exactly-once guarantee costs).
type instruments struct {
	begins      *obs.Counter
	completes   *obs.Counter
	gcDropped   *obs.Counter
	compactions *obs.Counter
	appendBytes *obs.Counter
	staleSkips  *obs.Counter
	replayed    *obs.Counter
	tornOpens   *obs.Counter
	unjournaled *obs.Counter
	liveEntries *obs.Gauge
	liveClients *obs.Gauge
}

func newInstruments(r *obs.Registry) instruments {
	return instruments{
		begins:      r.Counter("intent_begins_total"),
		completes:   r.Counter("intent_completes_total"),
		gcDropped:   r.Counter("intent_gc_dropped_total"),
		compactions: r.Counter("intent_compactions_total"),
		appendBytes: r.Counter("intent_append_bytes_total"),
		staleSkips:  r.Counter("intent_stale_records_total"),
		replayed:    r.Counter("intent_replayed_records_total"),
		tornOpens:   r.Counter("intent_torn_opens_total"),
		unjournaled: r.Counter("intent_unjournaled_results_total"),
		liveEntries: r.Gauge("intent_live_entries"),
		liveClients: r.Gauge("intent_live_clients"),
	}
}

// Journal is the idempotency journal. Like the rest of the simulated
// stack it is single-goroutine: only the serve dispatch loop touches it.
type Journal struct {
	store    Store
	log      *wal.Log
	gen      uint64
	halfSize int64
	window   uint64

	table map[uint64]*clientWin
	// live is the number of entries across every client's window, kept in
	// step by put and gcLocked so neither a Begin nor Stats walks the table.
	live int

	torn bool // last Open stopped on a torn tail (crash signature)

	// Grow-only record buffers. append may compact while it still holds
	// the record it was asked to write, so snapshot records have their own.
	rec  []byte // the intent or result record being appended
	snap []byte // Compact's snapshot records

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
	if cfg.Window <= 0 {
		cfg.Window = DefaultWindow
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
		window:   uint64(cfg.Window),
		table:    make(map[uint64]*clientWin),
		st:       newInstruments(cfg.Obs),
	}
	l, err := wal.Create(j.half(0))
	if err != nil {
		return nil, err
	}
	j.log = l
	var hdr [32]byte
	binary.LittleEndian.PutUint64(hdr[offGen:], 0)
	binary.LittleEndian.PutUint64(hdr[offHalf:], uint64(halfSize))
	binary.LittleEndian.PutUint64(hdr[offWindow:], j.window)
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
func Open(store Store, reg *obs.Registry) (*Journal, error) {
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
	j := &Journal{
		store:    store,
		gen:      binary.LittleEndian.Uint64(hdr[offGen:]),
		halfSize: int64(binary.LittleEndian.Uint64(hdr[offHalf:])),
		window:   binary.LittleEndian.Uint64(hdr[offWindow:]),
		table:    make(map[uint64]*clientWin),
		st:       newInstruments(reg),
	}
	if j.halfSize < minHalfBytes || headerBytes+2*j.halfSize > store.Size() || j.window == 0 {
		return nil, fmt.Errorf("intent: corrupt journal header (half=%d window=%d store=%d)",
			j.halfSize, j.window, store.Size())
	}
	l, err := wal.Open(j.half(j.gen))
	if err != nil {
		return nil, fmt.Errorf("intent: active half: %w", err)
	}
	j.log = l
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

// TornOpen reports whether the last Open stopped on a torn tail — the
// signature of a crash mid-append. The torn record's request was never
// acked, so it is safe (and correct) that it vanished.
func (j *Journal) TornOpen() bool { return j.torn }

// Window returns the per-client dedup window.
func (j *Journal) Window() int { return int(j.window) }

// Gen returns the active half's generation (flips on compaction).
func (j *Journal) Gen() uint64 { return j.gen }

// Stats returns a snapshot of journal activity.
func (j *Journal) Stats() Stats {
	s := j.stats
	s.Gen = j.gen
	s.HeadBytes = j.log.Head()
	s.HalfBytes = j.halfSize
	s.Clients = len(j.table)
	s.LiveEntries = j.live
	return s
}

func (j *Journal) publishGauges() {
	j.st.liveEntries.Set(int64(j.live))
	j.st.liveClients.Set(int64(len(j.table)))
}

// put stores e as w's entry for seq, counting it if the slot was empty.
func (j *Journal) put(w *clientWin, seq uint64, e *entry) {
	if w.entries[seq] == nil {
		j.live++
	}
	w.entries[seq] = e
}

func (j *Journal) win(client uint64) *clientWin {
	w := j.table[client]
	if w == nil {
		w = &clientWin{low: 1, entries: make(map[uint64]*entry)}
		j.table[client] = w
	}
	return w
}

// Lookup classifies a (client, seq) pair. The returned Entry is only
// meaningful for StateInFlight (redo image) and StateDone (cached
// result).
func (j *Journal) Lookup(client, seq uint64) (Entry, State) {
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
	e := &entry{opSum: opSum, tombstone: tombstone,
		key: append([]byte(nil), redoKey...), val: append([]byte(nil), redoVal...)}
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
// pair dedupable. If the result record cannot be journaled even after
// compaction, the in-memory table is still updated and the condition is
// counted: losing a result record at a crash only costs an extra redo
// re-apply on retry, never a double-apply.
func (j *Journal) Complete(client, seq uint64, code byte, result []byte) error {
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
	j.rec = encodeResult(j.rec, client, seq, code, result)
	err := j.append(j.rec)
	if err != nil {
		j.stats.Completes++ // table still advances; see doc comment
		j.st.unjournaled.Inc()
	} else {
		j.stats.Completes++
		j.st.completes.Inc()
	}
	e.done = true
	e.code = code
	e.result = append([]byte(nil), result...)
	e.key, e.val = nil, nil // redo image no longer needed
	return err
}

// append writes one record to the active half, compacting into the
// other half when full.
func (j *Journal) append(payload []byte) error {
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
		j.st.appendBytes.Add(uint64(len(payload)))
	}
	return err
}

// Compact snapshots the live dedup table into the inactive half and
// flips the active generation. The flip is an 8-byte in-page header
// write — all-or-nothing under the region's per-page write fault — so a
// crash anywhere during compaction leaves exactly one valid journal:
// the old half (flip not yet visible) or the new one (flip landed).
func (j *Journal) Compact() error {
	nl, err := wal.Create(j.half(j.gen + 1))
	if err != nil {
		return err
	}
	clients := make([]uint64, 0, len(j.table))
	for c := range j.table {
		clients = append(clients, c)
	}
	sort.Slice(clients, func(a, b int) bool { return clients[a] < clients[b] })
	var snapBytes uint64
	for _, c := range clients {
		w := j.table[c]
		j.snap = encodeSnapClient(j.snap, c, w.low, w.maxSeq)
		if _, err := nl.Append(j.snap); err != nil {
			return snapErr(err)
		}
		snapBytes += uint64(len(j.snap))
		seqs := make([]uint64, 0, len(w.entries))
		for s := range w.entries {
			seqs = append(seqs, s)
		}
		sort.Slice(seqs, func(a, b int) bool { return seqs[a] < seqs[b] })
		for _, s := range seqs {
			j.snap = encodeSnapEntry(j.snap, c, s, w.entries[s])
			if _, err := nl.Append(j.snap); err != nil {
				return snapErr(err)
			}
			snapBytes += uint64(len(j.snap))
		}
	}
	// Commit point: flip the generation word.
	var g [8]byte
	binary.LittleEndian.PutUint64(g[:], j.gen+1)
	if err := j.store.WriteAt(g[:], offGen); err != nil {
		return err
	}
	j.gen++
	j.log = nl
	j.stats.Compactions++
	j.stats.AppendBytes += snapBytes
	j.st.compactions.Inc()
	j.st.appendBytes.Add(snapBytes)
	return nil
}

func snapErr(err error) error {
	if errors.Is(err, wal.ErrFull) {
		return ErrJournalFull
	}
	return err
}

// gcLocked drops entries below the window's new low-water mark. Safety
// is the window invariant: a client with window W only issues seq n
// after every seq ≤ n−W has been acked, so nothing below maxSeq−W+1 can
// legally be retried.
func (j *Journal) gcLocked(w *clientWin) {
	if w.maxSeq < j.window {
		return
	}
	newLow := w.maxSeq - j.window + 1
	if newLow <= w.low {
		return
	}
	for s := w.low; s < newLow; s++ {
		if _, ok := w.entries[s]; ok {
			delete(w.entries, s)
			j.live--
			j.stats.GCDropped++
			j.st.gcDropped.Inc()
		}
	}
	w.low = newLow
}

// applyRecord folds one replayed record into the table. Records below a
// client's window (possible when live appends follow a compaction
// snapshot) are counted and skipped; malformed records are skipped too
// — the wal checksum already vouched for their integrity, so a decode
// failure means the payload predates this format and dropping it is the
// conservative choice.
func (j *Journal) applyRecord(payload []byte) {
	rec, ok := decode(payload)
	if !ok {
		j.stats.StaleSkips++
		j.st.staleSkips.Inc()
		return
	}
	switch rec.Kind {
	case kIntent:
		w := j.win(rec.Client)
		if rec.Seq < w.low {
			j.skipStale()
			return
		}
		j.put(w, rec.Seq, &entry{opSum: rec.OpSum, tombstone: rec.Tombstone,
			key: rec.Key, val: rec.Val})
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
		e.done = true
		e.code = rec.Code
		e.result = rec.Result
		e.key, e.val = nil, nil
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
		e := &entry{opSum: rec.OpSum, tombstone: rec.Tombstone}
		if rec.Done {
			e.done = true
			e.code = rec.Code
			e.result = rec.Result
		} else {
			e.key, e.val = rec.Key, rec.Val
		}
		j.put(w, rec.Seq, e)
		if rec.Seq > w.maxSeq {
			w.maxSeq = rec.Seq
		}
	default:
		j.skipStale()
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
// recovery may skip. Entry slices are deep-copied.
func (j *Journal) Pending() []PendingIntent {
	var out []PendingIntent
	for c, w := range j.table {
		for s, e := range w.entries {
			if e.done {
				continue
			}
			view := Entry{OpSum: e.opSum, Done: e.done, Code: e.code, Tombstone: e.tombstone}
			view.RedoKey = append([]byte(nil), e.key...)
			view.RedoVal = append([]byte(nil), e.val...)
			out = append(out, PendingIntent{Client: c, Seq: s, Entry: view})
		}
	}
	sort.Slice(out, func(a, b int) bool {
		if out[a].Client != out[b].Client {
			return out[a].Client < out[b].Client
		}
		return out[a].Seq < out[b].Seq
	})
	return out
}

// Checksum is the op checksum clients record with an intent: FNV-1a
// over the key, the value image and a caller-chosen tag. Retrying the
// same logical op yields the same sum; reusing a seq for a different op
// does not.
func Checksum(key, val []byte, tag uint64) uint64 {
	h := uint64(0xCBF29CE484222325)
	mix := func(bs []byte) {
		var l [8]byte
		binary.LittleEndian.PutUint64(l[:], uint64(len(bs)))
		for _, b := range l {
			h ^= uint64(b)
			h *= 0x100000001B3
		}
		for _, b := range bs {
			h ^= uint64(b)
			h *= 0x100000001B3
		}
	}
	mix(key)
	mix(val)
	var t [8]byte
	binary.LittleEndian.PutUint64(t[:], tag)
	mix(t[:])
	return h
}
