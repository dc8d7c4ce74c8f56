package intent

import (
	"encoding/binary"
	"slices"

	"viyojit/internal/obs"
	"viyojit/internal/wal"
)

// Record formats (wal payload bytes; the wal adds length/seq/checksum):
//
//	kIntent:     kind u8 | client u64 | seq u64 | opSum u64 | flags u8 |
//	             keyLen u16 | valLen u32 | key | val
//	kResult:     kind u8 | client u64 | seq u64 | code u8 | resLen u32 | res
//	kSnapClient: kind u8 | client u64 | low u64 | maxSeq u64
//	kSnapEntry:  kind u8 | client u64 | seq u64 | state u8 | opSum u64 |
//	             code u8 | flags u8 | keyLen u16 | valLen u32 | resLen u32 |
//	             key | val | res
//
// flags bit0 = tombstone (the redo deletes the key instead of writing
// it). state for kSnapEntry: 0 in-flight, 1 done.

const flagTombstone = 1

// The encoders build a record in buf's storage, grown if it is too small,
// and return it; every byte of the record is written, so what buf held
// does not matter.

func sized(buf []byte, n int) []byte { return slices.Grow(buf[:0], n)[:n] }

func encodeIntent(buf []byte, client, seq, opSum uint64, key, val []byte, tombstone bool) []byte {
	p := sized(buf, 1+8+8+8+1+2+4+len(key)+len(val))
	p[0] = kIntent
	binary.LittleEndian.PutUint64(p[1:], client)
	binary.LittleEndian.PutUint64(p[9:], seq)
	binary.LittleEndian.PutUint64(p[17:], opSum)
	p[25] = 0
	if tombstone {
		p[25] = flagTombstone
	}
	binary.LittleEndian.PutUint16(p[26:], uint16(len(key)))
	binary.LittleEndian.PutUint32(p[28:], uint32(len(val)))
	copy(p[32:], key)
	copy(p[32+len(key):], val)
	return p
}

func encodeResult(buf []byte, client, seq uint64, code byte, res []byte) []byte {
	p := sized(buf, 1+8+8+1+4+len(res))
	p[0] = kResult
	binary.LittleEndian.PutUint64(p[1:], client)
	binary.LittleEndian.PutUint64(p[9:], seq)
	p[17] = code
	binary.LittleEndian.PutUint32(p[18:], uint32(len(res)))
	copy(p[22:], res)
	return p
}

func encodeSnapClient(buf []byte, client, low, maxSeq uint64) []byte {
	p := sized(buf, 1+8+8+8)
	p[0] = kSnapClient
	binary.LittleEndian.PutUint64(p[1:], client)
	binary.LittleEndian.PutUint64(p[9:], low)
	binary.LittleEndian.PutUint64(p[17:], maxSeq)
	return p
}

func encodeSnapEntry(buf []byte, client, seq uint64, e *entry) []byte {
	p := sized(buf, 1+8+8+1+8+1+1+2+4+4+len(e.key)+len(e.val)+len(e.result))
	p[0] = kSnapEntry
	binary.LittleEndian.PutUint64(p[1:], client)
	binary.LittleEndian.PutUint64(p[9:], seq)
	p[17] = 0
	if e.done {
		p[17] = 1
	}
	binary.LittleEndian.PutUint64(p[18:], e.opSum)
	p[26] = e.code
	p[27] = 0
	if e.tombstone {
		p[27] = flagTombstone
	}
	binary.LittleEndian.PutUint16(p[28:], uint16(len(e.key)))
	binary.LittleEndian.PutUint32(p[30:], uint32(len(e.val)))
	binary.LittleEndian.PutUint32(p[34:], uint32(len(e.result)))
	off := 38
	off += copy(p[off:], e.key)
	off += copy(p[off:], e.val)
	copy(p[off:], e.result)
	return p
}

// Record is the decoded form of one journal record, used by replay and
// by harnesses auditing the raw journal.
type Record struct {
	Kind      byte
	Client    uint64
	Seq       uint64
	OpSum     uint64
	Done      bool
	Code      byte
	Tombstone bool
	Low       uint64 // kSnapClient
	MaxSeq    uint64 // kSnapClient
	Key       []byte
	Val       []byte
	Result    []byte
}

// decode parses a record payload; !ok means the bytes do not form a
// well-shaped record of any known kind.
func decode(p []byte) (Record, bool) {
	if len(p) == 0 {
		return Record{}, false
	}
	switch p[0] {
	case kIntent:
		if len(p) < 32 {
			return Record{}, false
		}
		kl := int(binary.LittleEndian.Uint16(p[26:]))
		vl := int(binary.LittleEndian.Uint32(p[28:]))
		if len(p) != 32+kl+vl {
			return Record{}, false
		}
		return Record{
			Kind:      kIntent,
			Client:    binary.LittleEndian.Uint64(p[1:]),
			Seq:       binary.LittleEndian.Uint64(p[9:]),
			OpSum:     binary.LittleEndian.Uint64(p[17:]),
			Tombstone: p[25]&flagTombstone != 0,
			Key:       append([]byte(nil), p[32:32+kl]...),
			Val:       append([]byte(nil), p[32+kl:32+kl+vl]...),
		}, true
	case kResult:
		if len(p) < 22 {
			return Record{}, false
		}
		rl := int(binary.LittleEndian.Uint32(p[18:]))
		if len(p) != 22+rl {
			return Record{}, false
		}
		return Record{
			Kind:   kResult,
			Client: binary.LittleEndian.Uint64(p[1:]),
			Seq:    binary.LittleEndian.Uint64(p[9:]),
			Done:   true,
			Code:   p[17],
			Result: append([]byte(nil), p[22:22+rl]...),
		}, true
	case kSnapClient:
		if len(p) != 25 {
			return Record{}, false
		}
		return Record{
			Kind:   kSnapClient,
			Client: binary.LittleEndian.Uint64(p[1:]),
			Low:    binary.LittleEndian.Uint64(p[9:]),
			MaxSeq: binary.LittleEndian.Uint64(p[17:]),
		}, true
	case kSnapEntry:
		if len(p) < 38 {
			return Record{}, false
		}
		kl := int(binary.LittleEndian.Uint16(p[28:]))
		vl := int(binary.LittleEndian.Uint32(p[30:]))
		rl := int(binary.LittleEndian.Uint32(p[34:]))
		if len(p) != 38+kl+vl+rl {
			return Record{}, false
		}
		off := 38
		return Record{
			Kind:      kSnapEntry,
			Client:    binary.LittleEndian.Uint64(p[1:]),
			Seq:       binary.LittleEndian.Uint64(p[9:]),
			Done:      p[17] == 1,
			OpSum:     binary.LittleEndian.Uint64(p[18:]),
			Code:      p[26],
			Tombstone: p[27]&flagTombstone != 0,
			Key:       append([]byte(nil), p[off:off+kl]...),
			Val:       append([]byte(nil), p[off+kl:off+kl+vl]...),
			Result:    append([]byte(nil), p[off+kl+vl:off+kl+vl+rl]...),
		}, true
	}
	return Record{}, false
}

// ReplayRecords walks the committed prefix of a journal's *active* half
// read-only, invoking fn per decoded record. It reports whether the
// prefix ended on a torn tail. Harnesses use it to check that a rebuilt
// dedup table equals what the raw journal prefix implies.
func ReplayRecords(store Store, fn func(Record) error) (torn bool, err error) {
	var hdr [32]byte
	if err := store.ReadAt(hdr[:], 0); err != nil {
		return false, err
	}
	if binary.LittleEndian.Uint64(hdr[offMagic:]) != journalMagic {
		return false, ErrNoJournal
	}
	gen := binary.LittleEndian.Uint64(hdr[offGen:])
	halfSize := int64(binary.LittleEndian.Uint64(hdr[offHalf:]))
	if halfSize < minHalfBytes || headerBytes+2*halfSize > store.Size() {
		return false, ErrNoJournal
	}
	j := &Journal{store: store, halfSize: halfSize}
	l, err := wal.Open(j.half(gen))
	if err != nil {
		return false, err
	}
	err = l.Replay(func(seq uint64, payload []byte) error {
		rec, ok := decode(payload)
		if !ok {
			return nil // unknown payload; integrity already vouched by the wal
		}
		return fn(rec)
	})
	if err != nil {
		return false, err
	}
	return l.LastStop() == wal.StopTorn, nil
}

// RebuildTable replays a journal read-only into a fresh dedup table and
// returns its Snapshot — the "journal prefix" side of the
// table-equals-prefix invariant the crash sweep checks.
func RebuildTable(store Store) (map[uint64]ClientSnapshot, bool, error) {
	j2, err := Open(store, obs.NewRegistry())
	if err != nil {
		return nil, false, err
	}
	return j2.Snapshot(), j2.TornOpen(), nil
}
