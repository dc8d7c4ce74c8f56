package intent

import (
	"encoding/binary"
	"slices"

	"viyojit/internal/obs"
)

// Record formats (wal payload bytes; the wal adds length/seq/checksum):
//
//	kIntent:     kind u8 | client u64 | seq u64 | opSum u64 | flags u8 |
//	             keyLen u16 | valLen u32 | key | val
//	kResult:     kind u8 | client u64 | seq u64 | code u8 | flags u8 |
//	             resLen u32 | res
//	kSnapshot:   kind u8 | the table as kSnapClient and kSnapEntry records
//	             back to back, each client's window before its entries
//	kSnapClient: kind u8 | client u64 | low u64 | maxSeq u64
//	kSnapEntry:  kind u8 | client u64 | seq u64 | state u8 | opSum u64 |
//	             code u8 | flags u8 | keyLen u16 | valLen u32 | resLen u32 |
//	             key | val | res
//
// flags bit0 = tombstone (the redo deletes the key instead of writing
// it); bit1, on a kResult only = the result is the redo value the intent
// record already holds, so res is empty. state for kSnapEntry: 0
// in-flight, 1 done. kSnapClient and kSnapEntry are written only inside a
// kSnapshot; every record's length follows from its own header, so the
// snapshot needs no framing of its own.

const (
	flagTombstone    = 1
	flagResultIsRedo = 2

	snapClientBytes = 1 + 8 + 8 + 8
	snapEntryBytes  = 1 + 8 + 8 + 1 + 8 + 1 + 1 + 2 + 4 + 4 // before key, val and result
)

// encodeIntent and encodeResult build a record in buf's storage, grown if
// it is too small, and return it; every byte of the record is written, so
// what buf held does not matter. The two snapshot encoders append to buf.

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

// encodeResult records res, or with isRedo only the flag that stands for it.
func encodeResult(buf []byte, client, seq uint64, code byte, res []byte, isRedo bool) []byte {
	if isRedo {
		res = nil
	}
	p := sized(buf, 1+8+8+1+1+4+len(res))
	p[0] = kResult
	binary.LittleEndian.PutUint64(p[1:], client)
	binary.LittleEndian.PutUint64(p[9:], seq)
	p[17] = code
	p[18] = 0
	if isRedo {
		p[18] = flagResultIsRedo
	}
	binary.LittleEndian.PutUint32(p[19:], uint32(len(res)))
	copy(p[23:], res)
	return p
}

func appendSnapClient(buf []byte, client, low, maxSeq uint64) []byte {
	buf = append(buf, kSnapClient)
	buf = binary.LittleEndian.AppendUint64(buf, client)
	buf = binary.LittleEndian.AppendUint64(buf, low)
	return binary.LittleEndian.AppendUint64(buf, maxSeq)
}

func appendSnapEntry(buf []byte, client, seq uint64, e *entry) []byte {
	var state, flags byte
	if e.done {
		state = 1
	}
	if e.tombstone {
		flags = flagTombstone
	}
	buf = append(buf, kSnapEntry)
	buf = binary.LittleEndian.AppendUint64(buf, client)
	buf = binary.LittleEndian.AppendUint64(buf, seq)
	buf = append(buf, state)
	buf = binary.LittleEndian.AppendUint64(buf, e.opSum)
	buf = append(buf, e.code, flags)
	buf = binary.LittleEndian.AppendUint16(buf, uint16(len(e.key)))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(e.val)))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(e.result)))
	buf = append(buf, e.key...)
	buf = append(buf, e.val...)
	return append(buf, e.result...)
}

// Record is the decoded form of one journal record.
type Record struct {
	Kind      byte
	Client    uint64
	Seq       uint64
	OpSum     uint64
	Done      bool
	Code      byte
	Tombstone bool
	IsRedo    bool   // kResult: the result is the intent's redo value
	Low       uint64 // kSnapClient
	MaxSeq    uint64 // kSnapClient
	Key       []byte
	Val       []byte
	Result    []byte
}

// decode parses the record at the head of p and returns it with its
// encoded length; 0 means the bytes do not start a well-shaped intent,
// result or snapshot-part record. Slices alias p, whose replay buffer the
// next record overwrites (wal.Log.Replay): apply copies what it keeps.
func decode(p []byte) (Record, int) {
	if len(p) == 0 {
		return Record{}, 0
	}
	switch p[0] {
	case kIntent:
		if len(p) < 32 {
			return Record{}, 0
		}
		kl := int(binary.LittleEndian.Uint16(p[26:]))
		vl := int(binary.LittleEndian.Uint32(p[28:]))
		if len(p) < 32+kl+vl {
			return Record{}, 0
		}
		return Record{
			Kind:      kIntent,
			Client:    binary.LittleEndian.Uint64(p[1:]),
			Seq:       binary.LittleEndian.Uint64(p[9:]),
			OpSum:     binary.LittleEndian.Uint64(p[17:]),
			Tombstone: p[25]&flagTombstone != 0,
			Key:       part(p[32 : 32+kl]),
			Val:       part(p[32+kl : 32+kl+vl]),
		}, 32 + kl + vl
	case kResult:
		if len(p) < 23 {
			return Record{}, 0
		}
		rl := int(binary.LittleEndian.Uint32(p[19:]))
		if len(p) < 23+rl {
			return Record{}, 0
		}
		return Record{
			Kind:   kResult,
			Client: binary.LittleEndian.Uint64(p[1:]),
			Seq:    binary.LittleEndian.Uint64(p[9:]),
			Done:   true,
			Code:   p[17],
			IsRedo: p[18]&flagResultIsRedo != 0,
			Result: part(p[23 : 23+rl]),
		}, 23 + rl
	case kSnapClient:
		if len(p) < snapClientBytes {
			return Record{}, 0
		}
		return Record{
			Kind:   kSnapClient,
			Client: binary.LittleEndian.Uint64(p[1:]),
			Low:    binary.LittleEndian.Uint64(p[9:]),
			MaxSeq: binary.LittleEndian.Uint64(p[17:]),
		}, snapClientBytes
	case kSnapEntry:
		if len(p) < snapEntryBytes {
			return Record{}, 0
		}
		kl := int(binary.LittleEndian.Uint16(p[28:]))
		vl := int(binary.LittleEndian.Uint32(p[30:]))
		rl := int(binary.LittleEndian.Uint32(p[34:]))
		if len(p) < snapEntryBytes+kl+vl+rl {
			return Record{}, 0
		}
		off := snapEntryBytes
		return Record{
			Kind:      kSnapEntry,
			Client:    binary.LittleEndian.Uint64(p[1:]),
			Seq:       binary.LittleEndian.Uint64(p[9:]),
			Done:      p[17] == 1,
			OpSum:     binary.LittleEndian.Uint64(p[18:]),
			Code:      p[26],
			Tombstone: p[27]&flagTombstone != 0,
			Key:       part(p[off : off+kl]),
			Val:       part(p[off+kl : off+kl+vl]),
			Result:    part(p[off+kl+vl : off+kl+vl+rl]),
		}, snapEntryBytes + kl + vl + rl
	}
	return Record{}, 0
}

// walk hands fn the records of one wal payload in order — the one record
// an intent or result payload is, or every part of a snapshot — and
// reports whether the payload was well-shaped to its last byte. Parts
// ahead of a malformed one have been handed over by then.
func walk(payload []byte, fn func(Record)) bool {
	if len(payload) > 0 && payload[0] == kSnapshot {
		for payload = payload[1:]; len(payload) > 0; {
			rec, n := decode(payload)
			if n == 0 {
				return false
			}
			fn(rec)
			payload = payload[n:]
		}
		return true
	}
	rec, n := decode(payload)
	if n == 0 || n != len(payload) {
		return false
	}
	fn(rec)
	return true
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
