package wal

import (
	"bytes"
	"encoding/binary"
	"testing"
)

// FuzzOpenReplay hardens log recovery against arbitrary store contents:
// Open/Replay must never panic, and whatever replays must be
// self-consistent (sequence numbers strictly increasing from 1).
func FuzzOpenReplay(f *testing.F) {
	// Seed with a valid log image and mutations of it.
	valid := func() []byte {
		ms := newMemStore(recordBase + 4096)
		l, err := Create(ms)
		if err != nil {
			f.Fatal(err)
		}
		for i := 0; i < 5; i++ {
			if _, err := l.Append([]byte("seed-record")); err != nil {
				f.Fatal(err)
			}
		}
		return ms.data
	}()
	f.Add(valid)
	mutated := append([]byte(nil), valid...)
	mutated[recordBase+3] ^= 0xFF
	f.Add(mutated)
	f.Add(make([]byte, recordBase+64))

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < recordBase+recordHeaderSize+1 {
			return
		}
		ms := &memStore{data: append([]byte(nil), data...)}
		l, err := Open(ms)
		if err != nil {
			return
		}
		expect := uint64(1)
		if err := l.Replay(func(seq uint64, payload []byte) error {
			if seq != expect {
				t.Fatalf("replayed seq %d, expected %d", seq, expect)
			}
			if len(payload) == 0 {
				t.Fatal("replayed empty payload")
			}
			expect++
			return nil
		}); err != nil {
			t.Fatalf("replay errored on accepted log: %v", err)
		}
	})
}

// FuzzReplay is the crash-corruption property test: build a known-good
// log, let the fuzzer corrupt or truncate an arbitrary byte range (the
// image a torn SSD write or mid-append power failure leaves behind), and
// require that whatever Replay accepts is an exact prefix of the records
// originally appended — corrupted tails are detected and rejected, never
// mis-replayed as different data.
func FuzzReplay(f *testing.F) {
	// The reference log: payloads of varied lengths so record boundaries
	// land at irregular offsets.
	var payloads [][]byte
	for i := 0; i < 8; i++ {
		p := bytes.Repeat([]byte{byte('A' + i)}, 5+i*9)
		binary.LittleEndian.PutUint32(p[:4], uint32(i))
		payloads = append(payloads, p)
	}
	pristine := func(tb testing.TB) []byte {
		ms := newMemStore(recordBase + 2048)
		l, err := Create(ms)
		if err != nil {
			tb.Fatal(err)
		}
		for _, p := range payloads {
			if _, err := l.Append(p); err != nil {
				tb.Fatal(err)
			}
		}
		return ms.data
	}
	img := pristine(f)
	f.Add(uint32(recordBase), uint8(7), uint8(200))      // clobber first record
	f.Add(uint32(offHead), uint8(8), uint8(0x55))        // tear the header head field
	f.Add(uint32(len(img)-40), uint8(40), uint8(1))      // tail corruption
	f.Add(uint32(recordBase+100), uint8(1), uint8(0x80)) // single bit-ish flip mid-log
	// One bit in each field of the first record: length, seq, the CRC's
	// low word, the widened sum's zero high word, first payload byte.
	for _, off := range []uint32{0, 4, 12, 19, recordHeaderSize} {
		f.Add(recordBase+off, uint8(1), uint8(0x01))
	}

	f.Fuzz(func(t *testing.T, off uint32, length uint8, xor uint8) {
		data := pristine(t)
		// Corrupt [off, off+length) with the xor pattern; clamp to the
		// image. xor==0 leaves the log intact (the identity case must
		// replay everything).
		start := int(off) % len(data)
		end := start + int(length)
		if end > len(data) {
			end = len(data)
		}
		for i := start; i < end; i++ {
			data[i] ^= xor
		}
		ms := &memStore{data: data}
		l, err := Open(ms)
		if err != nil {
			return // rejected outright: fine
		}
		var got [][]byte
		if err := l.Replay(func(_ uint64, payload []byte) error {
			got = append(got, append([]byte(nil), payload...))
			return nil
		}); err != nil {
			t.Fatalf("replay errored instead of stopping: %v", err)
		}
		if len(got) > len(payloads) {
			t.Fatalf("replayed %d records, only %d were ever appended", len(got), len(payloads))
		}
		for i, p := range got {
			if !bytes.Equal(p, payloads[i]) {
				t.Fatalf("record %d replayed as %q, appended %q — corruption mis-replayed", i, p, payloads[i])
			}
		}
		if xor == 0 && len(got) != len(payloads) {
			t.Fatalf("uncorrupted log replayed %d of %d records", len(got), len(payloads))
		}
	})
}
