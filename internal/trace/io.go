package trace

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"

	"viyojit/internal/sim"
)

// Volume traces serialise to a compact binary format so operators can
// capture real file-system traces externally, convert them, and feed
// them to the sizing tool (cmd/provision) and the replayer (cmd/replay).
// The format is versioned and self-describing:
//
//	magic  "VIYTRACE"           8 bytes
//	version u32                 (currently 1)
//	name    u16 len + bytes
//	sizeBytes, pageSize, duration, eventCount (u64 each)
//	events: eventCount × (at u64, page u64, bytes u32, flags u8)
//
// All integers are little endian.

const (
	traceMagic   = "VIYTRACE"
	traceVersion = 1
	flagWrite    = 1
)

// WriteTo serialises the volume. It returns the number of bytes written.
func (v *Volume) WriteTo(w io.Writer) (int64, error) {
	bw := bufio.NewWriter(w)
	var n int64
	write := func(data any) error {
		if err := binary.Write(bw, binary.LittleEndian, data); err != nil {
			return err
		}
		n += int64(binary.Size(data))
		return nil
	}

	if _, err := bw.WriteString(traceMagic); err != nil {
		return n, err
	}
	n += int64(len(traceMagic))
	if err := write(uint32(traceVersion)); err != nil {
		return n, err
	}
	name := []byte(v.Spec.Name)
	if len(name) > 1<<16-1 {
		return n, fmt.Errorf("trace: volume name %d bytes too long", len(name))
	}
	if err := write(uint16(len(name))); err != nil {
		return n, err
	}
	if _, err := bw.Write(name); err != nil {
		return n, err
	}
	n += int64(len(name))
	header := []uint64{
		uint64(v.Spec.SizeBytes),
		uint64(v.Spec.PageSize),
		uint64(v.Duration),
		uint64(len(v.Events)),
	}
	for _, h := range header {
		if err := write(h); err != nil {
			return n, err
		}
	}
	for _, e := range v.Events {
		if err := write(uint64(e.At)); err != nil {
			return n, err
		}
		if err := write(uint64(e.Page)); err != nil {
			return n, err
		}
		if err := write(uint32(e.Bytes)); err != nil {
			return n, err
		}
		var flags uint8
		if e.Write {
			flags |= flagWrite
		}
		if err := write(flags); err != nil {
			return n, err
		}
	}
	return n, bw.Flush()
}

// ReadVolume deserialises a volume written by WriteTo, validating the
// header and every event against the declared geometry.
func ReadVolume(r io.Reader) (*Volume, error) {
	br := bufio.NewReader(r)
	magic := make([]byte, len(traceMagic))
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, fmt.Errorf("trace: reading magic: %w", err)
	}
	if string(magic) != traceMagic {
		return nil, fmt.Errorf("trace: bad magic %q; not a trace file", magic)
	}
	var version uint32
	if err := binary.Read(br, binary.LittleEndian, &version); err != nil {
		return nil, err
	}
	if version != traceVersion {
		return nil, fmt.Errorf("trace: unsupported version %d", version)
	}
	var nameLen uint16
	if err := binary.Read(br, binary.LittleEndian, &nameLen); err != nil {
		return nil, err
	}
	name := make([]byte, nameLen)
	if _, err := io.ReadFull(br, name); err != nil {
		return nil, err
	}
	var size, pageSize, duration, count uint64
	for _, p := range []*uint64{&size, &pageSize, &duration, &count} {
		if err := binary.Read(br, binary.LittleEndian, p); err != nil {
			return nil, err
		}
	}
	if pageSize == 0 || size == 0 || size%pageSize != 0 {
		return nil, fmt.Errorf("trace: corrupt geometry size=%d pageSize=%d", size, pageSize)
	}
	const maxEvents = 1 << 28
	if count > maxEvents {
		return nil, fmt.Errorf("trace: event count %d exceeds sanity bound", count)
	}
	v := &Volume{
		Spec: VolumeSpec{
			Name:      string(name),
			SizeBytes: int64(size),
			PageSize:  int(pageSize),
		},
		Duration: sim.Duration(duration),
		Events:   make([]Event, 0, count),
	}
	totalPages := int64(size / pageSize)
	var prev uint64
	for i := uint64(0); i < count; i++ {
		var at, page uint64
		var bytes uint32
		var flags uint8
		if err := binary.Read(br, binary.LittleEndian, &at); err != nil {
			return nil, fmt.Errorf("trace: event %d: %w", i, err)
		}
		if err := binary.Read(br, binary.LittleEndian, &page); err != nil {
			return nil, err
		}
		if err := binary.Read(br, binary.LittleEndian, &bytes); err != nil {
			return nil, err
		}
		if err := binary.Read(br, binary.LittleEndian, &flags); err != nil {
			return nil, err
		}
		if at < prev {
			return nil, fmt.Errorf("trace: event %d out of time order", i)
		}
		prev = at
		if int64(page) >= totalPages {
			return nil, fmt.Errorf("trace: event %d page %d outside %d-page volume", i, page, totalPages)
		}
		v.Events = append(v.Events, Event{
			At:    sim.Time(at),
			Page:  int64(page),
			Bytes: int(bytes),
			Write: flags&flagWrite != 0,
		})
	}
	return v, nil
}
