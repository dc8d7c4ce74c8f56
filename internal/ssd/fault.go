package ssd

// Fault injection surface. The device model itself never errors; real
// flash does — transient program failures, latency spikes from internal
// GC, and torn (partial) page programs when power sags mid-write. A
// FaultInjector installed with SetFaultInjector decides the fate of each
// submitted write, so adversarial failure schedules stay deterministic:
// the injector (internal/faultinject provides a seeded one) is the only
// source of randomness and runs on the virtual clock.

import (
	"errors"

	"viyojit/internal/mmu"
	"viyojit/internal/sim"
)

// WriteFault classifies an injected write failure.
type WriteFault int

const (
	// FaultNone lets the write proceed normally.
	FaultNone WriteFault = iota
	// FaultTransient fails the IO: the completion reports ErrWriteFault
	// and the durable store is unchanged. The device consumed bus time
	// for the attempt.
	FaultTransient
	// FaultTorn models a program failure mid-write: the first half of
	// the page lands durably, the rest keeps its previous contents (or
	// zeroes if the page was never written), and the completion reports
	// ErrTornWrite. A correct consumer must keep the page dirty and
	// rewrite it in full.
	FaultTorn
	// FaultLost models a lost write: the device acks success but never
	// persists the data. The completion reports nil — the host believes
	// the page durable — while the store keeps its previous contents.
	// Only the page checksum (recorded at ack) can expose the lie.
	FaultLost
	// FaultMisdirected models a misdirected write: the device acks
	// success for the intended page but the data lands on a different
	// durable page, silently corrupting the victim while leaving the
	// intended page stale. With no other durable page to hit it degrades
	// to FaultLost semantics.
	FaultMisdirected
)

// FaultDecision is the injector's verdict for one write.
type FaultDecision struct {
	Fault WriteFault
	// ExtraLatency is added to the IO's completion time — a latency
	// spike. It composes with any Fault.
	ExtraLatency sim.Duration
	// Rot, when set, flips one bit in one at-rest durable page at the
	// IO's completion time — silent bit rot. It composes with any Fault;
	// RotSeed deterministically selects the victim page and bit.
	Rot     bool
	RotSeed uint64
	// MisdirectSeed deterministically selects the victim page of a
	// FaultMisdirected write.
	MisdirectSeed uint64
}

// FaultInjector decides the fate of each submitted page write. It is
// consulted once per page-write submission (see SetFaultInjector; retries
// are new submissions and are consulted again). data is the submission
// snapshot, valid only for the call. Implementations must be
// deterministic for reproducible runs.
type FaultInjector interface {
	WriteFault(page mmu.PageID, data []byte) FaultDecision
}

// ErrWriteFault is reported by a completion whose IO was failed by the
// installed FaultInjector; the durable store is unchanged.
var ErrWriteFault = errors.New("ssd: transient write error (injected)")

// ErrTornWrite is reported by a completion whose IO tore: only a prefix
// of the page landed durably. The caller must rewrite the full page.
var ErrTornWrite = errors.New("ssd: torn page write (injected)")

// SetFaultInjector installs (or, with nil, removes) the write fault
// injector. Only the page writes consult it: WriteSnapshotAsync, which
// every clean uses, and WritePageAsync / WritePageSync, which submit
// through it. WriteBatch — the battery-powered power-fail flush — is
// exempt, matching the paper's assumption that the backup path itself is
// engineered to complete (faultinject models battery shortfall separately
// via capacity sag).
func (d *SSD) SetFaultInjector(fi FaultInjector) { d.faults = fi }

// applyTorn installs the torn image for page: the first half of data
// over whatever the durable store previously held. The acked checksum is
// left at the previous ack, so the mixed image is checksum-detectable,
// and the corruption oracle records the divergence until a full rewrite
// lands. The torn image is a buffer of its own; the snapshot is the
// caller's to recycle.
func (d *SSD) applyTorn(page mmu.PageID, data []byte) {
	torn := d.PageBuffer()
	if prev := d.slotAt(page).data; prev != nil {
		copy(torn, prev)
	} else {
		clear(torn)
	}
	copy(torn[:len(data)/2], data[:len(data)/2])
	d.recycle(d.putData(page, torn, checksum(torn)))
	d.noteCorrupt(page)
}
