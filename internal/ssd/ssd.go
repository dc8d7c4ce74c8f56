// Package ssd models the flash SSD that backs the NV-DRAM: the durability
// domain Viyojit copies dirty pages into. The model captures what the
// paper's mechanism depends on — finite write bandwidth, per-IO latency, a
// bounded number of outstanding requests (16 in the paper's experiments),
// verifiable durable contents, and wear accounting — while staying on the
// deterministic virtual clock.
package ssd

import (
	"bytes"
	"fmt"

	"viyojit/internal/mmu"
	"viyojit/internal/sim"
)

// Config describes the device.
type Config struct {
	// PageSize is the transfer unit in bytes; it must match the NV-DRAM
	// page size. 0 selects 4096.
	PageSize int
	// WriteBandwidth is the sustained write bandwidth in bytes/second.
	// 0 selects 2 GB/s (a mid-range datacenter NVMe drive; the paper's
	// sizing example assumes 4 GB/s, which cmd/battery-calc uses).
	WriteBandwidth int64
	// ReadBandwidth is the sustained read bandwidth in bytes/second.
	// 0 selects 3 GB/s.
	ReadBandwidth int64
	// PerIOLatency is the fixed device latency added to every IO.
	// 0 selects 60 µs (a 2017-era datacenter SSD write).
	PerIOLatency sim.Duration
	// MaxOutstanding bounds the number of in-flight IOs; submissions
	// beyond the bound virtually block until a slot frees. 0 selects 16,
	// the value the paper's evaluation fixes.
	MaxOutstanding int
	// Dedup enables content-addressed write deduplication (§7's
	// suggested traffic reduction): duplicate page contents transfer
	// only a fingerprint record.
	Dedup bool
	// Compression enables transfer-size compression (§7): the bus cost
	// of a write is its estimated compressed size.
	Compression bool
	// WearCapacityBytes is the modelled flash capacity used for
	// wear-driven bandwidth degradation: as cumulative writes approach
	// and exceed full-capacity passes, sustained write bandwidth
	// declines (program/erase cycles slow and garbage collection eats
	// into the channel). 0 disables degradation; WearBytesPerCell still
	// reports wear against any capacity the caller supplies.
	WearCapacityBytes int64
}

// The wear model and the measurement window, fixed.
const (
	// wearBandwidthDecay is the fraction of nominal write bandwidth lost
	// per full-capacity write pass when WearCapacityBytes is set (4 % per
	// pass, roughly linearised from published NAND endurance curves).
	wearBandwidthDecay = 0.04
	// wearBandwidthFloor is the lower bound on the degraded bandwidth as
	// a fraction of nominal.
	wearBandwidthFloor = 0.25
	// measureWindow is the number of recent write completions kept for
	// the measured-bandwidth/latency estimators the health monitor
	// samples.
	measureWindow = 64
)

func (c Config) withDefaults() Config {
	if c.PageSize == 0 {
		c.PageSize = 4096
	}
	if c.WriteBandwidth == 0 {
		c.WriteBandwidth = 2 << 30
	}
	if c.ReadBandwidth == 0 {
		c.ReadBandwidth = 3 << 30
	}
	if c.PerIOLatency == 0 {
		c.PerIOLatency = 60 * sim.Microsecond
	}
	if c.MaxOutstanding == 0 {
		c.MaxOutstanding = 16
	}
	return c
}

// Stats counts device activity since construction.
type Stats struct {
	WritesSubmitted uint64
	WritesCompleted uint64
	ReadsCompleted  uint64
	BytesWritten    uint64
	BytesRead       uint64
	SubmitStalls    uint64 // submissions that had to wait for a queue slot
	WriteErrors     uint64 // completions that reported a transient fault
	TornWrites      uint64 // completions that reported a torn write
	LatencySpikes   uint64 // IOs delayed by injected extra latency
	LostWrites      uint64 // completions acked without persisting (injected)
	Misdirected     uint64 // completions whose data landed on the wrong page (injected)
	RotEvents       uint64 // at-rest bit corruptions applied (injected)
	VerifyChecks    uint64 // checksum verifications performed
	VerifyFailures  uint64 // verifications that found corruption
	MaxQueueDepth   int
	BusyUntil       sim.Time // device busy horizon (for utilisation)
	TotalWriteLag   sim.Duration
	completedForAvg uint64
}

// AvgWriteLatency returns the mean submit-to-completion latency of
// completed writes.
func (s Stats) AvgWriteLatency() sim.Duration {
	if s.completedForAvg == 0 {
		return 0
	}
	return s.TotalWriteLag / sim.Duration(s.completedForAvg)
}

// SSD is the device model. It is not safe for concurrent use; all activity
// happens on the owning simulation's goroutine.
type SSD struct {
	clock  *sim.Clock
	events *sim.Queue
	cfg    Config

	store     map[mmu.PageID][]byte   // durable page contents
	sums      map[mmu.PageID]uint64   // per-page checksums of last acked contents (integrity.go)
	stored    pageSet                 // the pages with an entry in store (putData)
	claimed   pageSet                 // the pages with an entry in store or sums (putData, putSum)
	lent      pageSet                 // the pages whose stored buffer another device object may hold (AdoptVerified)
	corruptAt map[mmu.PageID]sim.Time // oracle: first unrepaired silent corruption per page
	dedup     map[uint64]struct{}     // content fingerprints (Dedup)
	faults    FaultInjector           // nil = never errors (fault.go)
	inflight  int
	bandwidth sim.Time // next time the write channel is free
	stats     Stats
	reduction ReductionStats

	// free holds page buffers that no page's contents and no in-flight
	// write use: stored buffers a later write displaced, and snapshots
	// that were never stored. PageBuffer hands them out again.
	free [][]byte
	// writes holds the write records not in flight (newWrite).
	writes []*write

	// window is the ring of recent write completions backing the
	// measured-bandwidth/latency estimators (see MeasuredWriteBandwidth).
	window []measureSample
	winPos int

	// st mirrors the counters onto an observability registry
	// (instruments.go); zero-valued until AttachObs.
	st instruments
}

// measureSample is one completed write in the measurement window.
type measureSample struct {
	submitted sim.Time
	done      sim.Time
	bytes     int // 0 for a failed (transient/torn) write: no goodput
}

// New creates an SSD on the given clock and event queue. The event queue
// must be the simulation's shared queue: IO completions are delivered
// through it so they interleave correctly with epoch ticks and other
// events.
func New(clock *sim.Clock, events *sim.Queue, cfg Config) *SSD {
	return &SSD{
		clock:  clock,
		events: events,
		cfg:    cfg.withDefaults(),
		store:  make(map[mmu.PageID][]byte),
		sums:   make(map[mmu.PageID]uint64),
	}
}

// putData installs data, a buffer no other device object holds, as page's
// stored contents, and returns the buffer it displaced: nil if the page
// had none, or if its buffer was lent, since another object may still read
// a lent one. Every insertion into store goes through here: neither map
// ever loses an entry, so the stored and claimed sets only grow, and "bit
// set ⇔ page has an entry" holds by construction.
func (d *SSD) putData(page mmu.PageID, data []byte) (displaced []byte) {
	displaced = d.store[page]
	if d.lent.has(page) {
		displaced = nil
		d.lent.remove(page)
	}
	d.store[page] = data
	d.stored.add(page)
	d.claimed.add(page)
	return displaced
}

// PageBuffer hands out a page-sized buffer for a write snapshot: one that
// a completed write displaced, or a new one when none is free. It holds
// whatever it last held, so the caller overwrites all of it and then
// passes it to WriteSnapshotAsync.
func (d *SSD) PageBuffer() []byte {
	n := len(d.free)
	if n == 0 {
		return make([]byte, d.cfg.PageSize)
	}
	buf := d.free[n-1]
	d.free[n-1] = nil
	d.free = d.free[:n-1]
	return buf
}

// recycle returns buf, which nothing reads any more, to the free list. A
// nil buf (putData's result for a lent or absent buffer) is ignored.
func (d *SSD) recycle(buf []byte) {
	if buf != nil {
		d.free = append(d.free, buf)
	}
}

// copyBuffer returns a page buffer holding a copy of data.
func (d *SSD) copyBuffer(data []byte) []byte {
	buf := d.PageBuffer()
	copy(buf, data)
	return buf
}

// putSum records sum as the checksum of page's last acked contents; the
// only way into sums (see putData).
func (d *SSD) putSum(page mmu.PageID, sum uint64) {
	d.sums[page] = sum
	d.claimed.add(page)
}

// Config returns the effective (defaulted) configuration.
func (d *SSD) Config() Config { return d.cfg }

// Stats returns a snapshot of the counters.
func (d *SSD) Stats() Stats { return d.stats }

// Outstanding returns the number of in-flight IOs.
func (d *SSD) Outstanding() int { return d.inflight }

// transferTime returns the bandwidth cost of moving n bytes at bw
// bytes/sec.
func transferTime(n int, bw int64) sim.Duration {
	return sim.Duration(int64(n) * int64(sim.Second) / bw)
}

// WritePageAsync submits a durable write of data to page. If the device
// queue is full the submission virtually blocks — events (including other
// completions) fire — until a slot frees. onComplete, if non-nil, runs at
// the IO's completion time; a non-nil error (ErrWriteFault, ErrTornWrite)
// means the page's latest contents are NOT durable and the caller must
// resubmit. The page bytes are copied at submission into a buffer of the
// device's own (PageBuffer), so the caller may reuse or mutate data as
// soon as WritePageAsync returns.
func (d *SSD) WritePageAsync(page mmu.PageID, data []byte, onComplete func(sim.Time, error)) {
	// Snapshot before anything can yield to the event loop: the stall
	// loop and the completion both run arbitrary events, and the caller's
	// buffer may be a live DRAM page that keeps changing. A durable write
	// must persist the bytes as of submission, not as of completion —
	// without the copy, later DRAM stores would silently rewrite
	// "durable" contents through the retained slice.
	d.checkWriteSize(len(data))
	d.WriteSnapshotAsync(page, d.copyBuffer(data), onComplete)
}

// checkWriteSize panics unless a write carries exactly one page.
func (d *SSD) checkWriteSize(n int) {
	if n != d.cfg.PageSize {
		panic(fmt.Sprintf("ssd: write of %d bytes, want page size %d", n, d.cfg.PageSize))
	}
}

// WriteSnapshotAsync is WritePageAsync for a caller that has already
// taken the submission snapshot (the clean path copies the page out of
// NV-DRAM into a PageBuffer, charging the copy, and needs no second one):
// ownership of data passes to the device, which keeps it as the page's
// durable contents, or returns it to the free list if the write stores
// nothing. The caller must not read or write data afterwards.
func (d *SSD) WriteSnapshotAsync(page mmu.PageID, data []byte, onComplete func(sim.Time, error)) {
	d.checkWriteSize(len(data))
	for d.inflight >= d.cfg.MaxOutstanding {
		d.stats.SubmitStalls++
		d.st.submitStalls.Inc()
		if !d.events.Step(d.clock) {
			panic("ssd: queue full with no pending events; completion event lost")
		}
	}
	d.inflight++
	if d.inflight > d.stats.MaxQueueDepth {
		d.stats.MaxQueueDepth = d.inflight
	}
	d.stats.WritesSubmitted++
	d.st.writesSubmitted.Inc()
	d.st.queueDepth.Set(int64(d.inflight))
	d.st.queueMax.SetMax(int64(d.inflight))

	var fault FaultDecision
	if d.faults != nil {
		fault = d.faults.WriteFault(page, data)
	}

	submitted := d.clock.Now()
	start := submitted
	if d.bandwidth > start {
		start = d.bandwidth
	}
	xfer := transferTime(d.transferBytes(data), d.EffectiveWriteBandwidth())
	d.bandwidth = start.Add(xfer)
	done := d.bandwidth.Add(d.cfg.PerIOLatency)
	if fault.ExtraLatency > 0 {
		d.stats.LatencySpikes++
		done = done.Add(fault.ExtraLatency)
	}
	if done > d.stats.BusyUntil {
		d.stats.BusyUntil = done
	}

	w := d.newWrite()
	w.page, w.data, w.fault, w.submitted, w.onComplete = page, data, fault, submitted, onComplete
	if w.ev == nil {
		w.ev = d.events.Schedule(done, w.fire)
	} else {
		d.events.Rearm(w.ev, done, w.fire)
	}
}

// write is one page write in flight: what its completion needs, and the
// event it completes on. Records are reused (SSD.writes), each with its
// one event, re-armed per write, and its completion bound once, so a
// submission allocates nothing once the pool holds a record per write in
// flight.
type write struct {
	d          *SSD
	page       mmu.PageID
	data       []byte
	fault      FaultDecision
	submitted  sim.Time
	onComplete func(sim.Time, error)
	ev         *sim.Event     // nil until the record's first write
	fire       func(sim.Time) // w.complete, bound once
}

// newWrite takes a write record from the pool, or makes one.
func (d *SSD) newWrite() *write {
	if n := len(d.writes); n > 0 {
		w := d.writes[n-1]
		d.writes = d.writes[:n-1]
		return w
	}
	w := &write{d: d}
	w.fire = w.complete
	return w
}

// complete is a write's completion event. The record goes back to the
// pool first, so a write the caller's completion submits can reuse it.
// A snapshot the store does not keep goes back to the free list.
func (w *write) complete(at sim.Time) {
	d, page, data, fault, submitted, onComplete := w.d, w.page, w.data, w.fault, w.submitted, w.onComplete
	w.data, w.onComplete = nil, nil
	d.writes = append(d.writes, w)

	var err error
	goodput := 0
	switch fault.Fault {
	case FaultTransient:
		// The attempt consumed bus time but nothing landed.
		d.stats.WriteErrors++
		d.st.writeErrors.Inc()
		d.recycle(data)
		err = ErrWriteFault
	case FaultTorn:
		d.stats.TornWrites++
		d.st.tornWrites.Inc()
		d.applyTorn(page, data)
		d.recycle(data)
		err = ErrTornWrite
	case FaultLost:
		// Acked but never persisted: the host sees success, so the
		// checksum advances to the new contents while the store keeps
		// the old — the classic silent divergence only a scrub or a
		// verified restore can expose.
		d.stats.LostWrites++
		d.stats.BytesWritten += uint64(len(data))
		goodput = len(data)
		d.putSum(page, Checksum(data))
		d.noteCorrupt(page)
		d.recycle(data)
	case FaultMisdirected:
		// Acked for the intended page, landed on a victim: the
		// intended page's checksum advances without its data, and the
		// victim's data changes under its unchanged checksum. Both
		// are now checksum-detectable. With nothing else to hit, the
		// write degrades to lost semantics.
		d.stats.Misdirected++
		d.stats.BytesWritten += uint64(len(data))
		goodput = len(data)
		d.putSum(page, Checksum(data))
		d.noteCorrupt(page)
		if victim, ok := d.misdirectTarget(page, fault.MisdirectSeed); ok {
			d.recycle(d.putData(victim, data))
			d.noteCorrupt(victim)
		} else {
			d.stats.LostWrites++
			d.recycle(data)
		}
	default:
		d.recycle(d.putData(page, data))
		d.putSum(page, Checksum(data))
		d.clearCorrupt(page)
		d.stats.BytesWritten += uint64(len(data))
		goodput = len(data)
	}
	if fault.Rot {
		d.applyRot(fault.RotSeed)
	}
	d.inflight--
	d.stats.WritesCompleted++
	d.stats.TotalWriteLag += at.Sub(submitted)
	d.stats.completedForAvg++
	d.st.writesCompleted.Inc()
	d.st.bytesWritten.Add(uint64(goodput))
	d.st.queueDepth.Set(int64(d.inflight))
	d.st.writeLatency.Record(at.Sub(submitted))
	d.recordSample(measureSample{submitted: submitted, done: at, bytes: goodput})
	if onComplete != nil {
		onComplete(at, err)
	}
}

// WritePageSync submits a write and virtually blocks until it completes.
// It returns the completion time and the IO's error (nil unless a fault
// injector failed it).
func (d *SSD) WritePageSync(page mmu.PageID, data []byte) (sim.Time, error) {
	var doneAt sim.Time
	var doneErr error
	finished := false
	d.WritePageAsync(page, data, func(at sim.Time, err error) {
		doneAt = at
		doneErr = err
		finished = true
	})
	for !finished {
		if !d.events.Step(d.clock) {
			panic("ssd: sync write never completed; completion event lost")
		}
	}
	return doneAt, doneErr
}

// WaitIdle virtually blocks until every in-flight IO has completed.
func (d *SSD) WaitIdle() {
	for d.inflight > 0 {
		if !d.events.Step(d.clock) {
			panic("ssd: in-flight IOs with no pending events")
		}
	}
}

// WriteBatch durably stores a set of pages as one streaming write: the
// backup path taken on power failure, where pages are written out
// sequentially at full device bandwidth rather than as latency-bound
// random IOs. It waits for in-flight IOs first, charges one PerIOLatency
// plus the aggregate transfer time, and returns the completion time.
func (d *SSD) WriteBatch(pages map[mmu.PageID][]byte) sim.Time {
	d.WaitIdle()
	total := 0
	for page, data := range pages {
		if len(data) != d.cfg.PageSize {
			panic(fmt.Sprintf("ssd: batch write of %d bytes to page %d, want page size %d", len(data), page, d.cfg.PageSize))
		}
		total += d.transferBytes(data)
	}
	if total == 0 {
		return d.clock.Now()
	}
	d.clock.Advance(d.cfg.PerIOLatency + transferTime(total, d.EffectiveWriteBandwidth()))
	for page, data := range pages {
		cp := d.copyBuffer(data)
		d.recycle(d.putData(page, cp))
		d.putSum(page, Checksum(cp))
		d.clearCorrupt(page)
		d.stats.BytesWritten += uint64(len(data))
		d.stats.WritesCompleted++
		d.stats.WritesSubmitted++
		d.st.bytesWritten.Add(uint64(len(data)))
		d.st.writesCompleted.Inc()
		d.st.writesSubmitted.Inc()
	}
	return d.clock.Now()
}

// ReadPage synchronously reads a page's durable contents as one
// latency-bound random IO, returning a copy (nil if the page was never
// written). Read bandwidth and latency are charged.
func (d *SSD) ReadPage(page mmu.PageID) []byte {
	d.clock.Advance(d.cfg.PerIOLatency + transferTime(d.cfg.PageSize, d.cfg.ReadBandwidth))
	d.noteRead()
	data, ok := d.store[page]
	if !ok {
		return nil
	}
	return bytes.Clone(data)
}

// noteRead counts one completed page read.
func (d *SSD) noteRead() {
	d.stats.ReadsCompleted++
	d.stats.BytesRead += uint64(d.cfg.PageSize)
	d.st.readsCompleted.Inc()
	d.st.bytesRead.Add(uint64(d.cfg.PageSize))
}

// ReadStream is one sequential read over the durable set — the read-side
// mirror of WriteBatch, and the restore path after a power cycle, where
// pages come back in ascending order at full device bandwidth rather than
// as latency-bound random IOs. The command is issued with the first page
// read, which carries the stream's one PerIOLatency; every page read
// charges PageSize / ReadBandwidth. A stream that reads nothing charges
// nothing. All of it is charged to the clock the stream was opened with:
// the reboot's, which need not be the clock the device object was built
// on.
type ReadStream struct {
	d      *SSD
	clock  *sim.Clock
	issued bool
}

// OpenReadStream starts a sequential read of d charged to clock.
func (d *SSD) OpenReadStream(clock *sim.Clock) *ReadStream {
	return &ReadStream{d: d, clock: clock}
}

// ReadPageInto streams page's durable contents into the caller's
// page-sized buffer — the NV-DRAM page being reloaded (nvdram.PageReader).
// It reports whether the page had durable contents; a page with none is
// not part of the stream: dst is untouched and nothing is charged.
func (s *ReadStream) ReadPageInto(page mmu.PageID, dst []byte) bool {
	d := s.d
	if len(dst) != d.cfg.PageSize {
		panic(fmt.Sprintf("ssd: read into %d bytes, want page size %d", len(dst), d.cfg.PageSize))
	}
	data, ok := d.store[page]
	if !ok {
		return false
	}
	cost := transferTime(d.cfg.PageSize, d.cfg.ReadBandwidth)
	if !s.issued {
		s.issued = true
		cost += d.cfg.PerIOLatency
	}
	s.clock.Advance(cost)
	d.noteRead()
	copy(dst, data)
	return true
}

// SeedDurable installs contents into the durable store without modelling
// an IO, recording the checksum of whatever bytes it is handed. It is a
// test-harness modelling hook — how a test or benchmark conjures a
// populated device — not a recovery API: carrying pages across a reboot
// is AdoptVerified's job, which keeps the recorded sum instead of
// recomputing one.
func (d *SSD) SeedDurable(page mmu.PageID, data []byte) {
	if len(data) != d.cfg.PageSize {
		panic(fmt.Sprintf("ssd: seed of %d bytes, want page size %d", len(data), d.cfg.PageSize))
	}
	cp := d.copyBuffer(data)
	d.recycle(d.putData(page, cp))
	d.putSum(page, Checksum(cp))
}

// Durable returns the stored contents of page without charging time, for
// durability verification. The slice is the device's own buffer: it must
// not be modified, and it is valid only until the next write that lands
// on that page of this device (a completed write, a misdirected one, a
// batch, a seed or an adoption), which may hand the buffer out again for
// another page's snapshot. A caller that keeps the bytes longer copies
// them.
func (d *SSD) Durable(page mmu.PageID) ([]byte, bool) {
	data, ok := d.store[page]
	return data, ok
}

// DurablePages returns the number of pages with durable contents.
func (d *SSD) DurablePages() int { return len(d.store) }

// FlushTimeFor returns the time needed to write n pages back-to-back at
// the device's sustained (wear-degraded) bandwidth — the quantity battery
// provisioning is computed from (paper §5.1).
func (d *SSD) FlushTimeFor(nPages int) sim.Duration {
	return transferTime(nPages*d.cfg.PageSize, d.EffectiveWriteBandwidth())
}

// WearBytesPerCell returns total bytes written divided by capacity — a
// proxy for program/erase wear given capacityBytes of flash. The paper's
// portability goal (§4.3) is that dirty budgeting must not overwhelm the
// SSD with write traffic; Fig 9 quantifies the write rate and this helper
// supports the same accounting.
func (d *SSD) WearBytesPerCell(capacityBytes int64) float64 {
	if capacityBytes <= 0 {
		return 0
	}
	return float64(d.stats.BytesWritten) / float64(capacityBytes)
}

// WearCycles returns the number of full-capacity write passes accumulated
// against the configured WearCapacityBytes (0 if wear modelling is off).
func (d *SSD) WearCycles() float64 {
	return d.WearBytesPerCell(d.cfg.WearCapacityBytes)
}

// DegradedBandwidth is the wear model as a pure function: nominal write
// bandwidth reduced by 4 % per full-capacity write pass, floored at a
// quarter of nominal. Exposed so provisioning tools (cmd/battery-calc) can
// print the same trajectory the device — and hence the health monitor —
// computes at runtime.
func DegradedBandwidth(nominal int64, cycles float64) int64 {
	f := 1 - wearBandwidthDecay*cycles
	if f < wearBandwidthFloor {
		f = wearBandwidthFloor
	}
	return int64(float64(nominal) * f)
}

// EffectiveWriteBandwidth returns the sustained write bandwidth after
// wear degradation: nominal when WearCapacityBytes is 0.
func (d *SSD) EffectiveWriteBandwidth() int64 {
	if d.cfg.WearCapacityBytes <= 0 {
		return d.cfg.WriteBandwidth
	}
	return DegradedBandwidth(d.cfg.WriteBandwidth, d.WearCycles())
}

// recordSample appends one completed write to the measurement ring.
func (d *SSD) recordSample(s measureSample) {
	if len(d.window) < measureWindow {
		d.window = append(d.window, s)
		return
	}
	d.window[d.winPos] = s
	d.winPos = (d.winPos + 1) % len(d.window)
}

// MeasuredWriteBandwidth returns the write goodput observed over the
// measurement window: successful bytes divided by the *busy* time — the
// sum of each IO's submit-to-completion span. Busy time rather than wall
// span so idle gaps between writes on a quiet system don't read as a
// slow device; under pipelining, queue wait makes the estimate
// conservative, which is the safe direction for budget derivation. It
// returns 0 when fewer than two completions have been observed —
// callers fall back to the nominal model. Failed writes contribute time
// but no bytes, so a device that is erroring measures slow, which is
// exactly what the health monitor should see.
func (d *SSD) MeasuredWriteBandwidth() int64 {
	if len(d.window) < 2 {
		return 0
	}
	var bytes int64
	var busy sim.Duration
	for _, s := range d.window {
		bytes += int64(s.bytes)
		busy += s.done.Sub(s.submitted)
	}
	if busy <= 0 {
		return 0
	}
	return int64(float64(bytes) / busy.Seconds())
}

// ResetMeasurement clears the measurement window. The health monitor
// calls it when resuming from an outage: the window is full of the
// outage's zero-goodput samples, and with writes blocked during the
// outage no new samples arrive to displace them — left in place they
// would pin the measured estimate at zero forever.
func (d *SSD) ResetMeasurement() {
	d.window = d.window[:0]
	d.winPos = 0
}

// MeasuredWriteLatency returns the mean submit-to-completion latency over
// the measurement window (0 with no samples).
func (d *SSD) MeasuredWriteLatency() sim.Duration {
	if len(d.window) == 0 {
		return 0
	}
	var total sim.Duration
	for _, s := range d.window {
		total += s.done.Sub(s.submitted)
	}
	return total / sim.Duration(len(d.window))
}
