// Package recovery implements the power-cycle and reboot flows of §8:
// restoring NV-DRAM contents from the SSD after a power failure (so
// applications restart warm), and the availability model showing that
// bounding dirty pages bounds shutdown flush time.
package recovery

import (
	"fmt"

	"viyojit/internal/mmu"
	"viyojit/internal/nvdram"
	"viyojit/internal/sim"
	"viyojit/internal/ssd"
	"viyojit/internal/wal"
)

// RestoreReport describes a region restore.
type RestoreReport struct {
	PagesRestored int
	RestoreTime   sim.Duration
	// BudgetPages is the dirty budget the recovered system came up
	// under, derived from the surviving battery (possibly aged or sagged
	// below what the failed run enjoyed; see viyojit.RecoverOptions). 0
	// when the restore path does not derive one.
	BudgetPages int
	// Integrity is the verify-on-restore outcome: every durable page's
	// checksum verdict and what was done about failures.
	Integrity IntegrityReport
}

// IntegrityReport is the per-page repair/quarantine accounting of a
// verified restore. The invariant it witnesses: no page's bytes were
// handed back to the application without either passing checksum
// verification, being repaired from an authoritative source, or being
// excluded and listed here.
type IntegrityReport struct {
	// PagesVerified counts durable pages checked (intact + repaired +
	// quarantined).
	PagesVerified int
	// Repaired lists pages whose SSD copy failed verification but were
	// restored from the RepairSource. Their durable copies are still
	// bad: the caller must re-persist them (core.Manager.RepairPage /
	// re-dirtying) before trusting the SSD again.
	Repaired []mmu.PageID
	// Quarantined lists pages whose SSD copy failed verification with
	// no good copy available. They are NOT restored — the region keeps
	// zeroes — because returning plausible-but-corrupt bytes is the one
	// outcome a verified restore exists to prevent.
	Quarantined []mmu.PageID
}

// Clean reports whether every verified page was intact.
func (r IntegrityReport) Clean() bool {
	return len(r.Repaired) == 0 && len(r.Quarantined) == 0
}

// RepairSource supplies authoritative page contents during a verified
// restore, returning false when it has none for the page. A warm reboot
// (NV-DRAM contents survived) can offer the live region; after a true
// power cycle there is usually nothing, and corrupt pages quarantine.
type RepairSource func(page mmu.PageID) ([]byte, bool)

// RestoreRegion builds a fresh NV-DRAM region of the given configuration
// and reloads every durable page from the SSD — the sequential-read
// restore path after a power cycle. The read is charged to clock, so the
// returned report carries the realistic warm-up time. Every page is
// checksum-verified on the way through (equivalent to
// RestoreRegionVerified with no repair source): corrupt pages are
// quarantined in the report, never silently restored.
func RestoreRegion(clock *sim.Clock, dev *ssd.SSD, cfg nvdram.Config) (*nvdram.Region, RestoreReport, error) {
	return RestoreRegionVerified(clock, dev, cfg, nil)
}

// RestoreRegionVerified is the verify-on-restore path onto a fresh
// region, in place: the surviving device keeps serving the restored
// system (RestoreVerified with dev as its own source).
func RestoreRegionVerified(clock *sim.Clock, dev *ssd.SSD, cfg nvdram.Config, repair RepairSource) (*nvdram.Region, RestoreReport, error) {
	region, err := nvdram.New(clock, cfg)
	if err != nil {
		return nil, RestoreReport{}, err
	}
	report, err := RestoreVerified(clock, region, dev, dev, repair)
	if err != nil {
		return nil, RestoreReport{}, err
	}
	return region, report, nil
}

// RestoreVerified is the restore walk every reboot path shares. src is
// the device that survived the power cycle; dev is the device object of
// the system coming up — src itself, or a fresh one standing for the same
// physical SSD. The walk covers every page src has a durable claim about
// (stored contents or an acked checksum — a fully lost write must be
// detected, not skipped), in ascending order: the page is verified once
// on src, dev adopts it with its recorded checksum (ssd.AdoptVerified),
// and one sequential read stream over dev lands it straight in region's
// page, the verified pages of one region chunk in one
// nvdram.Region.RestoreChunkFrom call. Only bytes that pass are read and
// restored. Failures are repaired from repair when it has the page, or
// quarantined (left zero, listed in the report, absent from dev) when it
// doesn't.
//
// The stream is charged to clock — the reboot's clock, whichever clock
// dev was built on — so with no repairs RestoreTime is exact: zero when
// nothing was read, else PerIOLatency + PagesRestored × PageSize /
// ReadBandwidth, which is Availability's FullReload over the durable
// bytes plus the one command latency.
func RestoreVerified(clock *sim.Clock, region *nvdram.Region, dev, src *ssd.SSD, repair RepairSource) (RestoreReport, error) {
	if dev.Config().PageSize != region.PageSize() {
		return RestoreReport{}, fmt.Errorf("recovery: SSD page size %d != region page size %d", dev.Config().PageSize, region.PageSize())
	}
	start := clock.Now()
	stream := dev.OpenReadStream(clock)
	var report RestoreReport
	integ := &report.Integrity
	var batch []mmu.PageID // the verified pages of the chunk the walk is in
	reload := func() error {
		n, err := region.RestoreChunkFrom(stream, batch)
		report.PagesRestored += n
		batch = batch[:0]
		return err
	}
	for _, page := range src.DurablePageList() {
		if int(page) >= region.NumPages() {
			return RestoreReport{}, fmt.Errorf("recovery: durable page %d outside region of %d pages", page, region.NumPages())
		}
		if len(batch) > 0 && region.ChunkOf(page) != region.ChunkOf(batch[0]) {
			if err := reload(); err != nil {
				return RestoreReport{}, err
			}
		}
		integ.PagesVerified++
		if verr := dev.AdoptVerified(src, page); verr == nil {
			batch = append(batch, page)
			continue
		}
		if repair != nil {
			if good, ok := repair(page); ok {
				if err := region.RestorePage(page, good); err != nil {
					return RestoreReport{}, err
				}
				report.PagesRestored++
				integ.Repaired = append(integ.Repaired, page)
				continue
			}
		}
		integ.Quarantined = append(integ.Quarantined, page)
	}
	if err := reload(); err != nil {
		return RestoreReport{}, err
	}
	report.RestoreTime = clock.Now().Sub(start)
	return report, nil
}

// VerifyRestored checks, byte for byte, that region matches the durable
// store it was restored from: every durable page must equal the region's
// copy, and every page without a durable copy must still be all zero.
// It is the post-restore half of the durability invariant (the pre-flush
// half is core.Manager.VerifyDurability) and is what the crash-point
// sweep asserts after every injected power failure.
func VerifyRestored(region *nvdram.Region, dev *ssd.SSD) error {
	return VerifyRestoredWith(region, dev, IntegrityReport{})
}

// VerifyRestoredWith is VerifyRestored made aware of a verified
// restore's outcome: repaired pages are excluded from the byte-equality
// check (the region holds the authoritative copy, the SSD still holds
// the corrupt one until a re-clean lands), and quarantined pages are
// excluded entirely (unrestored by design, durable copy untrusted).
// Every other page must satisfy the plain invariant.
func VerifyRestoredWith(region *nvdram.Region, dev *ssd.SSD, report IntegrityReport) error {
	skip := make(map[mmu.PageID]struct{}, len(report.Repaired)+len(report.Quarantined))
	for _, p := range report.Repaired {
		skip[p] = struct{}{}
	}
	for _, p := range report.Quarantined {
		skip[p] = struct{}{}
	}
	for p := 0; p < region.NumPages(); p++ {
		page := mmu.PageID(p)
		if _, ok := skip[page]; ok {
			continue
		}
		if err := region.CheckRestorable(dev, page); err != nil {
			return fmt.Errorf("recovery: restored %w", err)
		}
	}
	return nil
}

// RegionWindow adapts a byte range of a restored region to the Store
// surfaces the wal and ptx packages consume, so a log or heap that lived
// in a mapping can be re-opened after a power cycle without
// reconstructing the manager's allocator state.
type RegionWindow struct {
	region *nvdram.Region
	base   int64
	size   int64
}

// Window returns the [base, base+size) window of region.
func Window(region *nvdram.Region, base, size int64) RegionWindow {
	return RegionWindow{region: region, base: base, size: size}
}

func (w RegionWindow) ReadAt(p []byte, off int64) error  { return w.region.ReadAt(p, w.base+off) }
func (w RegionWindow) WriteAt(p []byte, off int64) error { return w.region.WriteAt(p, w.base+off) }
func (w RegionWindow) Size() int64                       { return w.size }

// RestoredWAL opens and replays a write-ahead log that lived at [base,
// base+size) of a restored region: the application-level half of crash
// recovery. It returns the committed payloads in order and whether the
// replay stopped at a torn record (a write in flight when power failed)
// rather than cleanly at the committed head. Torn tails are detected and
// rejected, never mis-replayed (wal package checksums).
func RestoredWAL(region *nvdram.Region, base, size int64) (payloads [][]byte, torn bool, err error) {
	l, err := wal.Open(Window(region, base, size))
	if err != nil {
		return nil, false, err
	}
	err = l.Replay(func(_ uint64, payload []byte) error {
		cp := make([]byte, len(payload))
		copy(cp, payload)
		payloads = append(payloads, cp)
		return nil
	})
	if err != nil {
		return nil, false, err
	}
	return payloads, l.LastStop() == wal.StopTorn, nil
}

// AvailabilityReport compares reboot downtime with and without dirty
// bounding (§8's "increased availability" argument).
type AvailabilityReport struct {
	DRAMBytes        int64
	DirtyBudgetBytes int64
	// FullShutdownFlush is the worst-case shutdown flush with no
	// bounding: the whole DRAM goes to the SSD (the paper's 4 TB at
	// 4 GB/s ≈ 17 minutes).
	FullShutdownFlush sim.Duration
	// BoundedShutdownFlush is the worst case with Viyojit: at most the
	// dirty budget is flushed.
	BoundedShutdownFlush sim.Duration
	// FullReload is the sequential reload of the whole DRAM at startup
	// (optimisable with on-demand faulting, unlike shutdown).
	FullReload sim.Duration
	// SpeedUp is FullShutdownFlush / BoundedShutdownFlush.
	SpeedUp float64
}

// Availability computes the §8 comparison for a server with dramBytes of
// NV-DRAM, a dirty budget of budgetBytes, and the given SSD bandwidths.
func Availability(dramBytes, budgetBytes, writeBandwidth, readBandwidth int64) (AvailabilityReport, error) {
	if dramBytes <= 0 || budgetBytes <= 0 || budgetBytes > dramBytes {
		return AvailabilityReport{}, fmt.Errorf("recovery: bad sizes dram=%d budget=%d", dramBytes, budgetBytes)
	}
	if writeBandwidth <= 0 || readBandwidth <= 0 {
		return AvailabilityReport{}, fmt.Errorf("recovery: bad bandwidths write=%d read=%d", writeBandwidth, readBandwidth)
	}
	secs := func(bytes, bw int64) sim.Duration {
		return sim.Duration(float64(bytes) / float64(bw) * float64(sim.Second))
	}
	r := AvailabilityReport{
		DRAMBytes:            dramBytes,
		DirtyBudgetBytes:     budgetBytes,
		FullShutdownFlush:    secs(dramBytes, writeBandwidth),
		BoundedShutdownFlush: secs(budgetBytes, writeBandwidth),
		FullReload:           secs(dramBytes, readBandwidth),
	}
	r.SpeedUp = float64(r.FullShutdownFlush) / float64(r.BoundedShutdownFlush)
	return r, nil
}
