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
	// checksum verdict and the pages quarantined.
	Integrity IntegrityReport
}

// IntegrityReport is the per-page quarantine accounting of a verified
// restore. The invariant it witnesses: no page's bytes were handed back
// to the application without either passing checksum verification or
// being excluded and listed here.
type IntegrityReport struct {
	// PagesVerified counts durable pages checked (intact + quarantined).
	PagesVerified int
	// Quarantined lists pages whose SSD copy failed verification. They
	// are NOT restored — the region keeps zeroes — because returning
	// plausible-but-corrupt bytes is the one outcome a verified restore
	// exists to prevent.
	Quarantined []mmu.PageID
}

// Clean reports whether every verified page was intact.
func (r IntegrityReport) Clean() bool { return len(r.Quarantined) == 0 }

// RestoreVerified is the one restore walk: System.RecoverWith reboots
// through it, and so does the crash-point sweep. src is the device that
// survived the power cycle; dev is the device object of the system coming
// up — src itself, or a fresh one standing for the same physical SSD. The
// walk covers every page src has a durable claim about (stored contents
// or an acked checksum — a fully lost write must be detected, not
// skipped), in ascending order: the page is verified once on src, dev
// adopts it with its recorded checksum (ssd.AdoptVerified), and one
// sequential read stream over dev hands region the stored image
// (nvdram.Region.RestoreFrom), which the page reads by reference until
// its first store. Only pages that pass are read and restored. A page
// that fails is quarantined: left zero, listed in the report, absent from
// dev. After a power cycle there is no other copy to repair it from.
//
// The stream is charged to clock — the reboot's clock, whichever clock
// dev was built on — so RestoreTime is exact: zero when nothing was read,
// else PerIOLatency + PagesRestored × PageSize / ReadBandwidth, which is
// Availability's FullReload over the durable bytes plus the one command
// latency.
func RestoreVerified(clock *sim.Clock, region *nvdram.Region, dev, src *ssd.SSD) (RestoreReport, error) {
	if dev.Config().PageSize != region.PageSize() {
		return RestoreReport{}, fmt.Errorf("recovery: SSD page size %d != region page size %d", dev.Config().PageSize, region.PageSize())
	}
	start := clock.Now()
	stream := dev.OpenReadStream(clock)
	var report RestoreReport
	integ := &report.Integrity
	// buf takes src's durable pages a batch at a time: no list is made.
	var buf [256]mmu.PageID
	for pages, next := buf[:0], mmu.PageID(0); ; pages = pages[1:] {
		if len(pages) == 0 {
			if pages = src.DurablePagesFrom(next, len(buf), buf[:0]); len(pages) == 0 {
				break
			}
			next = pages[len(pages)-1] + 1
		}
		page := pages[0]
		if int(page) >= region.NumPages() {
			return RestoreReport{}, fmt.Errorf("recovery: durable page %d outside region of %d pages", page, region.NumPages())
		}
		integ.PagesVerified++
		if verr := dev.AdoptVerified(src, page); verr != nil {
			integ.Quarantined = append(integ.Quarantined, page)
			continue
		}
		restored, err := region.RestoreFrom(stream, page)
		if err != nil {
			return RestoreReport{}, err
		}
		if restored {
			report.PagesRestored++
		}
	}
	report.RestoreTime = clock.Now().Sub(start)
	return report, nil
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
