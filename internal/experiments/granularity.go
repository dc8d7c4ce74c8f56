package experiments

import (
	"fmt"
	"io"

	"viyojit/internal/core"
	"viyojit/internal/mmu"
	"viyojit/internal/nvdram"
	"viyojit/internal/sim"
	"viyojit/internal/ssd"
)

// GranularityResult compares page-granularity Viyojit against the §7
// byte-granularity variant — the same manager over mmu.SectorSize pages
// charged mmu.SectorCosts, as Mondrian-style protection hardware would
// track — under the same small-write workload.
type GranularityResult struct {
	WriteSize int
	Writes    int
	// PageDirtyBytes is what the page-granularity battery must cover at
	// peak (max dirty pages × page size); ByteDirtyBytes is the
	// byte-granularity equivalent (max dirty sectors × sector size).
	PageDirtyBytes int64
	ByteDirtyBytes int64
	// SSD bytes written by cleaning + final flush under each granularity.
	PageSSDBytes uint64
	ByteSSDBytes uint64
	// BatteryRatio = ByteDirtyBytes / PageDirtyBytes (the §7 utilisation
	// win; smaller is better).
	BatteryRatio float64
	// TrafficRatio = ByteSSDBytes / PageSSDBytes.
	TrafficRatio float64
}

// RunGranularityComparison drives an identical stream of small scattered
// writes (writeSize bytes each, uniform over the region) through both
// granularities and reports the battery-utilisation and SSD-traffic
// ratios §7 predicts to favour byte granularity.
func RunGranularityComparison(seed uint64, writeSize, writes int) (GranularityResult, error) {
	const regionSize = 16 << 20
	res := GranularityResult{WriteSize: writeSize, Writes: writes}

	// Offsets are shared so both systems see the same byte stream.
	offs := make([]int64, writes)
	rng := sim.NewRNG(seed)
	for i := range offs {
		offs[i] = rng.Int63n(regionSize - int64(writeSize))
	}
	buf := make([]byte, writeSize)
	for i := range buf {
		buf[i] = byte(rng.Uint64()) | 1
	}

	// The same manager at both granularities: 4 KiB pages under the
	// default MMU costs, and §7's sectors under the sector cost table.
	var err error
	res.PageDirtyBytes, res.PageSSDBytes, err = runGranularity(regionSize, nvdram.DefaultPageSize, mmu.Costs{}, offs, buf)
	if err != nil {
		return res, err
	}
	res.ByteDirtyBytes, res.ByteSSDBytes, err = runGranularity(regionSize, mmu.SectorSize, mmu.SectorCosts(), offs, buf)
	if err != nil {
		return res, err
	}

	if res.PageDirtyBytes > 0 {
		res.BatteryRatio = float64(res.ByteDirtyBytes) / float64(res.PageDirtyBytes)
	}
	if res.PageSSDBytes > 0 {
		res.TrafficRatio = float64(res.ByteSSDBytes) / float64(res.PageSSDBytes)
	}
	return res, nil
}

// runGranularity writes buf at each of offs through a manager over a
// region of size bytes in pageSize pages charged costs, under a budget of
// an eighth of the pages, and returns the peak dirty bytes and the SSD
// bytes written by cleaning and a final flush.
func runGranularity(size int64, pageSize int, costs mmu.Costs, offs []int64, buf []byte) (peak int64, written uint64, err error) {
	clock := sim.NewClock()
	events := sim.NewQueue()
	region, err := nvdram.New(clock, nvdram.Config{Size: size, PageSize: pageSize, Costs: costs})
	if err != nil {
		return 0, 0, err
	}
	dev := ssd.New(clock, events, ssd.Config{PageSize: pageSize})
	mgr, err := core.NewManager(clock, events, region, dev, core.Config{
		DirtyBudgetPages: region.NumPages() / 8,
	})
	if err != nil {
		return 0, 0, err
	}
	for _, off := range offs {
		if err := region.WriteAt(buf, off); err != nil {
			return 0, 0, err
		}
		mgr.Pump()
	}
	peak = int64(mgr.Stats().MaxDirtyObserved) * int64(pageSize)
	mgr.FlushAll()
	written = dev.Stats().BytesWritten
	mgr.Close()
	return peak, written, nil
}

// FprintGranularity writes the §7 comparison across write sizes.
func FprintGranularity(w io.Writer, rows []GranularityResult) {
	fmt.Fprintln(w, "§7 extension: page vs byte (Mondrian) granularity under small scattered writes")
	fmt.Fprintf(w, "%-10s %14s %14s %12s %14s %14s %12s\n",
		"Write", "Page battery", "Byte battery", "Battery×", "Page SSD", "Byte SSD", "Traffic×")
	for _, r := range rows {
		fmt.Fprintf(w, "%-10s %11d KB %11d KB %11.2f %11d KB %11d KB %11.2f\n",
			fmt.Sprintf("%d B", r.WriteSize),
			r.PageDirtyBytes>>10, r.ByteDirtyBytes>>10, r.BatteryRatio,
			r.PageSSDBytes>>10, r.ByteSSDBytes>>10, r.TrafficRatio)
	}
}
