package experiments

import (
	"fmt"

	"viyojit/internal/core"
	"viyojit/internal/mmu"
	"viyojit/internal/nvdram"
	"viyojit/internal/sim"
	"viyojit/internal/ssd"
	"viyojit/internal/trace"
)

// Trace replay drives a file-system volume trace (internal/trace) against
// an NV-DRAM system and reports what the run cost: faults, cleaning
// traffic, peak dirty footprint, and whether the provisioned budget ever
// blocked the workload. It is the bridge between §3's offline analysis
// and the live system — the experiment an operator runs to validate a
// cmd/provision recommendation before deployment.
//
// Three system kinds can replay the same trace: the page-granularity
// Viyojit manager, the full-battery baseline, and the same manager at the
// §7 byte granularity (Mondrian: mmu.SectorSize pages under
// mmu.SectorCosts).
type replaySystem int

// The three replayable systems.
const (
	replayViyojit replaySystem = iota
	replayBaseline
	replayMondrian
)

func (k replaySystem) String() string {
	switch k {
	case replayViyojit:
		return "viyojit"
	case replayBaseline:
		return "nv-dram"
	case replayMondrian:
		return "mondrian"
	default:
		return fmt.Sprintf("replaySystem(%d)", int(k))
	}
}

// replayMaxIdle compresses gaps between trace events to at most this
// duration, so day-long traces replay quickly while background epochs
// still run.
const replayMaxIdle = 2 * sim.Millisecond

// ReplayReport is the outcome of one replay.
type ReplayReport struct {
	System        string
	Events        int
	VirtualTime   sim.Duration
	Faults        uint64
	ForcedCleans  uint64
	Proactive     uint64
	PeakDirty     int   // pages (sectors for Mondrian)
	PeakDirtyByte int64 // peak dirty footprint in bytes
	SSDBytes      uint64
}

// runReplay replays the volume on one system and returns the report.
// budgetPages is the dirty budget for Viyojit (pages) — and, times the
// page size, the byte budget for Mondrian. The baseline ignores it. 0
// selects 1/8 of the volume. The replay writes the traced byte counts at
// the traced offsets (clamped to one page per event, the tracking
// granularity) and probes reads, advancing virtual time along the
// (compressed) trace timeline.
func runReplay(v *trace.Volume, kind replaySystem, budgetPages int) (ReplayReport, error) {
	if v == nil || len(v.Events) == 0 {
		return ReplayReport{}, fmt.Errorf("replay: empty volume")
	}
	pageSize := v.Spec.PageSize
	if pageSize == 0 {
		pageSize = 4096
	}
	if budgetPages == 0 {
		budgetPages = int(v.Spec.SizeBytes/int64(pageSize)) / 8
	}
	budgetPages = max(budgetPages, 1)

	clock := sim.NewClock()
	events := sim.NewQueue()
	rep := ReplayReport{System: kind.String(), Events: len(v.Events)}

	// writer abstracts the three systems behind one replay loop.
	type writer interface {
		WriteAt(p []byte, off int64) error
		ReadAt(p []byte, off int64) error
	}
	var (
		w      writer
		pump   func()
		finish func()
	)
	switch kind {
	case replayViyojit, replayMondrian:
		// Mondrian is the same manager at §7's granularity: sector pages
		// under the sector cost table, with the byte budget in sectors.
		ps, costs, budget := pageSize, mmu.Costs{}, budgetPages
		if kind == replayMondrian {
			ps, costs = mmu.SectorSize, mmu.SectorCosts()
			budget = budgetPages * pageSize / ps
		}
		region, err := nvdram.New(clock, nvdram.Config{Size: v.Spec.SizeBytes, PageSize: ps, Costs: costs})
		if err != nil {
			return rep, err
		}
		dev := ssd.New(clock, events, ssd.Config{PageSize: ps})
		mgr, err := core.NewManager(clock, events, region, dev, core.Config{DirtyBudgetPages: budget})
		if err != nil {
			return rep, err
		}
		mp, err := mgr.Map(v.Spec.Name, v.Spec.SizeBytes)
		if err != nil {
			return rep, err
		}
		w, pump = mp, mgr.Pump
		finish = func() {
			s := mgr.Stats()
			rep.Faults = s.Faults
			rep.ForcedCleans = s.ForcedCleans
			rep.Proactive = s.ProactiveCleans
			rep.PeakDirty = s.MaxDirtyObserved
			rep.PeakDirtyByte = int64(s.MaxDirtyObserved) * int64(ps)
			rep.SSDBytes = dev.Stats().BytesWritten
			mgr.Close()
		}
	case replayBaseline:
		region, err := nvdram.New(clock, nvdram.Config{Size: v.Spec.SizeBytes, PageSize: pageSize})
		if err != nil {
			return rep, err
		}
		dev := ssd.New(clock, events, ssd.Config{})
		mgr, err := newBaselineManager(clock, events, region, dev)
		if err != nil {
			return rep, err
		}
		mp, err := mgr.Map(v.Spec.Name, v.Spec.SizeBytes)
		if err != nil {
			return rep, err
		}
		w, pump = mp, mgr.Pump
		finish = func() {
			rep.PeakDirty = mgr.DirtyCount()
			rep.PeakDirtyByte = int64(mgr.DirtyCount()) * int64(pageSize)
			rep.SSDBytes = dev.Stats().BytesWritten
		}
	default:
		return rep, fmt.Errorf("replay: unknown system kind %d", kind)
	}

	buf := make([]byte, pageSize)
	var prevAt sim.Time
	for i, e := range v.Events {
		if gap := e.At.Sub(prevAt); gap > 0 {
			clock.Advance(min(gap, replayMaxIdle))
			pump()
		}
		prevAt = e.At
		off := e.Page * int64(pageSize)
		if e.Write {
			n := min(e.Bytes, pageSize)
			buf[0] = byte(i + 1)
			if err := w.WriteAt(buf[:n], off); err != nil {
				return rep, fmt.Errorf("replay: event %d: %w", i, err)
			}
		} else {
			if err := w.ReadAt(buf[:64], off); err != nil {
				return rep, fmt.Errorf("replay: event %d: %w", i, err)
			}
		}
		pump()
	}
	rep.VirtualTime = sim.Duration(clock.Now())
	finish()
	return rep, nil
}

// RunReplayComparison replays the volume against all three systems with
// the same budget and returns the reports in Viyojit, baseline, Mondrian
// order.
func RunReplayComparison(v *trace.Volume, budgetPages int) ([]ReplayReport, error) {
	var out []ReplayReport
	for _, kind := range []replaySystem{replayViyojit, replayBaseline, replayMondrian} {
		r, err := runReplay(v, kind, budgetPages)
		if err != nil {
			return nil, fmt.Errorf("replay: %v: %w", kind, err)
		}
		out = append(out, r)
	}
	return out, nil
}
