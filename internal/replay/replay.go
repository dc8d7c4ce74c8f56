// Package replay drives a file-system volume trace (internal/trace)
// against an NV-DRAM system and reports what the run cost: faults,
// cleaning traffic, peak dirty footprint, and whether the provisioned
// budget ever blocked the workload. It is the bridge between §3's
// offline analysis and the live system — the experiment an operator runs
// to validate a cmd/provision recommendation before deployment.
//
// Three system kinds can replay the same trace: the page-granularity
// Viyojit manager, the full-battery baseline, and the same manager at the
// §7 byte granularity (Mondrian: mmu.SectorSize pages under
// mmu.SectorCosts).
package replay

import (
	"fmt"

	"viyojit/internal/baseline"
	"viyojit/internal/core"
	"viyojit/internal/mmu"
	"viyojit/internal/nvdram"
	"viyojit/internal/sim"
	"viyojit/internal/ssd"
	"viyojit/internal/trace"
)

// SystemKind selects the system under replay.
type SystemKind int

// The three replayable systems.
const (
	Viyojit SystemKind = iota
	Baseline
	Mondrian
)

func (k SystemKind) String() string {
	switch k {
	case Viyojit:
		return "viyojit"
	case Baseline:
		return "nv-dram"
	case Mondrian:
		return "mondrian"
	default:
		return fmt.Sprintf("SystemKind(%d)", int(k))
	}
}

// Options tunes a replay.
type Options struct {
	// System selects the manager kind.
	System SystemKind
	// BudgetPages is the dirty budget for Viyojit (pages) — and, times
	// the page size, the byte budget for Mondrian. Ignored by the
	// baseline. 0 selects 1/8 of the volume.
	BudgetPages int
	// MaxIdle compresses gaps between trace events to at most this
	// duration, so day-long traces replay quickly while background
	// epochs still run. 0 selects 2 ms.
	MaxIdle sim.Duration
	// SSD overrides the device model.
	SSD ssd.Config
}

// Report is the outcome of one replay.
type Report struct {
	System        string
	Volume        string
	Events        int
	VirtualTime   sim.Duration
	Faults        uint64
	ForcedCleans  uint64
	Proactive     uint64
	PeakDirty     int   // pages (sectors for Mondrian)
	PeakDirtyByte int64 // peak dirty footprint in bytes
	SSDBytes      uint64
	// BudgetPages echoes the budget used (pages or sectors).
	BudgetPages int
}

// Run replays the volume and returns the report. The replay writes the
// traced byte counts at the traced offsets (clamped to one page per
// event, the tracking granularity) and probes reads, advancing virtual
// time along the (compressed) trace timeline.
func Run(v *trace.Volume, opts Options) (Report, error) {
	if v == nil || len(v.Events) == 0 {
		return Report{}, fmt.Errorf("replay: empty volume")
	}
	if opts.MaxIdle == 0 {
		opts.MaxIdle = 2 * sim.Millisecond
	}
	pageSize := v.Spec.PageSize
	if pageSize == 0 {
		pageSize = 4096
	}
	totalPages := int(v.Spec.SizeBytes / int64(pageSize))
	if opts.BudgetPages == 0 {
		opts.BudgetPages = totalPages / 8
	}
	if opts.BudgetPages < 1 {
		opts.BudgetPages = 1
	}

	clock := sim.NewClock()
	events := sim.NewQueue()
	rep := Report{
		System:      opts.System.String(),
		Volume:      v.Spec.Name,
		Events:      len(v.Events),
		BudgetPages: opts.BudgetPages,
	}

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
	switch opts.System {
	case Viyojit, Mondrian:
		// Mondrian is the same manager at §7's granularity: sector pages
		// under the sector cost table, with the byte budget in sectors.
		ps, costs, budget := pageSize, mmu.Costs{}, opts.BudgetPages
		if opts.System == Mondrian {
			ps, costs = mmu.SectorSize, mmu.SectorCosts()
			budget = opts.BudgetPages * pageSize / ps
		}
		rep.BudgetPages = budget
		region, err := nvdram.New(clock, nvdram.Config{Size: v.Spec.SizeBytes, PageSize: ps, Costs: costs})
		if err != nil {
			return rep, err
		}
		devCfg := opts.SSD
		devCfg.PageSize = ps
		dev := ssd.New(clock, events, devCfg)
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
	case Baseline:
		region, err := nvdram.New(clock, nvdram.Config{Size: v.Spec.SizeBytes, PageSize: pageSize})
		if err != nil {
			return rep, err
		}
		dev := ssd.New(clock, events, opts.SSD)
		mgr, err := baseline.NewManager(clock, events, region, dev)
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
		return rep, fmt.Errorf("replay: unknown system kind %d", opts.System)
	}

	buf := make([]byte, pageSize)
	var prevAt sim.Time
	for i, e := range v.Events {
		if gap := e.At.Sub(prevAt); gap > 0 {
			if gap > opts.MaxIdle {
				gap = opts.MaxIdle
			}
			clock.Advance(gap)
			pump()
		}
		prevAt = e.At
		off := e.Page * int64(pageSize)
		if e.Write {
			n := e.Bytes
			if n > pageSize {
				n = pageSize
			}
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

// Compare replays the volume against all three systems with the same
// budget and returns the reports in Viyojit, Baseline, Mondrian order.
func Compare(v *trace.Volume, budgetPages int, devCfg ssd.Config) ([]Report, error) {
	var out []Report
	for _, kind := range []SystemKind{Viyojit, Baseline, Mondrian} {
		r, err := Run(v, Options{System: kind, BudgetPages: budgetPages, SSD: devCfg})
		if err != nil {
			return nil, fmt.Errorf("replay: %v: %w", kind, err)
		}
		out = append(out, r)
	}
	return out, nil
}
