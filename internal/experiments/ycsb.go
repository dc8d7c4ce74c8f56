// Package experiments assembles the full systems under test and drives
// every table and figure in the paper's evaluation: the YCSB sweeps over
// dirty budgets (Figs 7–10), the trace analyses (Figs 2–4), the Zipf
// scaling analysis (Fig 5), the technology-growth and battery-sizing
// tables (Fig 1, §2.2), the availability model (§8), and the ablations
// (§6.3 TLB flushing; victim policies; epoch length; queue depth). The
// systems it compares against live here too: the full-battery baseline
// (baseline.go), the Fig 1 growth and §2.2 sizing model (scaling.go), the
// §6.3 tenant pool (tenancy.go) and the §3 trace replayer behind
// cmd/replay (replay.go).
//
// Everything here is deterministic: same seed, same numbers.
package experiments

import (
	"fmt"

	"viyojit/internal/core"
	"viyojit/internal/nvdram"
	"viyojit/internal/obs"
	"viyojit/internal/sim"
	"viyojit/internal/ssd"
	"viyojit/internal/ycsb"
)

// BudgetFractions are the x-axis of Figs 7–9: the paper sweeps dirty
// budgets of 2–18 GB against a 17.5 GB initial heap, i.e. 11 %…103 %.
var BudgetFractions = []float64{0.11, 0.23, 0.34, 0.46, 0.57, 0.69, 0.80, 0.91, 1.03}

// SummaryFractions are the subset the paper's summary panels (Figs 7f,
// 8f, 10) report.
var SummaryFractions = []float64{0.11, 0.23, 0.46}

// YCSBConfig parameterises one system-under-test execution.
type YCSBConfig struct {
	Workload ycsb.Workload
	// HeapBytes is the initial persistent heap (the paper's 17.5 GB,
	// scaled). The dirty budget is expressed as a fraction of it.
	HeapBytes int64
	// RegionBytes is the total NV-DRAM (the paper's 60 GB, scaled). Must
	// exceed HeapBytes; the surplus models the other tenants' capacity
	// whose protection Viyojit must keep regardless.
	RegionBytes int64
	// RecordCount / OperationCount / ValueSize follow ycsb.Config.
	RecordCount    int
	OperationCount int
	ValueSize      int
	Seed           uint64
	// Epoch, DisableTLBFlush, Policy pass through to core.Config.
	Epoch           sim.Duration
	DisableTLBFlush bool
	Policy          core.VictimPolicy
	// HardwareAssist selects the §5.4 MMU-offload design (no first-write
	// traps; see core.Config.HardwareAssist).
	HardwareAssist bool
	// EWMAWeight overrides the pressure estimator's weight (0 = paper's
	// 0.75).
	EWMAWeight float64
	// TLBEntries overrides the TLB model's capacity (0 = MMU default).
	// The §6.3 ablation runs with a TLB large enough to keep the write
	// working set resident — the regime of servers using huge-page
	// mappings or large second-level TLBs, where translations (and their
	// cached dirty flags) persist and unflushed dirty bits go stale.
	TLBEntries int
	// SSD overrides the backing-device model (zero value = defaults).
	SSD ssd.Config
	// Obs, when set, is the observability registry the run's manager and
	// device record onto — the hook the golden-export determinism tests
	// use. nil leaves the subsystems on their private registries.
	Obs *obs.Registry
}

func (c YCSBConfig) withDefaults() YCSBConfig {
	if c.HeapBytes == 0 {
		c.HeapBytes = DefaultHeapBytes
	}
	if c.RegionBytes == 0 {
		c.RegionBytes = c.HeapBytes * 2
	}
	if c.ValueSize == 0 {
		c.ValueSize = 1024
	}
	if c.RecordCount == 0 {
		// Fill ~70 % of the heap with records: value + key + entry
		// header lands in the next power-of-two class.
		entryBytes := int64(2 * c.ValueSize)
		c.RecordCount = int(c.HeapBytes * 7 / 10 / entryBytes)
	}
	if c.OperationCount == 0 {
		c.OperationCount = 50_000
	}
	return c
}

// DefaultHeapBytes stands in for the paper's 17.5 GB initial heap. All
// results are reported against budget *fractions* of the heap, so the
// absolute scale cancels (DESIGN.md §5).
const DefaultHeapBytes = 32 << 20

// Point is one measured (budget, workload) cell of Figs 7–9.
type Point struct {
	System           string // "viyojit" or "nv-dram"
	Workload         string
	DirtyBudgetPages int
	BudgetFraction   float64
	Result           ycsb.Result
	// WriteRateMBps is Fig 9's metric: bytes copied to the SSD during
	// the run (including the end-of-experiment full flush, as the paper
	// notes) divided by the run duration.
	WriteRateMBps float64
	// CopyRateMBps is the run-phase component alone (proactive + forced
	// cleaning traffic, excluding the final heap flush). At the paper's
	// 10M-operation scale the two are close; at this repository's short
	// runs the final flush dominates at large budgets, so the split keeps
	// the mechanism visible (see EXPERIMENTS.md).
	CopyRateMBps float64
	// Manager statistics (zero for the baseline).
	ManagerStats core.Stats
	FaultsTaken  uint64
	// SSD accounting for the §7 reduction ablation.
	SSDLogicalBytes uint64
	SSDReduction    ssd.ReductionStats
}

// ThroughputOverheadPercent returns the throughput loss of p relative to
// the baseline point base, in percent (Fig 7f's metric).
func ThroughputOverheadPercent(p, base Point) float64 {
	if base.Result.Throughput == 0 {
		return 0
	}
	return (1 - p.Result.Throughput/base.Result.Throughput) * 100
}

// LatencyOverheadPercent returns the mean-latency increase of p's primary
// operation relative to base, in percent (Fig 8f's metric).
func LatencyOverheadPercent(p, base Point, op ycsb.OpKind) float64 {
	b := base.Result.LatencyOf(op).Mean()
	if b == 0 {
		return 0
	}
	v := p.Result.LatencyOf(op).Mean()
	return (float64(v)/float64(b) - 1) * 100
}

// BudgetPages converts a budget fraction of the heap into pages.
func BudgetPages(cfg YCSBConfig, fraction float64) int {
	cfg = cfg.withDefaults()
	pages := int(float64(cfg.HeapBytes) * fraction / float64(nvdram.DefaultPageSize))
	if pages < 1 {
		pages = 1
	}
	return pages
}

// RunViyojit builds a Viyojit-managed system with the given dirty budget
// and runs the workload. The returned Point carries throughput, latency
// histograms, SSD write rate, and manager statistics.
func RunViyojit(cfg YCSBConfig, dirtyBudgetPages int) (Point, error) {
	cfg = cfg.withDefaults()
	clock := sim.NewClock()
	events := sim.NewQueue()
	region, err := nvdram.New(clock, nvdram.Config{Size: cfg.RegionBytes, TLBEntries: cfg.TLBEntries})
	if err != nil {
		return Point{}, err
	}
	dev := ssd.New(clock, events, cfg.SSD)
	dev.AttachObs(cfg.Obs)
	mgr, err := core.NewManager(clock, events, region, dev, core.Config{
		DirtyBudgetPages: dirtyBudgetPages,
		Epoch:            cfg.Epoch,
		DisableTLBFlush:  cfg.DisableTLBFlush,
		Policy:           cfg.Policy,
		HardwareAssist:   cfg.HardwareAssist,
		EWMAWeight:       cfg.EWMAWeight,
		Obs:              cfg.Obs,
	})
	if err != nil {
		return Point{}, err
	}
	mapping, err := mgr.Map("redis-heap", cfg.HeapBytes)
	if err != nil {
		return Point{}, err
	}
	store, err := newStore(mapping)
	if err != nil {
		return Point{}, err
	}
	target := ycsb.Target{Store: store, Clock: clock, Pump: mgr.Pump}

	ycfg := ycsb.Config{
		Workload:       cfg.Workload,
		RecordCount:    cfg.RecordCount,
		OperationCount: cfg.OperationCount,
		ValueSize:      cfg.ValueSize,
		Seed:           cfg.Seed,
	}
	if err := ycsb.Load(ycfg, target); err != nil {
		return Point{}, err
	}

	// Fig 9 counts data copied out during the run plus the final
	// heap flush, so snapshot the SSD byte counter after the load.
	bytesBefore := dev.Stats().BytesWritten
	res, err := ycsb.Run(ycfg, target)
	if err != nil {
		return Point{}, err
	}
	runElapsed := res.Elapsed
	bytesRunOnly := dev.Stats().BytesWritten - bytesBefore
	mgr.FlushAll()
	bytesCopied := dev.Stats().BytesWritten - bytesBefore

	p := Point{
		System:           "viyojit",
		Workload:         cfg.Workload.Name,
		DirtyBudgetPages: dirtyBudgetPages,
		BudgetFraction:   float64(dirtyBudgetPages) * nvdram.DefaultPageSize / float64(cfg.HeapBytes),
		Result:           res,
		ManagerStats:     mgr.Stats(),
		FaultsTaken:      region.PageTable().Stats().Faults,
	}
	p.SSDLogicalBytes = dev.Stats().BytesWritten
	p.SSDReduction = dev.ReductionStats()
	if runElapsed > 0 {
		p.WriteRateMBps = float64(bytesCopied) / (1 << 20) / runElapsed.Seconds()
		p.CopyRateMBps = float64(bytesRunOnly) / (1 << 20) / runElapsed.Seconds()
	}
	if err := mgr.VerifyDurability(); err != nil {
		return Point{}, fmt.Errorf("experiments: durability violated after %s run: %w", cfg.Workload.Name, err)
	}
	mgr.Close()
	return p, nil
}

// RunBaseline builds the full-battery NV-DRAM system and runs the same
// workload: Fig 7/8's horizontal reference lines.
func RunBaseline(cfg YCSBConfig) (Point, error) {
	cfg = cfg.withDefaults()
	clock := sim.NewClock()
	events := sim.NewQueue()
	region, err := nvdram.New(clock, nvdram.Config{Size: cfg.RegionBytes})
	if err != nil {
		return Point{}, err
	}
	dev := ssd.New(clock, events, cfg.SSD)
	mgr, err := newBaselineManager(clock, events, region, dev)
	if err != nil {
		return Point{}, err
	}
	mapping, err := mgr.Map("redis-heap", cfg.HeapBytes)
	if err != nil {
		return Point{}, err
	}
	store, err := newStore(mapping)
	if err != nil {
		return Point{}, err
	}
	target := ycsb.Target{Store: store, Clock: clock, Pump: mgr.Pump}

	ycfg := ycsb.Config{
		Workload:       cfg.Workload,
		RecordCount:    cfg.RecordCount,
		OperationCount: cfg.OperationCount,
		ValueSize:      cfg.ValueSize,
		Seed:           cfg.Seed,
	}
	if err := ycsb.Load(ycfg, target); err != nil {
		return Point{}, err
	}
	res, err := ycsb.Run(ycfg, target)
	if err != nil {
		return Point{}, err
	}
	return Point{
		System:         "nv-dram",
		Workload:       cfg.Workload.Name,
		BudgetFraction: 1.0,
		Result:         res,
	}, nil
}
