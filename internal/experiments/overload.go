package experiments

import (
	"fmt"
	"io"

	"viyojit/internal/core"
	"viyojit/internal/nvdram"
	"viyojit/internal/obs"
	"viyojit/internal/serve"
	"viyojit/internal/sim"
	"viyojit/internal/ssd"
	"viyojit/internal/ycsb"
)

// OverloadConfig parameterises the goodput-vs-offered-load experiment:
// the serving front-end is driven open-loop at multiples of its own
// measured saturation throughput, and the curve must plateau (shedding)
// instead of collapsing.
type OverloadConfig struct {
	Workload ycsb.Workload
	// HeapBytes / RegionBytes follow YCSBConfig (zero = defaults).
	HeapBytes   int64
	RegionBytes int64
	// DirtyBudgetPages is the manager's budget; 0 selects 11 % of the
	// heap — the paper's headline configuration, where cleaning
	// pressure is visible.
	DirtyBudgetPages int
	RecordCount      int
	OperationCount   int
	ValueSize        int
	Seed             uint64
	// Clients is the client-goroutine count; 0 selects 8.
	Clients int
	// Deadline is the per-request virtual deadline in open-loop runs;
	// 0 selects 2 ms.
	Deadline sim.Duration
	// LowPriorityFraction of open-loop requests are sheddable-first;
	// 0 selects 0.2.
	LowPriorityFraction float64
	// Multipliers are the offered loads as fractions of measured
	// saturation; nil selects {0.25, 0.5, 1, 1.5, 2}.
	Multipliers []float64
	// Serve tunes the front-end (zero = serve defaults).
	Serve serve.Config
	// SSD overrides the backing-device model.
	SSD ssd.Config
	// Obs, when set, is the observability registry the point's manager,
	// front-end, and device record onto. nil leaves them on their
	// private registries.
	Obs *obs.Registry
}

func (c OverloadConfig) withDefaults() OverloadConfig {
	if c.HeapBytes == 0 {
		c.HeapBytes = DefaultHeapBytes / 4
	}
	if c.RegionBytes == 0 {
		c.RegionBytes = c.HeapBytes * 2
	}
	if c.DirtyBudgetPages == 0 {
		c.DirtyBudgetPages = int(float64(c.HeapBytes) * 0.11 / float64(nvdram.DefaultPageSize))
		if c.DirtyBudgetPages < 1 {
			c.DirtyBudgetPages = 1
		}
	}
	if c.ValueSize == 0 {
		c.ValueSize = 1024
	}
	if c.RecordCount == 0 {
		c.RecordCount = int(c.HeapBytes * 7 / 10 / int64(2*c.ValueSize))
	}
	if c.OperationCount == 0 {
		c.OperationCount = 20_000
	}
	if c.Workload.Name == "" {
		c.Workload = ycsb.WorkloadA
	}
	if c.Clients == 0 {
		c.Clients = 8
	}
	if c.Deadline == 0 {
		c.Deadline = 2 * sim.Millisecond
	}
	if c.LowPriorityFraction == 0 {
		c.LowPriorityFraction = 0.2
	}
	if c.Multipliers == nil {
		c.Multipliers = []float64{0.25, 0.5, 1, 1.5, 2}
	}
	return c
}

// OverloadPoint is one measured offered-load cell.
type OverloadPoint struct {
	// Multiplier is the offered load as a fraction of saturation
	// (0 marks the closed-loop saturation run itself).
	Multiplier float64
	ycsb.ConcurrentResult
}

// OverloadResult is the full goodput-vs-offered-load curve.
type OverloadResult struct {
	// Saturation is the closed-loop goodput in ops per virtual second —
	// the denominator of the multipliers.
	Saturation float64
	// PeakGoodput is the best goodput across all open-loop points.
	PeakGoodput float64
	Points      []OverloadPoint
}

// RunOverloadCurve measures saturation closed-loop, then sweeps
// open-loop offered loads. Each point runs on a fresh system so
// residual dirty state never leaks between points.
func RunOverloadCurve(cfg OverloadConfig) (OverloadResult, error) {
	cfg = cfg.withDefaults()
	sat, err := RunOverloadPoint(cfg, 0)
	if err != nil {
		return OverloadResult{}, fmt.Errorf("experiments: saturation run: %w", err)
	}
	if sat.Goodput <= 0 {
		return OverloadResult{}, fmt.Errorf("experiments: saturation run completed nothing")
	}
	res := OverloadResult{Saturation: sat.Goodput}
	res.Points = append(res.Points, OverloadPoint{Multiplier: 0, ConcurrentResult: sat})
	for _, m := range cfg.Multipliers {
		p, err := RunOverloadPoint(cfg, m*sat.Goodput)
		if err != nil {
			return OverloadResult{}, fmt.Errorf("experiments: offered %.2fx: %w", m, err)
		}
		res.Points = append(res.Points, OverloadPoint{Multiplier: m, ConcurrentResult: p})
		if p.Goodput > res.PeakGoodput {
			res.PeakGoodput = p.Goodput
		}
	}
	return res, nil
}

// RunOverloadPoint assembles a fresh Viyojit stack, loads the store
// single-threaded, starts the serving front-end, and drives it with
// concurrent clients at the given offered load (0 = closed loop).
func RunOverloadPoint(cfg OverloadConfig, offered float64) (ycsb.ConcurrentResult, error) {
	cfg = cfg.withDefaults()
	clock := sim.NewClock()
	events := sim.NewQueue()
	region, err := nvdram.New(clock, nvdram.Config{Size: cfg.RegionBytes})
	if err != nil {
		return ycsb.ConcurrentResult{}, err
	}
	dev := ssd.New(clock, events, cfg.SSD)
	dev.AttachObs(cfg.Obs)
	mgr, err := core.NewManager(clock, events, region, dev, core.Config{
		DirtyBudgetPages: cfg.DirtyBudgetPages,
		Obs:              cfg.Obs,
	})
	if err != nil {
		return ycsb.ConcurrentResult{}, err
	}
	mapping, err := mgr.Map("redis-heap", cfg.HeapBytes)
	if err != nil {
		return ycsb.ConcurrentResult{}, err
	}
	store, err := newStore(mapping)
	if err != nil {
		return ycsb.ConcurrentResult{}, err
	}

	ycfg := ycsb.Config{
		Workload:       cfg.Workload,
		RecordCount:    cfg.RecordCount,
		OperationCount: cfg.OperationCount,
		ValueSize:      cfg.ValueSize,
		Seed:           cfg.Seed,
	}
	if err := ycsb.Load(ycfg, ycsb.Target{Store: store, Clock: clock, Pump: mgr.Pump}); err != nil {
		return ycsb.ConcurrentResult{}, err
	}

	scfg := cfg.Serve
	if scfg.Obs == nil {
		scfg.Obs = cfg.Obs
	}
	srv, err := serve.New(clock, events, mgr, store, scfg)
	if err != nil {
		return ycsb.ConcurrentResult{}, err
	}
	if err := srv.Start(); err != nil {
		return ycsb.ConcurrentResult{}, err
	}
	ccfg := ycsb.ConcurrentConfig{
		Config:              ycfg,
		Clients:             cfg.Clients,
		OfferedLoad:         offered,
		LowPriorityFraction: cfg.LowPriorityFraction,
	}
	if offered > 0 {
		ccfg.Deadline = cfg.Deadline
	}
	res, runErr := ycsb.RunConcurrent(ccfg, srv)
	srv.Stop()
	// Stop waited out the last serving client; this goroutine owns the
	// sim again.
	mgr.Close()
	if runErr != nil {
		return ycsb.ConcurrentResult{}, runErr
	}
	return res, nil
}

// FprintOverload writes the goodput-vs-offered-load table — the
// overload experiment's deliverable.
func FprintOverload(w io.Writer, r OverloadResult) {
	fmt.Fprintf(w, "Overload & shedding: goodput vs offered load (saturation %.1f K-ops/s)\n", r.Saturation/1000)
	fmt.Fprintf(w, "%-9s %9s %9s %8s %8s %8s %8s %8s %9s %9s\n",
		"offered", "ops/s", "goodput", "done", "shedOver", "shedDL", "shedRO", "other", "p50", "p99")
	for _, p := range r.Points {
		label := "closed"
		if p.Multiplier > 0 {
			label = fmt.Sprintf("%.2fx", p.Multiplier)
		}
		fmt.Fprintf(w, "%-9s %9.0f %9.0f %8d %8d %8d %8d %8d %9v %9v\n",
			label, p.Offered, p.Goodput, p.Completed,
			p.ShedOverload, p.ShedDeadline, p.ShedReadOnly, p.OtherErrors+p.Cancelled,
			p.P50, p.P99)
	}
}
