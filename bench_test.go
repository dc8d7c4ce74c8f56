// Benchmarks that regenerate every table and figure in the paper's
// evaluation. Each BenchmarkFigN_* prints the corresponding table once
// (guarded by sync.Once — figures are deterministic) and reports the
// figure's headline numbers as benchmark metrics. Run them all with:
//
//	go test -bench=. -benchmem
//
// The mapping from benchmark to paper figure is DESIGN.md §4's
// per-experiment index.
package viyojit_test

import (
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"runtime"
	"sync"
	"testing"

	"viyojit"
	"viyojit/internal/core"
	"viyojit/internal/dist"
	"viyojit/internal/experiments"
	"viyojit/internal/kvstore"
	"viyojit/internal/mmu"
	"viyojit/internal/pheap"
	"viyojit/internal/ptx"
	"viyojit/internal/scrub"
	"viyojit/internal/sim"
	"viyojit/internal/ssd"
	"viyojit/internal/trace"
	"viyojit/internal/wal"
	"viyojit/internal/ycsb"
)

// benchOps keeps the full-grid sweeps affordable; shapes are stable well
// below this (the simulation is deterministic).
const benchOps = 10_000

// sweepCache shares one full sweep across the Fig 7/8/9 benchmarks,
// exactly as one set of runs feeds all three figures in the paper.
var (
	sweepOnce sync.Once
	sweepVal  *experiments.Sweep
	sweepErr  error
)

func fullSweep(b *testing.B) *experiments.Sweep {
	b.Helper()
	sweepOnce.Do(func() {
		sweepVal, sweepErr = experiments.RunSweep(experiments.SweepOptions{
			OperationCount: benchOps,
			Seed:           1,
		})
	})
	if sweepErr != nil {
		b.Fatal(sweepErr)
	}
	return sweepVal
}

var printOnce sync.Map

// printTable prints a figure's table exactly once per process.
func printTable(name string, fn func()) {
	if _, loaded := printOnce.LoadOrStore(name, true); !loaded {
		fn()
		fmt.Println()
	}
}

func BenchmarkFig1_ScalingGap(b *testing.B) {
	for i := 0; i < b.N; i++ {
		printTable("fig1", func() {
			if err := experiments.FprintFig1(os.Stdout); err != nil {
				b.Fatal(err)
			}
		})
	}
	b.ReportMetric(50000, "dram-growth-25y")
	b.ReportMetric(3.3, "lithium-growth-25y")
}

func BenchmarkTable_BatterySizing(b *testing.B) {
	for i := 0; i < b.N; i++ {
		printTable("sizing", func() { experiments.FprintBatterySizing(os.Stdout) })
	}
}

// traceCache shares the generated application traces across Figs 2-4.
var (
	traceOnce sync.Once
	traceVal  []trace.Application
	traceErr  error
)

func tracesFor(b *testing.B) []trace.Application {
	b.Helper()
	traceOnce.Do(func() { traceVal, traceErr = trace.Applications(1) })
	if traceErr != nil {
		b.Fatal(traceErr)
	}
	return traceVal
}

func BenchmarkFig2_WrittenFraction(b *testing.B) {
	apps := tracesFor(b)
	for i := 0; i < b.N; i++ {
		printTable("fig2", func() { experiments.FprintFig2(os.Stdout, apps) })
	}
	// Headline: the share of volumes under the 15 % line.
	total, under := 0, 0
	for _, app := range apps {
		for _, v := range app.Volumes {
			total++
			if v.WorstIntervalWrittenFraction(trace.Hour) < 0.15 {
				under++
			}
		}
	}
	b.ReportMetric(float64(under)/float64(total)*100, "%volumes<15%/hr")
}

func BenchmarkFig3_SkewTouched(b *testing.B) {
	apps := tracesFor(b)
	for i := 0; i < b.N; i++ {
		printTable("fig3", func() { experiments.FprintFig3(os.Stdout, apps) })
	}
}

func BenchmarkFig4_SkewTotal(b *testing.B) {
	apps := tracesFor(b)
	for i := 0; i < b.N; i++ {
		printTable("fig4", func() { experiments.FprintFig4(os.Stdout, apps) })
	}
}

func BenchmarkFig5_ZipfShrinkage(b *testing.B) {
	for i := 0; i < b.N; i++ {
		printTable("fig5", func() { experiments.FprintFig5(os.Stdout) })
	}
	b.ReportMetric(dist.ZipfCoverage(10_000, dist.ZipfianConstant, 0.90)*100, "F90@10k-%pages")
	b.ReportMetric(dist.ZipfCoverage(10_000_000, dist.ZipfianConstant, 0.90)*100, "F90@10M-%pages")
}

func BenchmarkFig7_Throughput(b *testing.B) {
	var s *experiments.Sweep
	for i := 0; i < b.N; i++ {
		s = fullSweep(b)
	}
	printTable("fig7", func() { experiments.FprintFig7(os.Stdout, s) })
	for _, ws := range s.Workloads {
		for _, p := range ws.Points {
			if p.BudgetFraction < 0.12 {
				b.ReportMetric(experiments.ThroughputOverheadPercent(p, ws.Baseline),
					ws.Workload.Name+"-overhead@11%-%")
			}
		}
	}
}

func BenchmarkFig8_Latency(b *testing.B) {
	var s *experiments.Sweep
	for i := 0; i < b.N; i++ {
		s = fullSweep(b)
	}
	printTable("fig8", func() { experiments.FprintFig8(os.Stdout, s) })
	ws := s.Workloads[0] // YCSB-A
	p99 := ws.Points[0].Result.LatencyOf(ws.Workload.PrimaryOp).Quantile(0.99)
	base := ws.Baseline.Result.LatencyOf(ws.Workload.PrimaryOp).Quantile(0.99)
	b.ReportMetric(p99.Microseconds(), "A-p99@11%-us")
	b.ReportMetric(base.Microseconds(), "A-p99-baseline-us")
}

func BenchmarkFig9_WriteRate(b *testing.B) {
	var s *experiments.Sweep
	for i := 0; i < b.N; i++ {
		s = fullSweep(b)
	}
	printTable("fig9", func() { experiments.FprintFig9(os.Stdout, s) })
	b.ReportMetric(s.Workloads[0].Points[0].WriteRateMBps, "A-writerate@11%-MB/s")
}

func BenchmarkFig10_HeapScaling(b *testing.B) {
	var rows []experiments.Fig10Row
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = experiments.RunFig10(experiments.SweepOptions{
			Workloads:      []ycsb.Workload{ycsb.WorkloadA, ycsb.WorkloadB, ycsb.WorkloadC, ycsb.WorkloadF},
			OperationCount: benchOps,
			Seed:           1,
		})
		if err != nil {
			b.Fatal(err)
		}
	}
	printTable("fig10", func() { experiments.FprintFig10(os.Stdout, rows) })
}

func BenchmarkAblation_TLBFlush(b *testing.B) {
	var rows []experiments.TLBAblationRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = experiments.RunTLBAblation(experiments.SweepOptions{
			Fractions:      []float64{0.11, 0.23},
			OperationCount: 40_000,
			Seed:           1,
		})
		if err != nil {
			b.Fatal(err)
		}
	}
	printTable("abl-tlb", func() { experiments.FprintTLBAblation(os.Stdout, rows) })
	b.ReportMetric(float64(rows[0].WithoutFlushFaults)/float64(rows[0].WithFlushFaults), "fault-ratio-noflush")
}

func BenchmarkAblation_VictimPolicy(b *testing.B) {
	var rows []experiments.PolicyRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = experiments.RunPolicyAblation(experiments.SweepOptions{
			OperationCount: benchOps,
			Seed:           1,
		}, 0.11)
		if err != nil {
			b.Fatal(err)
		}
	}
	printTable("abl-policy", func() { experiments.FprintPolicyAblation(os.Stdout, rows) })
}

func BenchmarkAblation_EpochLength(b *testing.B) {
	var rows []experiments.ParamRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = experiments.RunEpochAblation(experiments.SweepOptions{
			OperationCount: benchOps,
			Seed:           1,
		}, 0.11, []sim.Duration{250 * sim.Microsecond, sim.Millisecond, 4 * sim.Millisecond, 16 * sim.Millisecond})
		if err != nil {
			b.Fatal(err)
		}
	}
	printTable("abl-epoch", func() {
		experiments.FprintParamRows(os.Stdout, "Ablation: epoch length (YCSB-A, 11% budget)", rows)
	})
}

func BenchmarkAblation_EWMAWeight(b *testing.B) {
	var rows []experiments.ParamRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = experiments.RunEWMAAblation(experiments.SweepOptions{
			OperationCount: benchOps,
			Seed:           1,
		}, 0.11, []float64{0.1, 0.5, 0.75, 1.0})
		if err != nil {
			b.Fatal(err)
		}
	}
	printTable("abl-ewma", func() {
		experiments.FprintParamRows(os.Stdout, "Ablation: dirty-page-pressure EWMA weight (YCSB-A, 11% budget)", rows)
	})
}

func BenchmarkAblation_QueueDepth(b *testing.B) {
	var rows []experiments.ParamRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = experiments.RunQueueDepthAblation(experiments.SweepOptions{
			OperationCount: benchOps,
			Seed:           1,
		}, 0.11, []int{1, 4, 16, 64})
		if err != nil {
			b.Fatal(err)
		}
	}
	printTable("abl-depth", func() {
		experiments.FprintParamRows(os.Stdout, "Ablation: SSD outstanding-IO bound (YCSB-A, 11% budget)", rows)
	})
}

func BenchmarkAblation_HWAssist(b *testing.B) {
	var rows []experiments.HWAssistRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = experiments.RunHWAssistAblation(experiments.SweepOptions{
			Fractions:      []float64{0.11, 0.46},
			OperationCount: benchOps,
			Seed:           1,
		})
		if err != nil {
			b.Fatal(err)
		}
	}
	printTable("abl-hw", func() { experiments.FprintHWAssistAblation(os.Stdout, rows) })
	b.ReportMetric(rows[0].SWP99.Microseconds(), "SW-p99@11%-us")
	b.ReportMetric(rows[0].HWP99.Microseconds(), "HW-p99@11%-us")
}

func BenchmarkAblation_ByteGranularity(b *testing.B) {
	var rows []experiments.GranularityResult
	for i := 0; i < b.N; i++ {
		rows = rows[:0]
		for _, ws := range []int{64, 256, 1024, 4096} {
			r, err := experiments.RunGranularityComparison(1, ws, 2000)
			if err != nil {
				b.Fatal(err)
			}
			rows = append(rows, r)
		}
	}
	printTable("abl-gran", func() { experiments.FprintGranularity(os.Stdout, rows) })
	b.ReportMetric(rows[0].BatteryRatio, "battery-ratio@64B")
	b.ReportMetric(rows[0].TrafficRatio, "traffic-ratio@64B")
}

func BenchmarkTable_TenancyMultiplexing(b *testing.B) {
	var r experiments.TenancyResult
	for i := 0; i < b.N; i++ {
		var err error
		r, err = experiments.RunTenancyExperiment(1, 400)
		if err != nil {
			b.Fatal(err)
		}
	}
	printTable("tenancy", func() { experiments.FprintTenancy(os.Stdout, r) })
	b.ReportMetric(float64(r.StaticForcedCleans), "static-forced-cleans")
	b.ReportMetric(float64(r.PooledForcedCleans), "pooled-forced-cleans")
}

func BenchmarkAblation_SSDReduction(b *testing.B) {
	var rows []experiments.ReductionRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = experiments.RunSSDReductionAblation(experiments.SweepOptions{
			OperationCount: benchOps,
			Seed:           1,
		}, 0.11)
		if err != nil {
			b.Fatal(err)
		}
	}
	printTable("abl-ssd-reduce", func() { experiments.FprintSSDReduction(os.Stdout, rows) })
	b.ReportMetric(rows[3].TransferRatio, "bus-bytes-ratio-both")
}

func BenchmarkTable_Availability(b *testing.B) {
	for i := 0; i < b.N; i++ {
		printTable("availability", func() {
			if err := experiments.FprintAvailability(os.Stdout); err != nil {
				b.Fatal(err)
			}
		})
	}
}

func BenchmarkTable_BatteryRetune(b *testing.B) {
	var r experiments.RetuneReport
	for i := 0; i < b.N; i++ {
		var err error
		r, err = experiments.RunBatteryRetune(1)
		if err != nil {
			b.Fatal(err)
		}
	}
	printTable("retune", func() { experiments.FprintBatteryRetune(os.Stdout, r) })
	if !r.SurvivedOnHalf {
		b.Fatal("retuned system lost data on power failure")
	}
}

// BenchmarkObsHotPath measures one full observability record set — the
// instruments a served request touches (counter, gauge, histogram, span
// begin/finish) — in host ns/op. The guard: zero B/op, zero allocs/op;
// TestObsRecordPathZeroAlloc enforces the same bound as a plain test so
// a regression fails `go test` without anyone reading benchmark output.
//
// The bare variant is the registry alone; the blackbox-sink variant is
// the same record set with the flight recorder teed onto every
// instrument — the marginal price of always-on crash forensics on the
// hot path, and its zero-alloc guard (the recorder encodes into a
// recorder-owned buffer; TestAppendZeroAlloc in internal/blackbox
// enforces the same bound as a plain test).
func BenchmarkObsHotPath(b *testing.B) {
	run := func(b *testing.B, cfg viyojit.Config) {
		sys, err := viyojit.New(cfg)
		if err != nil {
			b.Fatal(err)
		}
		defer sys.Close()
		reg := sys.Metrics()
		c := reg.Counter("bench_requests_total")
		// A ruled gauge: when the recorder is teed in, every change is a
		// full ring append — the expensive edge of the tee. The counter,
		// histogram, and span stay rule-misses, pricing the lookup.
		g := reg.Gauge("health_derived_budget_pages")
		h := reg.Histogram("bench_latency_ns")
		tr := reg.Tracer()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			c.Inc()
			g.Set(int64(i&63) + 1)
			h.Record(sim.Duration(1000 + i&1023))
			sp := tr.Begin("bench.request", sim.Time(i))
			tr.Finish(sp, sim.Time(i+1), "ok")
		}
		b.StopTimer()
		if rec := sys.BlackBox(); rec != nil && rec.LastSeq() < uint64(b.N/2) {
			b.Fatalf("recorder appended %d of %d ruled gauge changes; the tee is not measuring the append path", rec.LastSeq(), b.N)
		}
	}
	b.Run("bare", func(b *testing.B) {
		run(b, viyojit.Config{NVDRAMSize: 8 << 20})
	})
	b.Run("blackbox-sink", func(b *testing.B) {
		run(b, viyojit.Config{NVDRAMSize: 8 << 20, BlackBox: true})
	})
}

// TestObsRecordPathZeroAlloc asserts the instruments a served request
// records onto — fetched from a real System's registry, exactly as the
// subsystems hold them — allocate nothing per operation, so enabling
// observability cannot move a served op's allocation count.
func TestObsRecordPathZeroAlloc(t *testing.T) {
	sys, err := viyojit.New(viyojit.Config{NVDRAMSize: 8 << 20})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	reg := sys.Metrics()
	c := reg.Counter("serve_submitted_total")
	g := reg.Gauge("serve_queue_depth")
	h := reg.Histogram("serve_latency_normal_ns")
	tr := reg.Tracer()
	if n := mallocs(1000, func() {
		c.Inc()
		g.Set(3)
		g.SetMax(5)
		h.Record(12345)
		sp := tr.Begin("serve.request", 1)
		tr.Finish(sp, 2, "ok")
	}); n != 0 {
		t.Fatalf("1000 passes over the obs record path allocate %d times; the serve hot path must stay allocation-free", n)
	}
}

// ---------------------------------------------------------------------
// Micro-benchmarks of the core data path (host-time ns/op; these measure
// the library itself, not the modelled system).

func BenchmarkMicro_FirstWriteFault(b *testing.B) {
	sys, err := viyojit.New(viyojit.Config{NVDRAMSize: 1 << 30, Battery: viyojit.BatteryConfig{CapacityJoules: 1e6}})
	if err != nil {
		b.Fatal(err)
	}
	m, err := sys.Map("bench", 1<<30)
	if err != nil {
		b.Fatal(err)
	}
	buf := []byte{1}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Each write hits a fresh page: full fault path.
		off := (int64(i) % (1 << 30 / 4096)) * 4096
		if err := m.WriteAt(buf, off); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMicro_WarmWrite(b *testing.B) {
	sys, err := viyojit.New(viyojit.Config{NVDRAMSize: 16 << 20})
	if err != nil {
		b.Fatal(err)
	}
	m, err := sys.Map("bench", 1<<20)
	if err != nil {
		b.Fatal(err)
	}
	buf := []byte{1}
	if err := m.WriteAt(buf, 0); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := m.WriteAt(buf, 0); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMicro_Read(b *testing.B) {
	sys, err := viyojit.New(viyojit.Config{NVDRAMSize: 16 << 20})
	if err != nil {
		b.Fatal(err)
	}
	m, err := sys.Map("bench", 1<<20)
	if err != nil {
		b.Fatal(err)
	}
	buf := make([]byte, 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := m.ReadAt(buf, int64(i%16000)*64); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMicro_KVStorePut(b *testing.B) {
	sys, err := viyojit.New(viyojit.Config{NVDRAMSize: 64 << 20, Battery: viyojit.BatteryConfig{CapacityJoules: 1e6}})
	if err != nil {
		b.Fatal(err)
	}
	m, err := sys.Map("kv", 32<<20)
	if err != nil {
		b.Fatal(err)
	}
	heap, err := pheap.Format(m)
	if err != nil {
		b.Fatal(err)
	}
	store, err := kvstore.Create(heap, 4096)
	if err != nil {
		b.Fatal(err)
	}
	val := make([]byte, 256)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		key := []byte(fmt.Sprintf("key%06d", i%2000))
		if err := store.Put(key, val); err != nil {
			b.Fatal(err)
		}
		sys.Pump()
	}
}

func BenchmarkMicro_KVStoreGet(b *testing.B) {
	sys, err := viyojit.New(viyojit.Config{NVDRAMSize: 64 << 20, Battery: viyojit.BatteryConfig{CapacityJoules: 1e6}})
	if err != nil {
		b.Fatal(err)
	}
	m, err := sys.Map("kv", 32<<20)
	if err != nil {
		b.Fatal(err)
	}
	heap, err := pheap.Format(m)
	if err != nil {
		b.Fatal(err)
	}
	store, err := kvstore.Create(heap, 4096)
	if err != nil {
		b.Fatal(err)
	}
	val := make([]byte, 256)
	for i := 0; i < 2000; i++ {
		if err := store.Put([]byte(fmt.Sprintf("key%06d", i)), val); err != nil {
			b.Fatal(err)
		}
		sys.Pump()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok, err := store.Get([]byte(fmt.Sprintf("key%06d", i%2000))); err != nil || !ok {
			b.Fatalf("get: ok=%v err=%v", ok, err)
		}
		sys.Pump()
	}
}

func BenchmarkMicro_ZipfianNext(b *testing.B) {
	z := dist.NewScrambledZipfian(sim.NewRNG(1), 1_000_000, dist.ZipfianConstant)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = z.Next()
	}
}

func BenchmarkMicro_PowerFailFlush(b *testing.B) {
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		sys, err := viyojit.New(viyojit.Config{NVDRAMSize: 32 << 20})
		if err != nil {
			b.Fatal(err)
		}
		m, err := sys.Map("pf", 16<<20)
		if err != nil {
			b.Fatal(err)
		}
		for p := 0; p < sys.DirtyBudget(); p++ {
			if err := m.WriteAt([]byte{1}, int64(p)*4096); err != nil {
				b.Fatal(err)
			}
			sys.Pump()
		}
		b.StartTimer()
		report := sys.SimulatePowerFailure()
		if !report.Survived {
			b.Fatal("flush did not survive")
		}
	}
}

// durableSystem returns a 64 MiB system — the repo benchmark's scale —
// whose first pages pages of a 32 MiB mapping have been written and
// flushed, so exactly those (and nothing else of the region's 16 384) are
// durable.
func durableSystem(b *testing.B, pages int) *viyojit.System {
	b.Helper()
	sys, err := viyojit.New(viyojit.Config{NVDRAMSize: 64 << 20})
	if err != nil {
		b.Fatal(err)
	}
	m, err := sys.Map("heap", 32<<20)
	if err != nil {
		b.Fatal(err)
	}
	page := make([]byte, 4096)
	for p := 0; p < pages; p++ {
		for i := range page {
			page[i] = byte(p + i)
		}
		if err := m.WriteAt(page, int64(p)*4096); err != nil {
			b.Fatal(err)
		}
		sys.Pump()
	}
	sys.FlushAll()
	return sys
}

// BenchmarkRecover is one power cycle through the facade at the repo
// benchmark's scale, ≈ 8 000 durable pages: SimulatePowerFailure, then
// Recover — every page verified once, adopted by the new device and
// shared with the new region, which reads the device's image until its
// first store — stack construction included. ns/page and allocs/page
// are the cost of a reboot that checks every page and copies none.
func BenchmarkRecover(b *testing.B) {
	const pages = 8000
	sys := durableSystem(b, pages)
	defer func() { sys.Close() }()
	var before, after runtime.MemStats
	restored := 0
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !sys.SimulatePowerFailure().Survived {
			b.Fatal("flush did not survive")
		}
		next, report, err := sys.Recover()
		if err != nil {
			b.Fatal(err)
		}
		if report.PagesRestored < pages || !report.Integrity.Clean() {
			b.Fatalf("restore report %+v", report)
		}
		restored += report.PagesRestored
		sys = next
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(restored), "ns/page")
	b.ReportMetric(float64(after.Mallocs-before.Mallocs)/float64(restored), "allocs/page")
}

// BenchmarkVerifyDurability is the post-flush durability check over a
// 16 384-page region of which the upper half was never written: 8 192
// page compares against durable copies, and 8 192 pages whose chunks were
// never backed and that the device holds nothing for — restorable by
// construction, so not compared.
func BenchmarkVerifyDurability(b *testing.B) {
	sys := durableSystem(b, 8192)
	defer sys.Close()
	b.SetBytes(64 << 20)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := sys.VerifyDurability(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPageChecksum is the integrity checksum of one 4 KiB page,
// the device's CRC32C — paid on every clean, every scrub visit and every
// restored page.
func BenchmarkPageChecksum(b *testing.B) {
	page := make([]byte, 4096)
	for i := range page {
		page[i] = byte(i * 7)
	}
	b.SetBytes(int64(len(page)))
	tab := crc32.MakeTable(crc32.Castagnoli)
	var sum uint64
	for i := 0; i < b.N; i++ {
		sum += uint64(crc32.Checksum(page, tab))
	}
	checksumSink = sum
}

// checksumSink keeps BenchmarkPageChecksum's result alive.
var checksumSink uint64

// BenchmarkScrubBurst is one paced scrubber burst — 8 pages verified —
// against durable sets of growing size: the cost must follow the burst,
// not the set. (A burst used to rebuild and sort the whole durable list.)
func BenchmarkScrubBurst(b *testing.B) {
	for _, pages := range []int{1 << 10, 8 << 10, 64 << 10} {
		b.Run(fmt.Sprintf("durable=%d", pages), func(b *testing.B) {
			clock, events := sim.NewClock(), sim.NewQueue()
			dev := ssd.New(clock, events, ssd.Config{})
			data := make([]byte, 4096)
			for p := 0; p < pages; p++ {
				dev.SeedDurable(mmu.PageID(p), data)
			}
			scr := scrub.New(clock, events, dev, nil, scrub.Config{})
			scr.Start()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				// The scrubber's bursts are the only events queued.
				events.Step(clock)
			}
			b.StopTimer()
			if got := scr.Stats().Bursts; got != uint64(b.N) {
				b.Fatalf("%d bursts in %d steps", got, b.N)
			}
		})
	}
}

// BenchmarkEpochTick is one epoch tick over D dirty pages. In the plain
// and no-victim cases the budget is far away and every page stays dirty:
// dirty-bit scan and candidate collection, nothing ordered. In the k=8
// case the set sits at the cleaning threshold and each epoch dirties 8
// clean pages, and 8 are cleaned: the wake level cleans most of them as
// the writes approach the budget, the tick orders the candidates and
// cleans the rest — the timed region then also holds those 8 faults and
// 8 SSD completions.
func BenchmarkEpochTick(b *testing.B) {
	for _, c := range []struct {
		name string
		d, k int
	}{
		{"D=256", 256, 0},
		{"D=4096", 4096, 0},
		{"D=8192/no-victim", 8192, 0},
		{"D=8192/k=8", 8192, 8},
	} {
		b.Run(c.name, func(b *testing.B) {
			sys, err := viyojit.New(viyojit.Config{
				NVDRAMSize:           64 << 20,
				Battery:              viyojit.BatteryConfig{CapacityJoules: 1e6},
				DisableHealthMonitor: true,
				DisableScrubber:      true,
			})
			if err != nil {
				b.Fatal(err)
			}
			defer sys.Close()
			// Written round-robin under least-recently-updated cleaning,
			// a mapping twice the dirty set always has its next k pages
			// clean.
			span := 2 * c.d
			m, err := sys.Map("bench", int64(span)*4096)
			if err != nil {
				b.Fatal(err)
			}
			next := 0
			dirty := func(n int) {
				for ; n > 0; n-- {
					if err := m.WriteAt([]byte{1}, int64(next%span)*4096); err != nil {
						b.Fatal(err)
					}
					next++
				}
			}
			epoch := sys.Manager().Config().Epoch
			dirty(c.d - c.k)
			// Let the pressure estimate forget the initial fill, stop just
			// after a tick, and put the budget at D.
			sys.AdvanceTime(64 * epoch)
			for e := sys.Stats().Epochs; sys.Stats().Epochs == e; {
				sys.AdvanceTime(epoch / 100)
			}
			if c.k > 0 {
				if err := sys.Manager().SetDirtyBudget(c.d); err != nil {
					b.Fatal(err)
				}
			}
			// One iteration is one epoch: the k writes land mid-epoch, after
			// the previous tick's cleans have completed, and the tick follows.
			base, iter := sys.Now(), 0
			advanceTo := func(t sim.Time) { sys.AdvanceTime(t.Sub(sys.Now())) }
			run := func(n int) {
				for ; n > 0; n-- {
					advanceTo(base.Add(sim.Duration(iter)*epoch + epoch/2))
					dirty(c.k)
					iter++
					advanceTo(base.Add(sim.Duration(iter) * epoch))
				}
			}
			run(64) // the pressure estimate learns k per epoch
			before := sys.Stats()
			b.ReportAllocs()
			b.ResetTimer()
			run(b.N)
			b.StopTimer()
			st := sys.Stats()
			// The threshold is D-k. Each epoch's k admissions start at D-k,
			// and an admission wakes the copier once it leaves at most
			// wakeAhead more before the budget (core.WakeAhead), so those
			// from D-1-wakeAhead up each clean one page ahead of the tick,
			// and those cleans land before it. The tick's own cleans are
			// still in flight, hence dirty, when the iteration ends.
			mgr := sys.Manager()
			ahead := 0
			if c.k > 0 {
				wake := core.WakeAhead(core.WakePages(mgr.SSD(), mgr.Region().PageTable().Costs().Trap), c.d)
				ahead = min(c.k-1, wake+1)
			}
			if got, want := st.ProactiveCleans-before.ProactiveCleans, uint64(c.k*b.N); got != want ||
				st.Epochs-before.Epochs != uint64(b.N) || st.ForcedCleans != before.ForcedCleans || sys.DirtyCount() != c.d-ahead {
				b.Fatalf("%d ticks cleaned %d pages with %d forced cleans in %d epochs, %d dirty; want %d ticks, %d pages, none forced, %d dirty",
					st.Epochs-before.Epochs, got, st.ForcedCleans-before.ForcedCleans, b.N, sys.DirtyCount(), b.N, want, c.d-ahead)
			}
		})
	}
}

func BenchmarkMicro_WALAppend(b *testing.B) {
	sys, err := viyojit.New(viyojit.Config{NVDRAMSize: 64 << 20, Battery: viyojit.BatteryConfig{CapacityJoules: 1e6}})
	if err != nil {
		b.Fatal(err)
	}
	m, err := sys.Map("log", 48<<20)
	if err != nil {
		b.Fatal(err)
	}
	l, err := wal.Create(m)
	if err != nil {
		b.Fatal(err)
	}
	payload := make([]byte, 100)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := l.Append(payload); err != nil {
			if errors.Is(err, wal.ErrFull) {
				b.StopTimer()
				if err := l.Reset(); err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				continue
			}
			b.Fatal(err)
		}
		sys.Pump()
	}
}

func BenchmarkMicro_PTXUpdate(b *testing.B) {
	sys, err := viyojit.New(viyojit.Config{NVDRAMSize: 64 << 20, Battery: viyojit.BatteryConfig{CapacityJoules: 1e6}})
	if err != nil {
		b.Fatal(err)
	}
	m, err := sys.Map("tx", 32<<20)
	if err != nil {
		b.Fatal(err)
	}
	h, err := ptx.Create(m, 256<<10)
	if err != nil {
		b.Fatal(err)
	}
	payload := make([]byte, 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := h.Update(func(tx *ptx.Tx) error {
			return tx.Write(payload, int64(i%1000)*64)
		}); err != nil {
			b.Fatal(err)
		}
		sys.Pump()
	}
}

// mallocs runs f runs times to reach steady state, then runs times more,
// and returns what the second pass allocated in total:
// testing.AllocsPerRun's integer average would hide up to runs-1
// allocations.
func mallocs(runs int, f func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	for i := 0; i < runs; i++ {
		f()
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs
}
