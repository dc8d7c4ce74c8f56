package experiments

import (
	"bytes"
	"strings"
	"testing"

	"viyojit/internal/sim"
	"viyojit/internal/trace"
	"viyojit/internal/ycsb"
)

// testOps keeps the integration tests fast while preserving shapes.
const testOps = 15_000

func TestViyojitMatchesPaperShapeAcrossWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("integration shape test")
	}
	type band struct{ min, max float64 }
	// Calibration bands around the paper's Fig 7 summary at an 11 %
	// budget: 25 % for YCSB-A down to 7 % for the read-heavy workloads.
	bands := map[string]band{
		"YCSB-A": {10, 35},
		"YCSB-B": {3, 15},
		"YCSB-C": {2, 12},
		"YCSB-D": {2, 15},
		"YCSB-F": {10, 35},
	}
	overheads := map[string]float64{}
	for _, w := range ycsb.StandardWorkloads() {
		cfg := YCSBConfig{Workload: w, Seed: 1, OperationCount: testOps}
		base, err := RunBaseline(cfg)
		if err != nil {
			t.Fatal(err)
		}
		p, err := RunViyojit(cfg, BudgetPages(cfg, 0.11))
		if err != nil {
			t.Fatal(err)
		}
		ov := ThroughputOverheadPercent(p, base)
		overheads[w.Name] = ov
		b := bands[w.Name]
		if ov < b.min || ov > b.max {
			t.Errorf("%s overhead at 11%% budget = %.1f%%, want in [%v, %v]", w.Name, ov, b.min, b.max)
		}
		// The tail latency of the primary op must sit above the baseline
		// at every budget (paper Fig 8).
		op := w.PrimaryOp
		if p.Result.LatencyOf(op).Quantile(0.99) <= base.Result.LatencyOf(op).Quantile(0.99) {
			t.Errorf("%s: Viyojit p99 not above baseline", w.Name)
		}
	}
	// Write-heavy workloads must hurt more than read-heavy ones.
	if overheads["YCSB-A"] <= overheads["YCSB-C"] {
		t.Errorf("YCSB-A overhead (%.1f%%) not above YCSB-C (%.1f%%)", overheads["YCSB-A"], overheads["YCSB-C"])
	}
	if overheads["YCSB-F"] <= overheads["YCSB-B"] {
		t.Errorf("YCSB-F overhead (%.1f%%) not above YCSB-B (%.1f%%)", overheads["YCSB-F"], overheads["YCSB-B"])
	}
}

func TestOverheadShrinksWithBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("integration shape test")
	}
	cfg := YCSBConfig{Workload: ycsb.WorkloadA, Seed: 1, OperationCount: testOps}
	base, err := RunBaseline(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var prev float64 = 1e9
	for _, f := range []float64{0.11, 0.46, 1.03} {
		p, err := RunViyojit(cfg, BudgetPages(cfg, f))
		if err != nil {
			t.Fatal(err)
		}
		ov := ThroughputOverheadPercent(p, base)
		if ov > prev+2 { // small tolerance for noise
			t.Errorf("overhead at %.0f%% budget (%.1f%%) exceeds smaller budget's (%.1f%%)", f*100, ov, prev)
		}
		prev = ov
	}
	if prev > 6 {
		t.Errorf("overhead at 103%% budget = %.1f%%, want near baseline", prev)
	}
}

func TestWriteRateShape(t *testing.T) {
	if testing.Short() {
		t.Skip("integration shape test")
	}
	// Fig 9: write-heavy workloads copy more to the SSD than read-heavy
	// ones, and the rates stay within what a modern SSD sustains.
	cfgA := YCSBConfig{Workload: ycsb.WorkloadA, Seed: 1, OperationCount: testOps}
	cfgC := YCSBConfig{Workload: ycsb.WorkloadC, Seed: 1, OperationCount: testOps}
	a, err := RunViyojit(cfgA, BudgetPages(cfgA, 0.11))
	if err != nil {
		t.Fatal(err)
	}
	c, err := RunViyojit(cfgC, BudgetPages(cfgC, 0.11))
	if err != nil {
		t.Fatal(err)
	}
	if a.WriteRateMBps <= c.WriteRateMBps {
		t.Errorf("YCSB-A write rate (%.1f MB/s) not above YCSB-C (%.1f MB/s)", a.WriteRateMBps, c.WriteRateMBps)
	}
	if a.WriteRateMBps > 2048 {
		t.Errorf("write rate %.1f MB/s exceeds device bandwidth", a.WriteRateMBps)
	}
}

func TestFig10OverheadShrinksWithHeapScale(t *testing.T) {
	if testing.Short() {
		t.Skip("integration shape test")
	}
	rows, err := RunFig10(SweepOptions{
		Workloads:      []ycsb.Workload{ycsb.WorkloadA},
		OperationCount: testOps,
		Seed:           1,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Compare each fraction's overhead across the two scales. At laptop
	// scale the effect is small (see EXPERIMENTS.md), so assert the
	// direction with a half-point tolerance at the paper's lowest
	// highlighted fraction.
	byScale := map[int64]map[float64]float64{}
	for _, r := range rows {
		if byScale[r.HeapBytes] == nil {
			byScale[r.HeapBytes] = map[float64]float64{}
		}
		byScale[r.HeapBytes][r.BudgetFraction] = r.OverheadPercent
	}
	if len(byScale) != 2 {
		t.Fatalf("expected 2 heap scales, got %d", len(byScale))
	}
	var small, large int64 = 1 << 62, 0
	for hb := range byScale {
		if hb < small {
			small = hb
		}
		if hb > large {
			large = hb
		}
	}
	if byScale[large][0.11] > byScale[small][0.11]+0.5 {
		t.Errorf("11%% overhead grew with heap scale: %v MiB → %.1f%%, %v MiB → %.1f%%",
			small>>20, byScale[small][0.11], large>>20, byScale[large][0.11])
	}
}

func TestTLBAblationShowsPrecisionLoss(t *testing.T) {
	if testing.Short() {
		t.Skip("integration shape test")
	}
	rows, err := RunTLBAblation(SweepOptions{
		Fractions:      []float64{0.11},
		OperationCount: 60_000,
		Seed:           1,
	})
	if err != nil {
		t.Fatal(err)
	}
	r := rows[0]
	// The mechanism must show: stale dirty bits cause extra faults and
	// extra cleaning traffic. (The throughput magnitude is implementation
	// dependent — see EXPERIMENTS.md.)
	if r.WithoutFlushFaults <= r.WithFlushFaults {
		t.Errorf("faults without flush (%d) not above with flush (%d)", r.WithoutFlushFaults, r.WithFlushFaults)
	}
	if r.WithoutFlushCleans <= r.WithFlushCleans {
		t.Errorf("cleans without flush (%d) not above with flush (%d)", r.WithoutFlushCleans, r.WithFlushCleans)
	}
}

func TestPolicyAblationOrdering(t *testing.T) {
	if testing.Short() {
		t.Skip("integration shape test")
	}
	rows, err := RunPolicyAblation(SweepOptions{OperationCount: testOps, Seed: 1}, 0.11)
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]PolicyRow{}
	for _, r := range rows {
		byName[r.Policy] = r
	}
	// The adversarial MRU policy must be clearly worst.
	if byName["mru-update"].ThroughputKOps >= byName["lru-update"].ThroughputKOps*0.95 {
		t.Errorf("mru-update (%.1fK) not clearly below lru-update (%.1fK)",
			byName["mru-update"].ThroughputKOps, byName["lru-update"].ThroughputKOps)
	}
	if byName["mru-update"].Faults <= byName["lru-update"].Faults {
		t.Errorf("mru-update faults (%d) not above lru-update (%d)",
			byName["mru-update"].Faults, byName["lru-update"].Faults)
	}
}

func TestBatteryRetune(t *testing.T) {
	r, err := RunBatteryRetune(1)
	if err != nil {
		t.Fatal(err)
	}
	if r.ReducedBudget >= r.InitialBudget {
		t.Errorf("budget did not shrink: %d -> %d", r.InitialBudget, r.ReducedBudget)
	}
	if r.DirtyAfter > r.ReducedBudget {
		t.Errorf("dirty %d exceeds retuned budget %d", r.DirtyAfter, r.ReducedBudget)
	}
	if r.RetuneCleans == 0 {
		t.Error("no synchronous retune cleans")
	}
	if !r.SurvivedOnHalf {
		t.Error("power failure on halved battery lost data")
	}
}

func TestSweepAndPrinters(t *testing.T) {
	if testing.Short() {
		t.Skip("integration shape test")
	}
	s, err := RunSweep(QuickSweepOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Workloads) != 2 || len(s.Workloads[0].Points) != 3 {
		t.Fatalf("sweep shape wrong: %d workloads", len(s.Workloads))
	}
	if s.find("YCSB-A") == nil || s.find("nope") != nil {
		t.Fatal("sweep find broken")
	}
	var buf bytes.Buffer
	FprintFig7(&buf, s)
	FprintFig8(&buf, s)
	FprintFig9(&buf, s)
	for _, want := range []string{"Figure 7", "Figure 8", "Figure 9", "YCSB-A", "Summary"} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("sweep output missing %q", want)
		}
	}
}

func TestStaticFigurePrinters(t *testing.T) {
	var buf bytes.Buffer
	if err := FprintFig1(&buf); err != nil {
		t.Fatal(err)
	}
	FprintBatterySizing(&buf)
	FprintFig5(&buf)
	if err := FprintAvailability(&buf); err != nil {
		t.Fatal(err)
	}
	r, err := RunBatteryRetune(2)
	if err != nil {
		t.Fatal(err)
	}
	FprintBatteryRetune(&buf, r)
	for _, want := range []string{"Figure 1", "Battery sizing", "Figure 5", "availability", "retuning"} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("static output missing %q", want)
		}
	}
}

func TestTracePrinters(t *testing.T) {
	if testing.Short() {
		t.Skip("trace generation is moderately slow")
	}
	apps, err := trace.Applications(1)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	FprintFig2(&buf, apps)
	FprintFig3(&buf, apps)
	FprintFig4(&buf, apps)
	out := buf.String()
	for _, want := range []string{"Figure 2", "Figure 3", "Figure 4", "Cosmos", "Azure blob storage"} {
		if !strings.Contains(out, want) {
			t.Errorf("trace output missing %q", want)
		}
	}
}

func TestParamAblations(t *testing.T) {
	if testing.Short() {
		t.Skip("integration shape test")
	}
	opts := SweepOptions{OperationCount: 8_000, Seed: 1}
	epochs, err := RunEpochAblation(opts, 0.11, []sim.Duration{sim.Millisecond, 4 * sim.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if len(epochs) != 2 || epochs[0].ThroughputKOps <= 0 {
		t.Fatalf("epoch ablation rows: %+v", epochs)
	}
	depths, err := RunQueueDepthAblation(opts, 0.11, []int{4, 16})
	if err != nil {
		t.Fatal(err)
	}
	if len(depths) != 2 || depths[1].ThroughputKOps <= 0 {
		t.Fatalf("depth ablation rows: %+v", depths)
	}
	var buf bytes.Buffer
	FprintParamRows(&buf, "epoch", epochs)
	FprintTLBAblation(&buf, []TLBAblationRow{{BudgetFraction: 0.11}})
	FprintPolicyAblation(&buf, []PolicyRow{{Policy: "lru-update"}})
	FprintFig10(&buf, []Fig10Row{{Workload: "YCSB-A"}})
	if buf.Len() == 0 {
		t.Fatal("printer output empty")
	}
}

func TestRunViyojitDeterministic(t *testing.T) {
	cfg := YCSBConfig{Workload: ycsb.WorkloadA, Seed: 9, OperationCount: 5_000}
	a, err := RunViyojit(cfg, BudgetPages(cfg, 0.23))
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunViyojit(cfg, BudgetPages(cfg, 0.23))
	if err != nil {
		t.Fatal(err)
	}
	if a.Result.Throughput != b.Result.Throughput || a.FaultsTaken != b.FaultsTaken {
		t.Fatal("same-seed runs diverged")
	}
}

func TestBudgetPages(t *testing.T) {
	cfg := YCSBConfig{HeapBytes: 32 << 20}
	if got := BudgetPages(cfg, 0.5); got != 4096 {
		t.Fatalf("BudgetPages(0.5 of 32 MiB) = %d, want 4096", got)
	}
	if got := BudgetPages(cfg, 0.0000001); got != 1 {
		t.Fatalf("tiny fraction should clamp to 1 page, got %d", got)
	}
}

func TestHWAssistReducesOverhead(t *testing.T) {
	if testing.Short() {
		t.Skip("integration shape test")
	}
	rows, err := RunHWAssistAblation(SweepOptions{
		Fractions:      []float64{0.11},
		OperationCount: testOps,
		Seed:           1,
	})
	if err != nil {
		t.Fatal(err)
	}
	r := rows[0]
	// §5.4's claim: offloading to the MMU removes first-write traps, so
	// throughput rises and the tail shrinks at low budgets.
	if r.HWKOps <= r.SWKOps {
		t.Errorf("hardware assist (%.1fK) not above software (%.1fK)", r.HWKOps, r.SWKOps)
	}
	if r.HWP99 >= r.SWP99 {
		t.Errorf("hardware p99 (%v) not below software (%v)", r.HWP99, r.SWP99)
	}
	if r.HWInterrupts >= r.SWFaults {
		t.Errorf("hardware interrupts (%d) not far below software faults (%d)", r.HWInterrupts, r.SWFaults)
	}
}

func TestGranularityComparisonShape(t *testing.T) {
	if testing.Short() {
		t.Skip("integration shape test")
	}
	small, err := RunGranularityComparison(1, 64, 1500)
	if err != nil {
		t.Fatal(err)
	}
	big, err := RunGranularityComparison(1, 4096, 1500)
	if err != nil {
		t.Fatal(err)
	}
	// §7's prediction: byte granularity needs much less battery and SSD
	// traffic for small writes, and the advantage vanishes at page-size
	// writes.
	if small.BatteryRatio > 0.5 {
		t.Errorf("64B battery ratio = %.2f, want ≪ 1", small.BatteryRatio)
	}
	if small.TrafficRatio > 0.3 {
		t.Errorf("64B traffic ratio = %.2f, want ≪ 1", small.TrafficRatio)
	}
	if big.BatteryRatio < 0.9 {
		t.Errorf("4KiB battery ratio = %.2f, want ≈ 1", big.BatteryRatio)
	}
	if small.BatteryRatio >= big.BatteryRatio {
		t.Error("battery advantage did not shrink with write size")
	}
}

func TestTenancyMultiplexingHelps(t *testing.T) {
	if testing.Short() {
		t.Skip("integration shape test")
	}
	r, err := RunTenancyExperiment(1, 400)
	if err != nil {
		t.Fatal(err)
	}
	// Pooling must reduce the bursty tenant's budget stalls versus the
	// static half-split of the same battery.
	if r.PooledForcedCleans >= r.StaticForcedCleans {
		t.Errorf("pooled forced cleans (%d) not below static (%d)", r.PooledForcedCleans, r.StaticForcedCleans)
	}
	if r.PooledFaultWait >= r.StaticFaultWait {
		t.Errorf("pooled fault wait (%v) not below static (%v)", r.PooledFaultWait, r.StaticFaultWait)
	}
	if r.PooledBurstyGrant <= r.PooledQuietGrant {
		t.Errorf("pool did not shift budget toward the bursty tenant: %d vs %d", r.PooledBurstyGrant, r.PooledQuietGrant)
	}
	if r.Rebalances == 0 {
		t.Error("no rebalances recorded")
	}
}

func TestSSDReductionShape(t *testing.T) {
	if testing.Short() {
		t.Skip("integration shape test")
	}
	rows, err := RunSSDReductionAblation(SweepOptions{OperationCount: testOps, Seed: 1}, 0.11)
	if err != nil {
		t.Fatal(err)
	}
	byLabel := map[string]ReductionRow{}
	for _, r := range rows {
		byLabel[r.Label] = r
	}
	if byLabel["plain"].TransferRatio != 1.0 {
		t.Errorf("plain ratio = %v", byLabel["plain"].TransferRatio)
	}
	if byLabel["dedup"].TransferRatio >= 1.0 || byLabel["dedup"].DedupHits == 0 {
		t.Errorf("dedup saved nothing: %+v", byLabel["dedup"])
	}
	if byLabel["compress"].TransferRatio >= byLabel["dedup"].TransferRatio {
		t.Errorf("compression (%v) not stronger than dedup (%v) on structured values",
			byLabel["compress"].TransferRatio, byLabel["dedup"].TransferRatio)
	}
	if byLabel["both"].TransferRatio > byLabel["compress"].TransferRatio+0.01 {
		t.Errorf("both (%v) worse than compression alone (%v)",
			byLabel["both"].TransferRatio, byLabel["compress"].TransferRatio)
	}
}

func TestEWMAAblationRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("integration shape test")
	}
	rows, err := RunEWMAAblation(SweepOptions{OperationCount: 8_000, Seed: 1}, 0.11, []float64{0.25, 0.75})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.ThroughputKOps <= 0 || r.P99 <= 0 {
			t.Fatalf("degenerate row: %+v", r)
		}
	}
}
