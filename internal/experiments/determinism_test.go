package experiments

import (
	"bytes"
	"reflect"
	"testing"

	"viyojit/internal/sim"
	"viyojit/internal/ycsb"
)

// Every experiment entry point must be a pure function of its seed: the
// whole evaluation pipeline replays bit-for-bit, which is what makes a
// reported figure (or a crash point in the fault-injection harness) a
// reproducible artifact. Each test runs an entry point twice with the
// same inputs and requires deeply equal results.

// smallOpts keeps the determinism runs cheap: one workload, one
// fraction, few operations.
func smallOpts() SweepOptions {
	return SweepOptions{
		Workloads:      []ycsb.Workload{ycsb.WorkloadA},
		Fractions:      []float64{0.23},
		OperationCount: 3_000,
		Seed:           7,
	}
}

func TestRunSweepDeterministic(t *testing.T) {
	a, err := RunSweep(smallOpts())
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunSweep(smallOpts())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("RunSweep diverged across same-seed runs")
	}
}

func TestRunBaselineDeterministic(t *testing.T) {
	cfg := YCSBConfig{Workload: ycsb.WorkloadA, Seed: 11, OperationCount: 3_000}
	a, err := RunBaseline(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunBaseline(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("RunBaseline diverged across same-seed runs")
	}
}

func TestAblationsDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("multiple full runs")
	}
	opts := smallOpts()
	run := map[string]func() (any, error){
		"TLB":    func() (any, error) { return RunTLBAblation(opts) },
		"policy": func() (any, error) { return RunPolicyAblation(opts, 0.23) },
		"epoch": func() (any, error) {
			return RunEpochAblation(opts, 0.23, []sim.Duration{sim.Millisecond})
		},
		"queue-depth": func() (any, error) { return RunQueueDepthAblation(opts, 0.23, []int{8}) },
		"EWMA":        func() (any, error) { return RunEWMAAblation(opts, 0.23, []float64{0.5}) },
		"HW-assist":   func() (any, error) { return RunHWAssistAblation(opts) },
		"reduction":   func() (any, error) { return RunSSDReductionAblation(opts, 0.23) },
		"fig10":       func() (any, error) { return RunFig10(opts) },
	}
	for name, fn := range run {
		a, err := fn()
		if err != nil {
			t.Fatalf("%s (first): %v", name, err)
		}
		b, err := fn()
		if err != nil {
			t.Fatalf("%s (second): %v", name, err)
		}
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s ablation diverged across same-seed runs", name)
		}
	}
}

func TestScenarioRunsDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("multiple full runs")
	}
	run := map[string]func() (any, error){
		"battery-retune": func() (any, error) { return RunBatteryRetune(5) },
		"granularity":    func() (any, error) { return RunGranularityComparison(5, 64, 3_000) },
		"tenancy":        func() (any, error) { return RunTenancyExperiment(5, 40) },
	}
	for name, fn := range run {
		a, err := fn()
		if err != nil {
			t.Fatalf("%s (first): %v", name, err)
		}
		b, err := fn()
		if err != nil {
			t.Fatalf("%s (second): %v", name, err)
		}
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s diverged across same-seed runs", name)
		}
	}
}

// TestPrintersDeterministic renders the figure printers twice into
// buffers and requires identical bytes (no map-iteration or timestamp
// leakage into the reports).
func TestPrintersDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep-backed printer comparison")
	}
	s, err := RunSweep(smallOpts())
	if err != nil {
		t.Fatal(err)
	}
	render := func() []byte {
		var buf bytes.Buffer
		if err := FprintFig1(&buf); err != nil {
			t.Fatal(err)
		}
		FprintBatterySizing(&buf)
		FprintFig5(&buf)
		FprintFig7(&buf, s)
		FprintFig8(&buf, s)
		FprintFig9(&buf, s)
		if err := FprintAvailability(&buf); err != nil {
			t.Fatal(err)
		}
		if err := FprintWarmup(&buf, 3); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	if !bytes.Equal(render(), render()) {
		t.Fatal("figure printers produced different bytes for the same data")
	}
}
