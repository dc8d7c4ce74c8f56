package ycsb

import (
	"errors"
	"math"
	"testing"

	"viyojit/internal/kvstore"
	"viyojit/internal/pheap"
	"viyojit/internal/sim"
)

// memStore is an in-memory pheap.Store that charges a small per-access
// cost so throughput is finite.
type memStore struct {
	data  []byte
	clock *sim.Clock
}

func (m *memStore) Size() int64 { return int64(len(m.data)) }

func (m *memStore) ReadAt(p []byte, off int64) error {
	if off < 0 || off+int64(len(p)) > int64(len(m.data)) {
		return errors.New("memStore: out of range")
	}
	m.clock.Advance(100 * sim.Nanosecond)
	copy(p, m.data[off:])
	return nil
}

func (m *memStore) WriteAt(p []byte, off int64) error {
	if off < 0 || off+int64(len(p)) > int64(len(m.data)) {
		return errors.New("memStore: out of range")
	}
	m.clock.Advance(100 * sim.Nanosecond)
	copy(m.data[off:], p)
	return nil
}

func newTestTarget(t testing.TB, heapBytes int) Target {
	t.Helper()
	clock := sim.NewClock()
	ms := &memStore{data: make([]byte, heapBytes), clock: clock}
	heap, err := pheap.Format(ms)
	if err != nil {
		t.Fatal(err)
	}
	store, err := kvstore.Create(heap, 1024)
	if err != nil {
		t.Fatal(err)
	}
	return Target{Store: store, Clock: clock, Pump: func() {}}
}

func TestWorkloadValidation(t *testing.T) {
	for _, w := range StandardWorkloads() {
		if err := w.Validate(); err != nil {
			t.Errorf("standard workload %s invalid: %v", w.Name, err)
		}
	}
	bad := Workload{Name: "bad", ReadProportion: 0.5}
	if err := bad.Validate(); err == nil {
		t.Error("half-sum workload validated")
	}
	neg := Workload{Name: "neg", ReadProportion: 1.5, UpdateProportion: -0.5}
	if err := neg.Validate(); err == nil {
		t.Error("negative proportion validated")
	}
}

func TestOpKindStrings(t *testing.T) {
	if OpRead.String() != "READ" || OpReadModifyWrite.String() != "READ-MODIFY-WRITE" {
		t.Fatal("op kind names wrong")
	}
	if OpKind(99).String() == "" {
		t.Fatal("unknown op kind has empty name")
	}
}

func TestLoadThenRunAllWorkloads(t *testing.T) {
	for _, w := range StandardWorkloads() {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			target := newTestTarget(t, 8<<20)
			cfg := Config{
				Workload:       w,
				RecordCount:    500,
				OperationCount: 2000,
				ValueSize:      256,
				Seed:           42,
			}
			if err := Load(cfg, target); err != nil {
				t.Fatal(err)
			}
			res, err := Run(cfg, target)
			if err != nil {
				t.Fatal(err)
			}
			if res.Operations != 2000 {
				t.Fatalf("operations = %d", res.Operations)
			}
			if res.Throughput <= 0 {
				t.Fatal("throughput not positive")
			}
			if res.LatencyOf(w.PrimaryOp).count == 0 && w.Name != "YCSB-C" {
				t.Fatalf("no samples for primary op %v", w.PrimaryOp)
			}
		})
	}
}

func TestRunOpMixMatchesProportions(t *testing.T) {
	target := newTestTarget(t, 8<<20)
	cfg := Config{
		Workload:       WorkloadB, // 95/5
		RecordCount:    200,
		OperationCount: 10000,
		ValueSize:      64,
		Seed:           7,
	}
	if err := Load(cfg, target); err != nil {
		t.Fatal(err)
	}
	res, err := Run(cfg, target)
	if err != nil {
		t.Fatal(err)
	}
	reads := float64(res.LatencyOf(OpRead).count)
	updates := float64(res.LatencyOf(OpUpdate).count)
	frac := updates / (reads + updates)
	if frac < 0.03 || frac > 0.08 {
		t.Fatalf("update fraction = %v, want ~0.05", frac)
	}
}

func TestRunReadOnlyWorkloadIssuesOnlyReads(t *testing.T) {
	target := newTestTarget(t, 8<<20)
	cfg := Config{Workload: WorkloadC, RecordCount: 100, OperationCount: 1000, ValueSize: 64, Seed: 1}
	if err := Load(cfg, target); err != nil {
		t.Fatal(err)
	}
	res, err := Run(cfg, target)
	if err != nil {
		t.Fatal(err)
	}
	if res.LatencyOf(OpRead).count != 1000 {
		t.Fatalf("reads = %d, want 1000", res.LatencyOf(OpRead).count)
	}
	for _, k := range []OpKind{OpUpdate, OpInsert, OpReadModifyWrite} {
		if res.LatencyOf(k).count != 0 {
			t.Fatalf("%v issued under YCSB-C", k)
		}
	}
}

func TestRunInsertsGrowStore(t *testing.T) {
	target := newTestTarget(t, 16<<20)
	cfg := Config{Workload: WorkloadD, RecordCount: 300, OperationCount: 3000, ValueSize: 64, Seed: 3}
	if err := Load(cfg, target); err != nil {
		t.Fatal(err)
	}
	res, err := Run(cfg, target)
	if err != nil {
		t.Fatal(err)
	}
	inserts := res.LatencyOf(OpInsert).count
	if inserts == 0 {
		t.Fatal("YCSB-D issued no inserts")
	}
	n, err := target.Store.Len()
	if err != nil {
		t.Fatal(err)
	}
	if n != 300+inserts {
		t.Fatalf("store has %d records, want %d", n, 300+inserts)
	}
}

func TestRunDeterministic(t *testing.T) {
	run := func() Result {
		target := newTestTarget(t, 8<<20)
		cfg := Config{Workload: WorkloadA, RecordCount: 200, OperationCount: 1000, ValueSize: 128, Seed: 99}
		if err := Load(cfg, target); err != nil {
			t.Fatal(err)
		}
		res, err := Run(cfg, target)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a.Throughput != b.Throughput || a.Elapsed != b.Elapsed {
		t.Fatalf("same-seed runs differ: %v vs %v", a.Throughput, b.Throughput)
	}
}

func TestRunValidatesConfig(t *testing.T) {
	target := newTestTarget(t, 1<<20)
	if _, err := Run(Config{Workload: Workload{Name: "bad"}, OperationCount: 10, RecordCount: 10}, target); err == nil {
		t.Fatal("invalid workload accepted")
	}
	if _, err := Run(Config{Workload: WorkloadA, RecordCount: 10}, target); err == nil {
		t.Fatal("zero operation count accepted")
	}
	if err := Load(Config{Workload: WorkloadA}, target); err == nil {
		t.Fatal("zero record count load accepted")
	}
}

func TestThroughputUnit(t *testing.T) {
	r := Result{Throughput: 42000}
	if r.ThroughputKOps() != 42 {
		t.Fatalf("KOps = %v", r.ThroughputKOps())
	}
}

func TestWorkloadERejectedLikeThePaper(t *testing.T) {
	target := newTestTarget(t, 1<<20)
	_, err := Run(Config{Workload: WorkloadE, RecordCount: 10, OperationCount: 10}, target)
	if !errors.Is(err, ErrScansUnsupported) {
		t.Fatalf("err = %v, want ErrScansUnsupported", err)
	}
}

// A negative client count or a non-finite offered load is refused before
// the run starts, so no server is needed to see it.
func TestRunConcurrentRejectsBadConfig(t *testing.T) {
	base := Config{Workload: WorkloadA, RecordCount: 10, OperationCount: 10}
	for _, cfg := range []ConcurrentConfig{
		{Config: base, Clients: -3},
		{Config: base, OfferedLoad: -1},
		{Config: base, OfferedLoad: math.NaN()},
		{Config: base, OfferedLoad: math.Inf(1)},
	} {
		if _, err := RunConcurrent(cfg, nil); err == nil {
			t.Errorf("clients %d, offered load %v accepted", cfg.Clients, cfg.OfferedLoad)
		}
	}
}
