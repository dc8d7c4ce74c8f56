package ycsb

import (
	"encoding/binary"
	"errors"
	"fmt"

	"viyojit/internal/dist"
	"viyojit/internal/kvstore"
	"viyojit/internal/serve"
	"viyojit/internal/sim"
)

// Config parameterises one benchmark execution.
type Config struct {
	Workload Workload
	// RecordCount is the number of records loaded before the run phase
	// (the paper's "initial dataset").
	RecordCount int
	// OperationCount is the number of run-phase operations.
	OperationCount int
	// ValueSize is the record value size in bytes (YCSB default is 10
	// fields × 100 B; scaled deployments use smaller values — the
	// harness picks).
	ValueSize int
	// Seed makes the run deterministic.
	Seed uint64
}

func (c Config) withDefaults() Config {
	if c.ValueSize == 0 {
		c.ValueSize = 1024
	}
	return c
}

// Target is the system under test: a KV store plus the clock it runs on
// and a pump that delivers pending background events (epoch ticks, IO
// completions). The same Target shape drives both the Viyojit-managed
// store and the full-battery baseline.
type Target struct {
	Store *kvstore.Store
	Clock *sim.Clock
	Pump  func()
}

// Result is the outcome of one run.
type Result struct {
	Workload   string
	Operations int
	Elapsed    sim.Duration
	// Throughput in operations per (virtual) second.
	Throughput float64
	// Latency histograms per operation kind (nil slots for kinds the
	// workload never issued).
	Latency [numOpKinds]*Histogram
}

// ThroughputKOps returns throughput in K-ops/sec, the unit of Fig 7.
func (r Result) ThroughputKOps() float64 { return r.Throughput / 1000 }

// LatencyOf returns the histogram for kind (empty if unused).
func (r Result) LatencyOf(kind OpKind) *Histogram {
	if r.Latency[kind] == nil {
		return &Histogram{}
	}
	return r.Latency[kind]
}

// key builds the YCSB-style key for record i.
func key(i int64) []byte {
	return []byte(fmt.Sprintf("user%012d", i))
}

// valueFor builds a deterministic value: an 8-byte stamp followed by a
// fixed pattern. Distinct per (record, version) so durability checks can
// distinguish versions, cheap enough to build per op.
func valueFor(buf []byte, record int64, version uint64) []byte {
	if len(buf) >= 16 {
		binary.LittleEndian.PutUint64(buf[0:], uint64(record))
		binary.LittleEndian.PutUint64(buf[8:], version)
		for i := 16; i < len(buf); i++ {
			buf[i] = byte(0x40 + i%32)
		}
	} else {
		for i := range buf {
			buf[i] = byte(record) + byte(version) + byte(i)
		}
	}
	return buf
}

// Load inserts cfg.RecordCount records — the load phase that builds the
// paper's initial heap.
func Load(cfg Config, target Target) error {
	cfg = cfg.withDefaults()
	if cfg.RecordCount <= 0 {
		return fmt.Errorf("ycsb: RecordCount %d must be positive", cfg.RecordCount)
	}
	buf := make([]byte, cfg.ValueSize)
	for i := int64(0); i < int64(cfg.RecordCount); i++ {
		if err := target.Store.Put(key(i), valueFor(buf, i, 0)); err != nil {
			return fmt.Errorf("ycsb: load record %d: %w", i, err)
		}
		target.Pump()
	}
	return nil
}

// opChooser draws operation kinds according to the workload mix.
type opChooser struct {
	rng *sim.RNG
	w   Workload
}

func (o *opChooser) next() OpKind {
	r := o.rng.Float64()
	if r < o.w.ReadProportion {
		return OpRead
	}
	r -= o.w.ReadProportion
	if r < o.w.UpdateProportion {
		return OpUpdate
	}
	r -= o.w.UpdateProportion
	if r < o.w.InsertProportion {
		return OpInsert
	}
	return OpReadModifyWrite
}

// newChooser builds the request-distribution generator for one client.
// Generators are not safe for concurrent use; concurrent runs fork the
// RNG and build one chooser per client goroutine.
func newChooser(rng *sim.RNG, w Workload, records int64) (dist.Generator, *dist.Latest, error) {
	switch w.Request {
	case DistZipfian:
		return dist.NewScrambledZipfian(rng.Fork(), records, dist.ZipfianConstant), nil, nil
	case DistLatest:
		latest := dist.NewLatest(rng.Fork(), records, dist.ZipfianConstant)
		return latest, latest, nil
	case DistUniform:
		return dist.NewUniform(rng.Fork(), records), nil, nil
	default:
		return nil, nil, fmt.Errorf("ycsb: unknown distribution %d", w.Request)
	}
}

// ErrScansUnsupported is returned when a workload requires range scans
// (YCSB-E). The paper's NV-DRAM Redis does not support cross-key
// transactions, and neither does this KV store — by design, to mirror
// the evaluation exactly.
var ErrScansUnsupported = errors.New("ycsb: scans (YCSB-E) unsupported, as in the paper's evaluation")

// Run executes the run phase and returns measured throughput and
// latencies. The store must already be loaded (Load).
func Run(cfg Config, target Target) (Result, error) {
	cfg = cfg.withDefaults()
	if cfg.Workload.Name == WorkloadE.Name {
		return Result{}, ErrScansUnsupported
	}
	if err := cfg.Workload.Validate(); err != nil {
		return Result{}, err
	}
	if cfg.OperationCount <= 0 {
		return Result{}, fmt.Errorf("ycsb: OperationCount %d must be positive", cfg.OperationCount)
	}

	rng := sim.NewRNG(cfg.Seed)
	ops := &opChooser{rng: rng.Fork(), w: cfg.Workload}

	records := int64(cfg.RecordCount)
	chooser, latest, err := newChooser(rng, cfg.Workload, records)
	if err != nil {
		return Result{}, err
	}

	res := Result{Workload: cfg.Workload.Name, Operations: cfg.OperationCount}
	for k := range res.Latency {
		res.Latency[k] = &Histogram{}
	}

	valBuf := make([]byte, cfg.ValueSize)
	nextInsert := records
	version := uint64(1)
	start := target.Clock.Now()

	for op := 0; op < cfg.OperationCount; op++ {
		kind := ops.next()
		t0 := target.Clock.Now()
		// The stack around the store, as a served request is charged.
		target.Clock.Advance(serve.ServiceTime)
		switch kind {
		case OpRead:
			k := key(chooser.Next())
			if _, _, err := target.Store.Get(k); err != nil {
				return res, fmt.Errorf("ycsb: op %d read: %w", op, err)
			}
		case OpUpdate:
			rec := chooser.Next()
			version++
			if err := target.Store.Put(key(rec), valueFor(valBuf, rec, version)); err != nil {
				return res, fmt.Errorf("ycsb: op %d update: %w", op, err)
			}
		case OpInsert:
			rec := nextInsert
			nextInsert++
			if err := target.Store.Put(key(rec), valueFor(valBuf, rec, 0)); err != nil {
				return res, fmt.Errorf("ycsb: op %d insert: %w", op, err)
			}
			if latest != nil {
				latest.AddItem()
			}
		case OpReadModifyWrite:
			rec := chooser.Next()
			version++
			v := version
			if _, err := target.Store.ReadModifyWrite(key(rec), func(old []byte) []byte {
				return valueFor(valBuf, rec, v)
			}); err != nil {
				return res, fmt.Errorf("ycsb: op %d rmw: %w", op, err)
			}
		}
		target.Pump()
		res.Latency[kind].Record(target.Clock.Now().Sub(t0))
	}

	res.Elapsed = target.Clock.Now().Sub(start)
	if res.Elapsed > 0 {
		res.Throughput = float64(cfg.OperationCount) / res.Elapsed.Seconds()
	}
	return res, nil
}
