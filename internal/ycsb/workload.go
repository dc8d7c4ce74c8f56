// Package ycsb reimplements the slice of the Yahoo! Cloud Serving
// Benchmark the paper's evaluation uses (§6.1): workloads A, B, C, D and
// F, with the standard request distributions, a load phase, and a run
// phase that records per-operation latencies on the virtual clock.
// Workload E (scans) is omitted exactly as the paper omits it: the
// NV-DRAM Redis does not support cross-key transactions.
package ycsb

import "fmt"

// OpKind is the type of one benchmark operation.
type OpKind int

// Operation kinds. YCSB's UPDATE overwrites a whole value; INSERT creates
// a new record; READ-MODIFY-WRITE reads then overwrites.
const (
	OpRead OpKind = iota
	OpUpdate
	OpInsert
	OpReadModifyWrite
	numOpKinds
)

// String returns the YCSB-style name of the operation.
func (k OpKind) String() string {
	switch k {
	case OpRead:
		return "READ"
	case OpUpdate:
		return "UPDATE"
	case OpInsert:
		return "INSERT"
	case OpReadModifyWrite:
		return "READ-MODIFY-WRITE"
	default:
		return fmt.Sprintf("OpKind(%d)", int(k))
	}
}

// Distribution selects the request key chooser.
type Distribution int

// Request distributions used by the standard workloads.
const (
	// DistZipfian is YCSB's scrambled Zipfian (hot keys spread across
	// the keyspace).
	DistZipfian Distribution = iota
	// DistLatest biases toward recently inserted records.
	DistLatest
	// DistUniform draws keys uniformly.
	DistUniform
)

// Workload is an operation mix plus request distribution.
type Workload struct {
	Name string
	// Proportions must sum to 1.
	ReadProportion   float64
	UpdateProportion float64
	InsertProportion float64
	RMWProportion    float64
	Request          Distribution
	// Description mirrors the paper's §6.1 characterisation.
	Description string
	// PrimaryOp is the operation whose latency the paper reports for
	// this workload in Fig 8.
	PrimaryOp OpKind
}

// The standard workloads, with the proportions from Cooper et al. and the
// paper's §6.1 descriptions.
var (
	WorkloadA = Workload{
		Name: "YCSB-A", ReadProportion: 0.5, UpdateProportion: 0.5,
		Request:     DistZipfian,
		Description: "update heavy: interactive applications creating content rapidly",
		PrimaryOp:   OpUpdate,
	}
	WorkloadB = Workload{
		Name: "YCSB-B", ReadProportion: 0.95, UpdateProportion: 0.05,
		Request:     DistZipfian,
		Description: "read mostly: document serving, frequent reads, rare edits",
		PrimaryOp:   OpUpdate,
	}
	WorkloadC = Workload{
		Name: "YCSB-C", ReadProportion: 1.0,
		Request:     DistZipfian,
		Description: "read only: image-serving front ends (internal metadata still stores)",
		PrimaryOp:   OpRead,
	}
	WorkloadD = Workload{
		Name: "YCSB-D", ReadProportion: 0.95, InsertProportion: 0.05,
		Request:     DistLatest,
		Description: "read latest: social media posts read by many right after insertion",
		PrimaryOp:   OpInsert,
	}
	WorkloadF = Workload{
		Name: "YCSB-F", ReadProportion: 0.5, RMWProportion: 0.5,
		Request:     DistZipfian,
		Description: "read-modify-write: user-record stores read and modified",
		PrimaryOp:   OpReadModifyWrite,
	}
)

// WorkloadE is YCSB's scan-heavy workload. The paper could not run it —
// "it requires cross key transactions which we do not support for now"
// (§6.1) — and this reproduction mirrors that: the runner rejects it
// with ErrScansUnsupported so the parity is explicit rather than silent.
var WorkloadE = Workload{
	Name: "YCSB-E", ReadProportion: 0.95, InsertProportion: 0.05,
	Request:     DistZipfian,
	Description: "short ranges: threaded conversations (UNSUPPORTED, as in the paper)",
	PrimaryOp:   OpRead,
}

// StandardWorkloads returns A, B, C, D, F in the order the paper's
// figures present them.
func StandardWorkloads() []Workload {
	return []Workload{WorkloadA, WorkloadB, WorkloadC, WorkloadD, WorkloadF}
}

// Validate checks that the proportions form a distribution.
func (w Workload) Validate() error {
	sum := w.ReadProportion + w.UpdateProportion + w.InsertProportion + w.RMWProportion
	if sum < 0.999 || sum > 1.001 {
		return fmt.Errorf("ycsb: workload %s proportions sum to %v, want 1", w.Name, sum)
	}
	for _, p := range []float64{w.ReadProportion, w.UpdateProportion, w.InsertProportion, w.RMWProportion} {
		if p < 0 {
			return fmt.Errorf("ycsb: workload %s has negative proportion", w.Name)
		}
	}
	return nil
}
