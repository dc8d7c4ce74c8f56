package crashsweep

import (
	"testing"

	"viyojit/internal/faultinject"
	"viyojit/internal/sim"
	"viyojit/internal/ssd"
)

// TestSweepYCSBA is the acceptance sweep: ≥200 seeded crash points
// across a YCSB-A-style workload (zipf θ=0.99, 50/50 read/update), every
// durability invariant holding at every one.
func TestSweepYCSBA(t *testing.T) {
	if testing.Short() {
		t.Skip("full crash-point sweep in -short mode")
	}
	cfg := Config{Seed: 0x5EED_A, MaxCrashPoints: 200}
	res, err := Run(cfg)
	if err != nil {
		t.Fatalf("sweep: %v", err)
	}
	t.Logf("baseline events %d, stride %d, crash points %d (+%d ran past end), max dirty at crash %d, torn tails %d, rollbacks %d",
		res.BaselineEvents, res.Stride, res.CrashPoints, res.Completed,
		res.MaxDirtyAtCrash, res.TornTails, res.Rollbacks)
	if res.CrashPoints+res.Completed < 200 {
		t.Fatalf("swept %d points, want ≥ 200 (baseline only fired %d events)",
			res.CrashPoints+res.Completed, res.BaselineEvents)
	}
	if res.CrashPoints < 150 {
		t.Fatalf("only %d of %d points actually crashed mid-run", res.CrashPoints, cfg.MaxCrashPoints)
	}
	for _, v := range res.Violations {
		t.Errorf("violation: %s", v)
	}
	if res.MaxDirtyAtCrash > budgetPages {
		t.Errorf("max dirty at crash %d exceeds budget %d", res.MaxDirtyAtCrash, budgetPages)
	}
	if res.MaxDirtyAtCrash == 0 {
		t.Error("no crash point ever caught a dirty page; sweep is not exercising the flush path")
	}
}

// TestSweepWithSSDFaults re-runs a (smaller) sweep with transient,
// torn-write and latency-spike SSD faults injected during the workload:
// the degraded cleaning path, retries, and torn-tail recovery all run
// under crash fire.
func TestSweepWithSSDFaults(t *testing.T) {
	if testing.Short() {
		t.Skip("faulted crash-point sweep in -short mode")
	}
	cfg := Config{
		Seed:           0xFA17_5EED,
		MaxCrashPoints: 60,
		InjectFaults:   true,
		Faults: faultinject.Config{
			TransientProb: 0.05,
			TornProb:      0.02,
			SpikeProb:     0.05,
			MaxFaults:     64,
		},
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatalf("faulted sweep: %v", err)
	}
	t.Logf("baseline events %d, crash points %d (+%d ran past end), max dirty %d, torn tails %d, rollbacks %d",
		res.BaselineEvents, res.CrashPoints, res.Completed,
		res.MaxDirtyAtCrash, res.TornTails, res.Rollbacks)
	if res.CrashPoints == 0 {
		t.Fatal("faulted sweep produced no crash points")
	}
	for _, v := range res.Violations {
		t.Errorf("violation: %s", v)
	}
}

// TestSweepBatterySag is the online-re-provisioning acceptance sweep: a
// battery provisioned for the full budget sags to 50 % mid-workload, the
// safe-shrink hook drains the dirty set to the halved coverage before
// the energy drops, and every one of ≥200 crash points — including ones
// landing mid-drain — satisfies dirty ≤ pages coverable by the battery's
// effective joules at the crash instant, with the flush charged against
// that live energy. The slow SSD makes page transfer dominate the flush
// energy, so the 50 % sag translates into a real budget shrink (24 → 8
// pages) rather than vanishing into the fixed-overhead reserve.
func TestSweepBatterySag(t *testing.T) {
	if testing.Short() {
		t.Skip("sag crash-point sweep in -short mode")
	}
	cfg := Config{
		Seed:           0xBA77_5A6,
		MaxCrashPoints: 200,
		SagFraction:    0.5,
		SSD:            ssd.Config{WriteBandwidth: 16 << 20},
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatalf("sag sweep: %v", err)
	}
	t.Logf("baseline events %d, stride %d, crash points %d (+%d ran past end), max dirty %d, mid-drain crashes %d, sagged crashes %d",
		res.BaselineEvents, res.Stride, res.CrashPoints, res.Completed,
		res.MaxDirtyAtCrash, res.MidDrainCrashes, res.SaggedCrashes)
	if res.CrashPoints+res.Completed < 200 {
		t.Fatalf("swept %d points, want ≥ 200", res.CrashPoints+res.Completed)
	}
	for _, v := range res.Violations {
		t.Errorf("violation: %s", v)
	}
	if res.SaggedCrashes == 0 {
		t.Error("no crash point landed after the sag; sweep never tested the shrunken battery")
	}
	if res.MidDrainCrashes == 0 {
		t.Error("no crash point landed mid-drain; sweep never tested the transition window")
	}
}

// TestSweepCorruption is the silent-corruption acceptance sweep: ≥200
// seeded crash points with lost/misdirected/rot faults injected and the
// background scrubber in the loop. The bar is zero silent escapes — no
// corrupt page is ever restored or reported durable without detection —
// and the sweep must actually inject corruption and exercise the
// detection machinery, or the guarantee is vacuous.
func TestSweepCorruption(t *testing.T) {
	if testing.Short() {
		t.Skip("corruption crash-point sweep in -short mode")
	}
	cfg := Config{Seed: 0xC0_44_0B7, MaxCrashPoints: 200, Corruption: true}
	res, err := Run(cfg)
	if err != nil {
		t.Fatalf("corruption sweep: %v", err)
	}
	t.Logf("baseline events %d, stride %d, crash points %d (+%d ran past end), corruptions %d, scrub detections %d, scrub repairs %d, restore quarantines %d, reported losses %d, silent escapes %d",
		res.BaselineEvents, res.Stride, res.CrashPoints, res.Completed,
		res.CorruptionsInjected, res.ScrubDetections, res.ScrubRepairs,
		res.RestoreQuarantines, res.ReportedLosses, res.SilentEscapes)
	if res.CrashPoints+res.Completed < 200 {
		t.Fatalf("swept %d points, want ≥ 200", res.CrashPoints+res.Completed)
	}
	for _, v := range res.Violations {
		t.Errorf("violation: %s", v)
	}
	if res.SilentEscapes != 0 {
		t.Errorf("%d silent escapes; the detection guarantee is broken", res.SilentEscapes)
	}
	if res.CorruptionsInjected == 0 {
		t.Error("no corruption ever injected; sweep is vacuous")
	}
	if res.ScrubDetections+uint64(res.RestoreQuarantines) == 0 {
		t.Error("injected corruption but nothing was ever detected — detectors never ran")
	}
	if res.MaxDirtyAtCrash > budgetPages {
		t.Errorf("max dirty at crash %d exceeds budget %d (scrub repairs must stay inside the budget)", res.MaxDirtyAtCrash, budgetPages)
	}
}

// TestSweepCorruptionDeterministic: corruption mode must replay exactly
// from the seed too — injected faults, scrub schedule, and verdicts all
// included.
func TestSweepCorruptionDeterministic(t *testing.T) {
	cfg := Config{Seed: 99, Ops: 200, MaxCrashPoints: 10, Corruption: true}
	a, err := Run(cfg)
	if err != nil {
		t.Fatalf("first run: %v", err)
	}
	b, err := Run(cfg)
	if err != nil {
		t.Fatalf("second run: %v", err)
	}
	if a.BaselineEvents != b.BaselineEvents || a.CrashPoints != b.CrashPoints ||
		a.CorruptionsInjected != b.CorruptionsInjected ||
		a.ScrubDetections != b.ScrubDetections || a.ScrubRepairs != b.ScrubRepairs ||
		a.RestoreQuarantines != b.RestoreQuarantines ||
		a.SilentEscapes != b.SilentEscapes || len(a.Violations) != len(b.Violations) {
		t.Fatalf("corruption sweep not deterministic:\n  first  %+v\n  second %+v", a, b)
	}
}

// TestSweepDeterministic: the same seed must produce the identical sweep
// — crash points, torn-tail count, rollbacks, and max dirty all equal.
func TestSweepDeterministic(t *testing.T) {
	cfg := Config{Seed: 42, Ops: 200, MaxCrashPoints: 12}
	a, err := Run(cfg)
	if err != nil {
		t.Fatalf("first run: %v", err)
	}
	b, err := Run(cfg)
	if err != nil {
		t.Fatalf("second run: %v", err)
	}
	if a.BaselineEvents != b.BaselineEvents || a.CrashPoints != b.CrashPoints ||
		a.TornTails != b.TornTails || a.Rollbacks != b.Rollbacks ||
		a.MaxDirtyAtCrash != b.MaxDirtyAtCrash || len(a.Violations) != len(b.Violations) {
		t.Fatalf("sweep not deterministic:\n  first  %+v\n  second %+v", a, b)
	}
}

// TestSweepHardwareAssist sweeps the §5.4 MMU-offload manager too: the
// durability invariant is mode-independent.
func TestSweepHardwareAssist(t *testing.T) {
	cfg := Config{Seed: 7, Ops: 250, MaxCrashPoints: 25, HardwareAssist: true}
	res, err := Run(cfg)
	if err != nil {
		t.Fatalf("sweep: %v", err)
	}
	if res.CrashPoints == 0 {
		t.Fatal("no crash points")
	}
	for _, v := range res.Violations {
		t.Errorf("violation: %s", v)
	}
}

// TestSweepExplicitStride pins the stride instead of deriving it.
func TestSweepExplicitStride(t *testing.T) {
	cfg := Config{Seed: 3, Ops: 150, Stride: 11, MaxCrashPoints: 10, Epoch: 500 * sim.Microsecond}
	res, err := Run(cfg)
	if err != nil {
		t.Fatalf("sweep: %v", err)
	}
	if res.Stride != 11 {
		t.Fatalf("stride %d, want 11", res.Stride)
	}
	if res.CrashPoints == 0 {
		t.Fatal("no crash points")
	}
	for _, v := range res.Violations {
		t.Errorf("violation: %s", v)
	}
}
