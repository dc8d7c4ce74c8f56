package crashsweep

import (
	"testing"

	"viyojit/internal/sim"
)

func checkSensorResult(t *testing.T, res SensorSweepResult, wantCrashes int) {
	t.Helper()
	for _, v := range res.Violations {
		t.Errorf("step %d: %s", v.Step, v.Msg)
	}
	if res.CrashPoints < wantCrashes {
		t.Errorf("only %d crash points, want ≥ %d", res.CrashPoints, wantCrashes)
	}
	if res.EmergencyEnters != 0 {
		t.Errorf("%d spurious emergency escalations; conservative fusion should never zero this budget", res.EmergencyEnters)
	}
	// Evidence the sweep exercised what it claims: gauges actually
	// lied, the fused layer actually rejected readings, the budget
	// actually moved, and the fusion actually fell back to a single
	// usable estimator somewhere.
	if res.Episodes["lie-high"] == 0 {
		t.Error("no lie-high episode ever ran; the headline fault went untested")
	}
	if res.Episodes["dropout"] == 0 {
		t.Error("no dropout episode ever ran")
	}
	if res.Detections["bounds"]+res.Detections["rate"] == 0 {
		t.Error("no over-report was ever rejected")
	}
	if res.Detections["stale"] == 0 {
		t.Error("the staleness watchdog never fired")
	}
	if res.Retunes == 0 {
		t.Error("the budget never moved; telemetry was not actually driving it")
	}
	if res.SoloSamples == 0 {
		t.Error("fusion never degraded to a single estimator; the solo-margin bound went unwitnessed")
	}
	if res.MinFusedFraction > 0.99 {
		t.Errorf("min fused/true fraction %.3f; the estimate never turned conservative", res.MinFusedFraction)
	}
	if res.MinFusedFraction < 0.25 {
		t.Errorf("min fused/true fraction %.3f; under-reporting deeper than any configured fault explains", res.MinFusedFraction)
	}
	if res.AckedMutations == 0 {
		t.Error("no mutation was ever acknowledged before a crash")
	}
	// What the shared tail gives this mode: the journal's pages witnessed
	// inside the fused-derived budget, and the rebuilt dedup table checked
	// against the record walk at every crashed run.
	if res.JournalDirtyCrashes == 0 {
		t.Error("no crash ever found a dirty journal page")
	}
	if res.TableCompares != res.CrashPoints {
		t.Errorf("%d table compares over %d crashed runs", res.TableCompares, res.CrashPoints)
	}
	// MTTD ceilings per audited class (auditMTTD already enforced the
	// per-episode deadline; this pins the observed worst case in the
	// result for the experiment tables).
	interval := 50 * sim.Microsecond
	bounds := map[string]sim.Duration{
		"lie-high": 2 * interval,
		"spike":    2 * interval,
		"drift":    3 * interval,
		"dropout":  interval*5/2 + 3*interval,
	}
	for class, worst := range res.MaxMTTD {
		if bound, ok := bounds[class]; ok && worst > bound {
			t.Errorf("%s worst MTTD %v exceeds %v", class, worst, bound)
		}
	}
}

// The acceptance sweep: 200 seeded power failures under concurrent
// YCSB-A serving with the voltage gauge lying up to 50% high — zero
// flushes exceeding true remaining energy, dirty within the
// fused-derived budget at every sample, bounded detection latency per
// fault class, and the exactly-once serving oracle intact.
func TestSweepSensorCrash(t *testing.T) {
	if testing.Short() {
		t.Skip("full sensor crash sweep is slow; run without -short")
	}
	res, err := RunSensor(SensorSweepConfig{Serve: ServeConfig{Seed: 0x5E45_0FA1}})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("baseline %d events, stride %d; %d crash points, %d completed runs; max dirty at crash %d",
		res.BaselineEvents, res.Stride, res.CrashPoints, res.Completed, res.MaxDirtyAtCrash)
	t.Logf("episodes %v; detections %v; worst MTTD %v", res.Episodes, res.Detections, res.MaxMTTD)
	t.Logf("min fused/true %.3f; %d retunes, %d solo samples, %d blind samples, %d acked mutations",
		res.MinFusedFraction, res.Retunes, res.SoloSamples, res.BlindSamples, res.AckedMutations)
	checkSensorResult(t, res, 200)
}

// A small always-on sweep so the telemetry chain is crash-tested on
// every `go test ./...`, -short included.
func TestSweepSensorCrashQuick(t *testing.T) {
	res, err := RunSensor(SensorSweepConfig{Serve: ServeConfig{
		Seed:           0xFA57,
		Clients:        8,
		OpsPerClient:   12,
		MaxCrashPoints: 20,
	}})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("quick: %d crash points, min fused/true %.3f, episodes %v",
		res.CrashPoints, res.MinFusedFraction, res.Episodes)
	checkSensorResult(t, res, 20)
}
