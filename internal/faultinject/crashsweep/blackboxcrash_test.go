package crashsweep

import "testing"

// checkHealthyPair asserts the recorder-off / recorder-on healthy runs on
// their exact virtual-time results. The pair is driven by one closed-loop
// client, so the numbers repeat from run to run and from host to host; a
// change that moves them changed the modelled system (cost model, serve
// path, recorder traffic) and re-records them on purpose.
func checkHealthyPair(t *testing.T, res BlackBoxResult, offNs, onNs int64, acked, appends uint64) {
	t.Helper()
	if res.HealthyOffAcked != acked || res.HealthyOnAcked != acked {
		t.Errorf("healthy runs acked %d (off) and %d (on) mutations, want %d each", res.HealthyOffAcked, res.HealthyOnAcked, acked)
	}
	if res.HealthyOffNs != offNs || res.HealthyOnNs != onNs {
		t.Errorf("healthy runs took %d ns (off) and %d ns (on) of virtual time, want %d and %d", res.HealthyOffNs, res.HealthyOnNs, offNs, onNs)
	}
	if res.HealthyRecorderAppends != appends {
		t.Errorf("healthy recorder-on run appended %d records, want %d", res.HealthyRecorderAppends, appends)
	}
	// The overhead bound, in absolute terms: always-on forensics costs at
	// most 1 µs of virtual time per acked mutation. (A share of goodput
	// would move whenever the op around the recorder got cheaper.)
	if perOp := (res.HealthyOnNs - res.HealthyOffNs) / int64(acked); perOp > 1000 {
		t.Errorf("recorder costs %d vns per acked mutation, want ≤ 1000", perOp)
	}
}

func logBlackBox(t *testing.T, res BlackBoxResult) {
	t.Helper()
	sw := res.Serve
	t.Logf("%d crash points, %d completed; forensic exact %d, drop-relaxed %d; recorder dirty at %d crashes; %d ring appends, %d shed",
		sw.CrashPoints, sw.Completed, sw.ForensicExact, sw.ForensicDropped,
		sw.RecorderDirtyCrashes, sw.RecorderAppends, sw.RecorderDrops)
	t.Logf("healthy: off %d ns / %d acked, on %d ns / %d acked, goodput delta %.4f (%d ring appends, %d shed)",
		res.HealthyOffNs, res.HealthyOffAcked, res.HealthyOnNs, res.HealthyOnAcked,
		res.GoodputDeltaFrac, res.HealthyRecorderAppends, res.HealthyRecorderDrops)
}

// The acceptance sweep: 200 power failures under concurrent YCSB-A
// serving, every one recovering a forensic report audited against the
// crash-instant oracle, the recorder's pages audited inside the dirty
// budget, and the healthy-run overhead of the always-on recorder
// bounded at 1 µs per acked mutation (and pinned to its exact value).
func TestSweepBlackBox(t *testing.T) {
	if testing.Short() {
		t.Skip("full blackbox crash sweep is slow; run without -short")
	}
	res, err := RunBlackBox(ServeConfig{Seed: 0xB1AC_B0C5})
	if err != nil {
		t.Fatal(err)
	}
	logBlackBox(t, res)
	for _, v := range res.Serve.Violations {
		t.Errorf("step %d: %s", v.Step, v.Msg)
	}
	if res.Serve.CrashPoints < 200 {
		t.Errorf("only %d crash points, want ≥ 200", res.Serve.CrashPoints)
	}
	// Every crashed run with a drop-free ring must have audited exactly;
	// together the two buckets must cover every crash point.
	if got := res.Serve.ForensicExact + res.Serve.ForensicDropped; got != res.Serve.CrashPoints {
		t.Errorf("forensic audits cover %d of %d crash points", got, res.Serve.CrashPoints)
	}
	// Evidence the audits bit on real state, not vacuous rings.
	if res.Serve.ForensicExact == 0 {
		t.Error("no crash ever audited an exact forensic match; the oracle comparison went untested")
	}
	if res.Serve.RecorderDirtyCrashes == 0 {
		t.Error("no crash ever found a dirty recorder page; budget accounting of the ring went unwitnessed")
	}
	if res.Serve.RecorderAppends == 0 {
		t.Error("the recorder never appended during crashed runs")
	}
	checkHealthyPair(t, res, 8717108, 8882804, 202, 39) // 820 vns per acked mutation
}

// A small always-on sweep so the forensic audit machinery runs on every
// `go test ./...`, -short included.
func TestSweepBlackBoxQuick(t *testing.T) {
	res, err := RunBlackBox(ServeConfig{
		Seed:           0xB1AC,
		Clients:        8,
		OpsPerClient:   12,
		MaxCrashPoints: 25,
	})
	if err != nil {
		t.Fatal(err)
	}
	logBlackBox(t, res)
	for _, v := range res.Serve.Violations {
		t.Errorf("step %d: %s", v.Step, v.Msg)
	}
	if res.Serve.CrashPoints < 25 {
		t.Errorf("only %d crash points, want ≥ 25", res.Serve.CrashPoints)
	}
	if got := res.Serve.ForensicExact + res.Serve.ForensicDropped; got != res.Serve.CrashPoints {
		t.Errorf("forensic audits cover %d of %d crash points", got, res.Serve.CrashPoints)
	}
	checkHealthyPair(t, res, 2174346, 2202697, 49, 16) // 578 vns per acked mutation
}
