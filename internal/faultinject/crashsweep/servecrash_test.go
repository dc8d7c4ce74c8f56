package crashsweep

import (
	"math"
	"strings"
	"testing"
)

// The acceptance sweep: ≥200 crash points under ≥8 concurrent retrying
// clients, zero lost acks, zero double-applies, the journal's pages
// audited inside the dirty budget, and the rebuilt dedup table equal to
// the journal's committed prefix at every recovery.
func TestSweepServeCrash(t *testing.T) {
	if testing.Short() {
		t.Skip("full serve crash sweep is slow; run without -short")
	}
	res, err := RunServe(ServeConfig{Seed: 0x5EEDCAFE})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("baseline %d events, stride %d; %d crash points, %d completed runs",
		res.BaselineEvents, res.Stride, res.CrashPoints, res.Completed)
	t.Logf("acked %d mutations (%d client retries); in-doubt replayed %d (deduped %d, redone %d, fresh %d); acked-retry dedups %d; torn opens %d",
		res.AckedMutations, res.ClientRetries, res.InDoubtReplayed,
		res.ReplayDeduped, res.ReplayRedone, res.ReplayFresh,
		res.AckedRetryDedups, res.TornOpens)
	t.Logf("max dirty at crash %d pages; journal dirty at %d crash instants; journal bytes %d over mutation bytes %d (amplification %.2fx)",
		res.MaxDirtyAtCrash, res.JournalDirtyCrashes,
		res.JournalBytes, res.MutationBytes,
		float64(res.JournalBytes)/float64(res.MutationBytes))

	for _, v := range res.Violations {
		t.Errorf("step %d: %s", v.Step, v.Msg)
	}
	if res.CrashPoints < 200 {
		t.Errorf("only %d crash points, want ≥ 200", res.CrashPoints)
	}
	if clients := (ServeConfig{}).withDefaults().Clients; clients < 8 {
		t.Errorf("default sweep drives %d clients, want ≥ 8", clients)
	}
	if res.MaxDirtyAtCrash == 0 || res.MaxDirtyAtCrash > serveBudgetPages {
		t.Errorf("max dirty at crash = %d, want in (0, %d]", res.MaxDirtyAtCrash, serveBudgetPages)
	}
	// Evidence the sweep exercised the paths it claims to prove, not
	// just that nothing failed.
	if res.AckedMutations == 0 {
		t.Error("no mutation was ever acknowledged before a crash")
	}
	if res.InDoubtReplayed == 0 {
		t.Error("no crash ever caught a mutation in flight; the in-doubt replay path went untested")
	}
	if res.AckedRetryDedups == 0 {
		t.Error("no retry of an acknowledged mutation was absorbed by a recovered journal")
	}
	if res.ReplayRedone == 0 {
		t.Error("no crash ever landed between intent and result; the recovery redo path went untested")
	}
	if res.JournalDirtyCrashes == 0 {
		t.Error("no crash ever found a dirty journal page; budget accounting of the journal went unwitnessed")
	}
}

// A small always-on sweep so the exactly-once machinery is exercised on
// every `go test ./...`, -short included.
func TestSweepServeCrashQuick(t *testing.T) {
	res, err := RunServe(ServeConfig{
		Seed:           0xBEEF,
		Clients:        8,
		OpsPerClient:   12,
		MaxCrashPoints: 25,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range res.Violations {
		t.Errorf("step %d: %s", v.Step, v.Msg)
	}
	if res.CrashPoints < 25 {
		t.Errorf("only %d crash points, want ≥ 25", res.CrashPoints)
	}
	if res.AckedMutations == 0 {
		t.Error("quick sweep acknowledged no mutations")
	}
	t.Logf("quick: %d crash points, %d acked, %d in-doubt replayed, max dirty %d",
		res.CrashPoints, res.AckedMutations, res.InDoubtReplayed, res.MaxDirtyAtCrash)
}

// A negative count is an error before any run: a negative client count
// used to panic in makeslice, and a negative crash-point or op count ran
// no point at all and reported nothing violated. The single-goroutine
// sweep's sag fraction must lie in [0,1) too.
func TestLiveSweepsRejectNegativeCounts(t *testing.T) {
	for _, tc := range []struct {
		name string
		run  func() error
		want string
	}{
		{"run Ops", func() error { _, err := Run(Config{Ops: -1}); return err }, "Ops -1"},
		{"run MaxCrashPoints", func() error { _, err := Run(Config{MaxCrashPoints: -5}); return err }, "MaxCrashPoints -5"},
		{"run SagFraction NaN", func() error { _, err := Run(Config{SagFraction: math.NaN()}); return err }, "SagFraction NaN"},
		{"run SagFraction 1", func() error { _, err := Run(Config{SagFraction: 1}); return err }, "SagFraction 1"},
		{"run SagFraction -0.5", func() error { _, err := Run(Config{SagFraction: -0.5}); return err }, "SagFraction -0.5"},
		{"serve MaxCrashPoints", func() error { _, err := RunServe(ServeConfig{MaxCrashPoints: -1}); return err }, "MaxCrashPoints -1"},
		{"serve Clients", func() error { _, err := RunServe(ServeConfig{Clients: -2}); return err }, "Clients -2"},
		{"nested RecrashDepth", func() error { _, err := RunNested(NestedConfig{RecrashDepth: -1}); return err }, "RecrashDepth -1"},
		{"sensor OpsPerClient", func() error {
			_, err := RunSensor(SensorSweepConfig{Serve: ServeConfig{OpsPerClient: -3}})
			return err
		}, "OpsPerClient -3"},
		{"blackbox Clients", func() error { _, err := RunBlackBox(ServeConfig{Clients: -1}); return err }, "Clients -1"},
	} {
		err := tc.run()
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %v, want one naming %q", tc.name, err, tc.want)
		}
	}
}
