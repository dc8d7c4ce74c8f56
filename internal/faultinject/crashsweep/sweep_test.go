package crashsweep

import (
	"os"
	"reflect"
	"strconv"
	"testing"

	"viyojit/internal/ssd"
)

// sweepSeed reads CRASHSWEEP_SEED, the CI matrix dimension; the test is
// skipped without it.
func sweepSeed(t *testing.T) uint64 {
	t.Helper()
	env := os.Getenv("CRASHSWEEP_SEED")
	if env == "" {
		t.Skip("set CRASHSWEEP_SEED to run the seed matrix")
	}
	seed, err := strconv.ParseUint(env, 0, 64)
	if err != nil {
		t.Fatalf("bad CRASHSWEEP_SEED %q: %v", env, err)
	}
	return seed
}

func requireClean(t *testing.T, seed uint64, res ServeResult, wantCrashes int) {
	t.Helper()
	for _, v := range res.Violations {
		t.Errorf("seed %#x step %d: %s", seed, v.Step, v.Msg)
	}
	if res.CrashPoints < wantCrashes {
		t.Errorf("seed %#x: only %d crash points, want ≥ %d", seed, res.CrashPoints, wantCrashes)
	}
}

// TestSweepSeedMatrix is the CI matrix entry point: CRASHSWEEP_SEED runs
// a moderate sweep of every mode under that seed, so each matrix job
// covers a different crash-point lattice, client schedule, re-crash
// lattice and gauge-fault schedule without new test code. CI selects one
// mode per job with -run 'TestSweepSeedMatrix/^<mode>'.
func TestSweepSeedMatrix(t *testing.T) {
	seed := sweepSeed(t)
	run := func(cfg Config) func(*testing.T) {
		cfg.Seed, cfg.MaxCrashPoints = seed, 60
		return func(t *testing.T) {
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
	}
	t.Run("run-plain", run(Config{}))
	t.Run("run-sag", run(Config{SagFraction: 0.5, SSD: ssd.Config{WriteBandwidth: 16 << 20}}))
	t.Run("run-corruption", run(Config{Corruption: true}))
	t.Run("serve", func(t *testing.T) {
		res, err := RunServe(ServeConfig{Seed: seed, MaxCrashPoints: 60})
		if err != nil {
			t.Fatal(err)
		}
		requireClean(t, seed, res, 60)
		t.Logf("seed %#x: %d crash points, %d acked, %d in-doubt replayed",
			seed, res.CrashPoints, res.AckedMutations, res.InDoubtReplayed)
	})
	t.Run("nested", func(t *testing.T) {
		res, err := RunNested(NestedConfig{
			ServeConfig:  ServeConfig{Seed: seed, MaxCrashPoints: 40},
			RecrashDepth: 3,
			BudgetScale:  0.5,
		})
		if err != nil {
			t.Fatalf("RunNested(seed=%#x): %v", seed, err)
		}
		requireNestedClean(t, res)
		if res.CrashPoints != 40 {
			t.Errorf("seed %#x: %d outer crashes, want 40", seed, res.CrashPoints)
		}
		if res.InnerCrashes == 0 {
			t.Errorf("seed %#x: no cascaded re-crashes", seed)
		}
	})
	t.Run("sensor", func(t *testing.T) {
		res, err := RunSensor(SensorSweepConfig{Serve: ServeConfig{Seed: seed, MaxCrashPoints: 60}})
		if err != nil {
			t.Fatal(err)
		}
		t.Logf("seed %#x: %d crash points, min fused/true %.3f, worst MTTD %v",
			seed, res.CrashPoints, res.MinFusedFraction, res.MaxMTTD)
		checkSensorResult(t, res, 60)
	})
	t.Run("blackbox", func(t *testing.T) {
		res, err := RunBlackBox(ServeConfig{Seed: seed, MaxCrashPoints: 60})
		if err != nil {
			t.Fatal(err)
		}
		logBlackBox(t, res)
		requireClean(t, seed, res.Serve, 60)
		if got := res.Serve.ForensicExact + res.Serve.ForensicDropped; got != res.Serve.CrashPoints {
			t.Errorf("seed %#x: forensic audits cover %d of %d crash points", seed, got, res.Serve.CrashPoints)
		}
	})
}

// TestSweepSingleClientPinned pins the deterministic slice of the
// live-traffic sweep. With one client nothing is concurrent, so a whole
// sweep — crash lattice, ack log, replay verdicts, cascade — repeats
// exactly; every mode runs twice and must report identical results, and
// the headline evidence must equal the values recorded when the sweeps
// moved onto viyojit.New and System.RecoverWith (before that the four
// stacks were wired by hand, with no monitor, scrubber or sensor on the
// queue: 6 / 167 / 72 / 7 baseline events). A change that moves them
// changed what the product's stack or its recovery pipeline do, event
// for event, and re-records them on purpose.
func TestSweepSingleClientPinned(t *testing.T) {
	cfg := ServeConfig{Seed: 0x51C1E, Clients: 1, OpsPerClient: 150, MaxCrashPoints: 12}
	type pin struct {
		events                 uint64
		crashes                int
		acked                  uint64
		inDoubt, redone        int
		innerCrashes, resumes  int
		redoneIntents, compare int
	}
	for _, tc := range []struct {
		name string
		run  func() (any, ServeResult, CascadeEvidence, error)
		want pin
	}{
		{"serve", func() (any, ServeResult, CascadeEvidence, error) {
			r, err := RunServe(cfg)
			return r, r, CascadeEvidence{}, err
		}, pin{events: 22, crashes: 12, acked: 333, inDoubt: 7, redone: 0, compare: 12}},
		{"nested", func() (any, ServeResult, CascadeEvidence, error) {
			r, err := RunNested(NestedConfig{ServeConfig: cfg, RecrashDepth: 2, BudgetScale: 0.5})
			return r, r.ServeResult, r.CascadeEvidence, err
		}, pin{events: 183, crashes: 12, acked: 506, inDoubt: 12, redone: 5, innerCrashes: 24, resumes: 14, redoneIntents: 12, compare: 12}},
		{"sensor", func() (any, ServeResult, CascadeEvidence, error) {
			r, err := RunSensor(SensorSweepConfig{Serve: cfg})
			return r, r.ServeResult, CascadeEvidence{}, err
		}, pin{events: 86, crashes: 12, acked: 508, inDoubt: 8, redone: 0, compare: 12}},
		{"blackbox", func() (any, ServeResult, CascadeEvidence, error) {
			r, err := RunBlackBox(cfg)
			return r, r.Serve, CascadeEvidence{}, err
		}, pin{events: 23, crashes: 12, acked: 311, inDoubt: 8, redone: 0, compare: 12}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			first, res, casc, err := tc.run()
			if err != nil {
				t.Fatal(err)
			}
			second, _, _, err := tc.run()
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(first, second) {
				t.Errorf("two single-client runs differ:\n first  %+v\n second %+v", first, second)
			}
			for _, v := range res.Violations {
				t.Errorf("step %d: %s", v.Step, v.Msg)
			}
			got := pin{
				events: res.BaselineEvents, crashes: res.CrashPoints, acked: res.AckedMutations,
				inDoubt: res.InDoubtReplayed, redone: res.ReplayRedone,
				innerCrashes: casc.InnerCrashes, resumes: casc.Resumes, redoneIntents: casc.RedoneIntents,
				compare: res.TableCompares,
			}
			if got != tc.want {
				t.Errorf("pinned evidence moved:\n got  %+v\n want %+v", got, tc.want)
			}
			if res.JournalDirtyCrashes == 0 {
				t.Error("no crash ever found a dirty journal page")
			}
		})
	}
}
