package crashsweep

import (
	"testing"

	"viyojit/internal/obs"
	"viyojit/internal/recovery"
)

// requireNestedClean asserts the sweep's hard invariants: zero
// violations of any kind, and dirty bounded by the budget in force at
// each crash depth.
func requireNestedClean(t *testing.T, res NestedResult) {
	t.Helper()
	for i, v := range res.Violations {
		if i >= 12 {
			t.Errorf("... and %d more", len(res.Violations)-i)
			break
		}
		t.Errorf("step %d: %s", v.Step, v.Msg)
	}
	if res.MaxDirtyAtCrash > serveBudgetPages {
		t.Errorf("outer MaxDirtyAtCrash %d exceeds budget %d", res.MaxDirtyAtCrash, serveBudgetPages)
	}
	if res.MaxDirtyAtInnerCrash > res.RecoveryBudget {
		t.Errorf("MaxDirtyAtInnerCrash %d exceeds recovery budget %d", res.MaxDirtyAtInnerCrash, res.RecoveryBudget)
	}
	if res.Fallbacks != 0 {
		t.Errorf("cursor fell back %d times; crash-atomic slot writes must never corrupt", res.Fallbacks)
	}
}

// TestSweepNestedCrash is ISSUE 8's acceptance run: 200 outer crash
// points under concurrent serving, each recovered through up to 3
// cascaded in-recovery re-crashes — half the points on a full recovery
// budget, half on one scaled to 0.5× (the sagged-battery regime) — with
// zero exactly-once violations, zero cursor regressions, and dirty ≤
// the current budget at every crash instant.
func TestSweepNestedCrash(t *testing.T) {
	if testing.Short() {
		t.Skip("nested sweep is heavy; run without -short")
	}
	reg := obs.NewRegistry()
	var total NestedResult
	total.InnerByPhase = make(map[string]int)
	for _, scale := range []float64{1.0, 0.5} {
		cfg := NestedConfig{
			ServeConfig:  ServeConfig{Seed: 0x5EED, MaxCrashPoints: 100},
			RecrashDepth: 3,
			BudgetScale:  scale,
			Obs:          reg,
		}
		res, err := RunNested(cfg)
		if err != nil {
			t.Fatalf("RunNested(scale=%v): %v", scale, err)
		}
		requireNestedClean(t, res)
		// The scale is of the battery's energy, and the fixed flush
		// overhead comes off the top: half of the 2 941 µs that back 8
		// pages of the slow device leaves 970 µs of transfer — 3 pages.
		wantBudget := map[float64]int{1.0: serveBudgetPages, 0.5: 3}[scale]
		if res.RecoveryBudget != wantBudget {
			t.Errorf("scale %v: recovery budget %d, want %d", scale, res.RecoveryBudget, wantBudget)
		}
		if res.CrashPoints != 100 {
			t.Errorf("scale %v: %d outer crashes, want 100", scale, res.CrashPoints)
		}
		// What the shared tail gives this mode: the journal's pages
		// witnessed inside the budget, and the rebuilt dedup table checked
		// against the record walk at every crashed run.
		if res.JournalDirtyCrashes == 0 {
			t.Errorf("scale %v: no outer crash ever found a dirty journal page", scale)
		}
		if res.TableCompares != res.CrashPoints {
			t.Errorf("scale %v: %d table compares over %d crashed runs", scale, res.TableCompares, res.CrashPoints)
		}
		total.CrashPoints += res.CrashPoints
		total.InnerCrashes += res.InnerCrashes
		total.Resumes += res.Resumes
		total.RedoneIntents += res.RedoneIntents
		total.AckedMutations += res.AckedMutations
		total.InDoubtReplayed += res.InDoubtReplayed
		for ph, n := range res.InnerByPhase {
			total.InnerByPhase[ph] += n
		}
		for i, n := range res.InnerByDepth {
			for len(total.InnerByDepth) <= i {
				total.InnerByDepth = append(total.InnerByDepth, 0)
			}
			total.InnerByDepth[i] += n
		}
	}

	// Evidence the sweep exercised the regimes it claims to cover.
	if total.InnerCrashes == 0 {
		t.Fatalf("no cascaded re-crashes fired; the nested sweep never crashed into recovery")
	}
	if len(total.InnerByDepth) < 2 || total.InnerByDepth[1] == 0 {
		t.Errorf("no point reached re-crash depth 2: depths %v", total.InnerByDepth)
	}
	for _, phase := range []recovery.Phase{recovery.PhaseRestore, recovery.PhaseWALReplay, recovery.PhaseIntentRedo, recovery.PhaseDrain} {
		if total.InnerByPhase[phase.String()] == 0 {
			t.Errorf("no re-crash struck the %v phase: %v", phase, total.InnerByPhase)
		}
	}
	if total.Resumes == 0 {
		t.Errorf("no recovery attempt ever resumed from the cursor")
	}
	if total.RedoneIntents == 0 {
		t.Errorf("no outer crash stranded an in-flight intent; the redo phase went unexercised")
	}
	if total.AckedMutations == 0 || total.InDoubtReplayed == 0 {
		t.Errorf("retry-stream evidence missing: acked %d, in-doubt %d", total.AckedMutations, total.InDoubtReplayed)
	}
	if got := reg.Counter("recovery_resumes_total").Value(); got != uint64(total.Resumes) {
		t.Errorf("recovery_resumes_total = %d, sweep counted %d", got, total.Resumes)
	}
	t.Logf("outer %d, inner %d (by depth %v, by phase %v), resumes %d, redone %d, acked %d",
		total.CrashPoints, total.InnerCrashes, total.InnerByDepth, total.InnerByPhase,
		total.Resumes, total.RedoneIntents, total.AckedMutations)
}

// TestSweepNestedQuick is the always-on smoke: a small sweep that still
// cascades, on a shrunken recovery budget.
func TestSweepNestedQuick(t *testing.T) {
	cfg := NestedConfig{
		ServeConfig:  ServeConfig{Seed: 0xD15EA5E, Clients: 4, OpsPerClient: 12, MaxCrashPoints: 12},
		RecrashDepth: 2,
		BudgetScale:  0.5,
	}
	res, err := RunNested(cfg)
	if err != nil {
		t.Fatalf("RunNested: %v", err)
	}
	requireNestedClean(t, res)
	if res.CrashPoints == 0 {
		t.Fatalf("quick nested sweep never crashed")
	}
	if res.InnerCrashes == 0 {
		t.Errorf("quick nested sweep never cascaded")
	}
}

// TestSweepNestedDeterministic re-runs a small sweep with the same seed
// and demands identical crash lattices and recovery evidence. Client
// goroutine interleaving varies, so ack-dependent counters may differ;
// the seeded machinery — stride, crash points, inner lattice, budget —
// must not.
func TestSweepNestedDeterministic(t *testing.T) {
	cfg := NestedConfig{
		ServeConfig:  ServeConfig{Seed: 0x0DDBA11, Clients: 4, OpsPerClient: 20, MaxCrashPoints: 8, Stride: 40},
		RecrashDepth: 2,
		BudgetScale:  0.5,
	}
	a, err := RunNested(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunNested(cfg)
	if err != nil {
		t.Fatal(err)
	}
	requireNestedClean(t, a)
	requireNestedClean(t, b)
	if a.Stride != b.Stride || a.RecoveryBudget != b.RecoveryBudget || a.CrashPoints != b.CrashPoints {
		t.Errorf("seeded lattice diverged: (%d,%d,%d) vs (%d,%d,%d)",
			a.Stride, a.RecoveryBudget, a.CrashPoints, b.Stride, b.RecoveryBudget, b.CrashPoints)
	}
}
