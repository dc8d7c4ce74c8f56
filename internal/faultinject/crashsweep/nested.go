package crashsweep

// nested.go is the cascading-failure mode of the live-traffic sweep:
// where the other modes fail power exactly once and recover on a fully
// provisioned stack, RunNested crashes *into the recovery itself* — up
// to RecrashDepth cascaded re-crashes at seeded steps inside each outer
// crash point's recovery, with the recovery running on a possibly
// *sagged* battery (BudgetScale < 1: a repeated outage leaves less
// energy than the run that crashed, and every reboot of the cascade
// comes up on what the last one left). The loop is sweep.recoverStack;
// every attempt is System.RecoverWith followed by the restartable
// pipeline of serveRun.attach and serveRun.resolve, and the sweep
// audits, at every crash depth:
//
//  1. dirty ≤ the CURRENT budget at the crash instant, and that budget
//     no more than the surviving battery backs;
//  2. the re-crash's battery flush completes within that battery's
//     energy, and SSD = NV-DRAM after;
//  3. the persistent cursor never regresses across attempts
//     ((incarnation, attempt, phase, record) is monotone) and never
//     falls back to fresh — a torn cursor write must cost one write,
//     not the cursor;
//  4. once recovery finally completes, the same per-key exactly-once
//     oracle as every other mode: every acked mutation applied exactly
//     once, in-doubt ops land cleanly, retries dedup.

import "viyojit/internal/obs"

// NestedConfig parameterises a cascading-failure sweep.
type NestedConfig struct {
	ServeConfig
	// RecrashDepth is the maximum cascaded re-crashes injected inside
	// one outer crash point's recovery; 0 selects 3. The attempt after
	// the last allowed re-crash runs to completion unarmed. Each re-crash
	// arms at a step uniform over the attempt's own event space (see
	// recoverStack), so every armed step actually fires.
	RecrashDepth int
	// BudgetScale is the fraction of the battery's energy left for the
	// recovery (viyojit.RecoverOptions.BudgetScale): 1.0 recovers on the
	// whole battery, 0.5 on one that sagged to half between outages —
	// which backs 3 of the 8 pages, the fixed flush overhead coming off
	// the top. 0 selects 1.0.
	BudgetScale float64
	// Obs receives the recovery instruments (recovery_resumes_total,
	// recovery_redo_pages, recovery_budget_stalls, cursor counters)
	// accumulated across the whole sweep; nil records none.
	Obs *obs.Registry
}

// CascadeEvidence is what cascaded re-crashes add to a sweep's result.
// As with ServeResult, the counters let tests prove the sweep exercised
// each regime — crashes at every depth, in every phase, resumed
// attempts, shrunken budgets — not just that nothing failed.
type CascadeEvidence struct {
	// InnerCrashes totals cascaded re-crashes across all recoveries;
	// InnerByDepth[d-1] counts points that reached re-crash depth d;
	// InnerByPhase counts re-crashes by the recovery phase they struck.
	InnerCrashes int
	InnerByDepth []int
	InnerByPhase map[string]int
	// Resumes counts recovery attempts that found an unfinished
	// recovery in the cursor and resumed it; Fallbacks counts corrupt
	// cursors (always a violation in this sweep: crash-atomic slot
	// writes must never corrupt).
	Resumes   int
	Fallbacks int
	// RecoveryBudget is the dirty budget the surviving battery backs:
	// what every recovery of the sweep came up on.
	RecoveryBudget int
	// MaxDirtyAtInnerCrash is the largest dirty set at an in-recovery
	// crash instant (≤ RecoveryBudget unless a violation was recorded).
	MaxDirtyAtInnerCrash int
	// RedoneIntents totals the redo workload recovery replayed: for each
	// outer crash point, the max across its attempts of cursor-recorded
	// plus still-pending redos — an accounting that survives cascaded
	// crashes mid-replay, where the crashing attempt's own stats are
	// lost. RedoPages and BudgetStalls are the replay's
	// manager-accounted page admissions and forced cleans — the
	// budget-aware drain at work.
	RedoneIntents int
	RedoPages     uint64
	BudgetStalls  uint64
}

// NestedResult summarises a cascading-failure sweep: CrashPoints are
// the outer crashes, MaxDirtyAtCrash their largest dirty set.
type NestedResult struct {
	ServeResult
	CascadeEvidence
}

// RunNested executes the cascading-failure sweep: each armed run crashes
// mid-traffic and recovers through seeded cascaded re-crashes. Outer
// crash points and inner re-crash steps both derive from cfg.Seed.
func RunNested(cfg NestedConfig) (NestedResult, error) {
	m := mode{
		ServeConfig: cfg.ServeConfig,
		writeBW:     slowDevice, // where half the battery still backs pages
		cursorPages: 1,
		// The nested sweep exists to crash INTO recovery, and recovery's
		// redo phase only has work when the outer crash strands an
		// in-flight intent — which requires strike instants inside the
		// Begin→Complete window.
		commitMarkers: true,
		recrashDepth:  cfg.RecrashDepth,
		budgetScale:   cfg.BudgetScale,
		recoveryObs:   cfg.Obs,
	}
	if m.recrashDepth == 0 {
		m.recrashDepth = 3
	}
	sw := newSweep(m)
	err := sw.run()
	return NestedResult{ServeResult: sw.res, CascadeEvidence: sw.cascade}, err
}
