package crashsweep

// blackboxcrash.go closes the flight recorder's loop: the blackbox
// sweep is the live-traffic sweep with a budget-accounted black-box
// ring riding in every run, and three additional audits at every crash
// point:
//
//  1. the ring's pages sit INSIDE the dirty ≤ budget bound (the
//     recorder-dirty evidence counter witnesses they were dirty at
//     real crash instants, not incidentally clean);
//  2. the ring that survives the battery flush walks to a forensic
//     report matching the crash-instant oracle captured from the live
//     stack the moment before power failed — the adopted sequence
//     within one record of the recorder's last completed append, and
//     the report's dirty/budget/ladder verdicts equal to the
//     manager's own counters whenever the recorder shed nothing;
//  3. an identical un-crashed run with the recorder on completes
//     within a bounded goodput delta of one with it off — the price
//     of always-on crash forensics is measured, not assumed.
//
// The recorder is sealed at the crash instant (before the battery
// flush) and before any clean-shutdown drain: the flush's own
// bookkeeping — the dirty gauge collapsing, clean spans finishing —
// must not move the ring past the moment it is supposed to explain.
//
// Every function here is nil-safe on a run without a recorder, which is
// how the other modes pass through them.

import (
	"math"

	"viyojit/internal/blackbox"
	"viyojit/internal/core"
)

// bbOracle is the crash-instant truth captured from the live stack
// immediately before the battery flush — what the recovered forensic
// report has to reproduce from ring bytes alone.
type bbOracle struct {
	dirty   int
	budget  int
	ladder  core.HealthState
	lastSeq uint64
	drops   uint32
}

// captureBlackBoxOracle snapshots the oracle and counts the
// recorder-pages-dirty evidence. Returns nil when the run carries no
// recorder. Must run before the recorder is sealed and before the
// flush.
func captureBlackBoxOracle(run *serveRun, res *ServeResult) *bbOracle {
	if run.rec == nil {
		return nil
	}
	if mappingDirtyAt(run, run.bbM) {
		res.RecorderDirtyCrashes++
	}
	return &bbOracle{
		dirty:   run.mgr.DirtyCount(),
		budget:  run.mgr.EffectiveDirtyBudget(),
		ladder:  run.mgr.HealthState(),
		lastSeq: run.rec.LastSeq(),
		drops:   run.rec.Dropped(),
	}
}

// auditBlackBoxWalk walks the post-flush ring and checks the forensic
// report against the oracle. A datum that aged out of the ring window
// (-1: its last gauge record was overwritten by newer traffic) is not
// comparable and is skipped; every datum still in the window must
// match exactly when the recorder shed nothing.
func auditBlackBoxWalk(run *serveRun, o *bbOracle, res *ServeResult, fail failFunc) *blackbox.WalkResult {
	if run.rec == nil || o == nil {
		return nil
	}
	w, err := blackbox.ReadAndWalk(run.bbM)
	if err != nil {
		fail("blackbox walk: %v", err)
		return nil
	}
	res.RecorderAppends += w.LastSeq
	res.RecorderDrops += uint64(o.drops)
	// The sequence bound: the ring can be at most one record behind the
	// recorder's last completed append (a crash landing inside the
	// append's own page fault tears at most the slot being written) and
	// can never be ahead of it.
	if w.LastSeq > o.lastSeq {
		fail("blackbox ring adopted seq %d beyond the recorder's last completed append %d", w.LastSeq, o.lastSeq)
	}
	if w.LastSeq+1 < o.lastSeq {
		fail("blackbox ring adopted seq %d; recorder completed %d — more than one record lost", w.LastSeq, o.lastSeq)
	}
	rep := blackbox.BuildReport(w)
	// Drops or not, the ring is a witness to the budget bound: no point
	// of the recorded dirty trajectory may exceed the crash-instant
	// effective budget (the sweep never retunes it, so the bound is
	// constant over the run).
	for _, p := range rep.Dirty {
		if p.Value > int64(o.budget) {
			fail("blackbox dirty trajectory records %d pages at t=%d, above budget %d", p.Value, p.At, o.budget)
			break
		}
	}
	if o.drops > 0 {
		res.ForensicDropped++
		return &w
	}
	exact := true
	check := func(name string, got, want int64) {
		if got == -1 {
			exact = false // aged out of the window: nothing to compare
			return
		}
		if got != want {
			exact = false
			fail("forensic %s = %d diverges from crash-instant oracle %d", name, got, want)
		}
	}
	check("dirty", rep.CrashDirty, int64(o.dirty))
	check("budget", rep.CrashBudget, int64(o.budget))
	check("ladder", rep.FinalLadder, int64(o.ladder))
	if exact {
		res.ForensicExact++
	}
	return &w
}

// attachRecovered continues the crash ring on a recovered stack: the
// walk is adopted (sequence stays monotone across the reboot), the
// recovery itself is recorded, and only then is the registry teed in —
// the recovered manager's boot bookkeeping must not overwrite
// crash-instant slots before the walk happened.
func attachRecovered(st *serveRun, w *blackbox.WalkResult) {
	if st.rec == nil {
		return
	}
	if w != nil {
		st.rec.Adopt(*w)
		st.rec.Append(blackbox.KindRecover, 0, int64(w.LastSeq), int64(w.Torn), 0, 0)
	}
	st.reg.SetSink(st.rec)
}

// BlackBoxResult is RunBlackBox's verdict: the crash sweep plus the
// healthy-run overhead measurement.
type BlackBoxResult struct {
	Serve ServeResult
	// HealthyOffNs / HealthyOnNs are the virtual completion times of an
	// identical un-crashed run without / with the recorder; the acked
	// counts confirm the two runs did the same work.
	HealthyOffNs    int64
	HealthyOnNs     int64
	HealthyOffAcked uint64
	HealthyOnAcked  uint64
	// GoodputDeltaFrac is |goodput(on) − goodput(off)| / goodput(off),
	// goodput being acked mutations per virtual second.
	GoodputDeltaFrac float64
	// HealthyRecorderAppends / Drops are the recorder-on run's ring
	// traffic — the denominator of the overhead per record.
	HealthyRecorderAppends uint64
	HealthyRecorderDrops   uint64
}

// RunBlackBox executes the blackbox sweep: the full live-traffic crash
// sweep with a 2-page recorder in every run, then the recorder-on vs
// recorder-off healthy-overhead comparison.
func RunBlackBox(cfg ServeConfig) (BlackBoxResult, error) {
	var out BlackBoxResult
	sw := newSweep(mode{ServeConfig: cfg, bbPages: 2})
	err := sw.run()
	out.Serve = sw.res
	if err != nil {
		return out, err
	}

	// The healthy pair is one closed-loop client doing all the clients'
	// operations: with nothing concurrent, virtual time repeats exactly
	// from run to run, so the recorder's cost is a number, not a sample
	// from a distribution of goroutine interleavings. Each is a baseline
	// run: clean to the same standard, timed to the end of its final flush.
	on := sw.mode
	on.OpsPerClient *= on.Clients
	on.Clients = 1
	off := on
	off.bbPages = 0
	offRun, offTally, err := newSweep(off).baseline()
	if err != nil {
		return out, err
	}
	onRun, onTally, err := newSweep(on).baseline()
	if err != nil {
		return out, err
	}
	out.HealthyOffNs, out.HealthyOffAcked = int64(offRun.ended), offTally.AckedMutations
	out.HealthyOnNs, out.HealthyOnAcked = int64(onRun.ended), onTally.AckedMutations
	out.HealthyRecorderAppends, out.HealthyRecorderDrops = onRun.rec.LastSeq(), uint64(onRun.rec.Dropped())
	if out.HealthyOffNs > 0 && out.HealthyOnNs > 0 {
		gOff := float64(out.HealthyOffAcked) / float64(out.HealthyOffNs)
		gOn := float64(out.HealthyOnAcked) / float64(out.HealthyOnNs)
		out.GoodputDeltaFrac = math.Abs(gOn-gOff) / gOff
	}
	return out, nil
}
