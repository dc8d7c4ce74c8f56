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
//     within a bounded virtual time per acked mutation of one with it
//     off — the price of always-on crash forensics is measured, not
//     assumed.
//
// The facade seals the recorder at the crash instant (before the battery
// flush) and quiesces it for a clean-shutdown drain: the flush's own
// bookkeeping — the dirty gauge collapsing, clean spans finishing —
// must not move the ring past the moment it is supposed to explain.
//
// Every function here is nil-safe on a run without a recorder, which is
// how the other modes pass through them.

import (
	"math"
	"reflect"

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
	rec := run.sys.BlackBox()
	if rec == nil {
		return nil
	}
	if mappingDirtyAt(run.sys, recorderName) {
		res.RecorderDirtyCrashes++
	}
	mgr := run.sys.Manager()
	return &bbOracle{
		dirty:   mgr.DirtyCount(),
		budget:  mgr.EffectiveDirtyBudget(),
		ladder:  mgr.HealthState(),
		lastSeq: rec.LastSeq(),
		drops:   rec.Dropped(),
	}
}

// auditBlackBoxWalk walks the post-flush ring and checks the forensic
// report against the oracle. A datum that aged out of the ring window
// (-1: its last gauge record was overwritten by newer traffic) is not
// comparable and is skipped; every datum still in the window must
// match exactly when the recorder shed nothing. It returns the report
// the ring was left holding.
func auditBlackBoxWalk(run *serveRun, o *bbOracle, res *ServeResult, fail failFunc) *blackbox.Report {
	if o == nil {
		return nil
	}
	rep, err := run.sys.BlackBoxReport()
	if err != nil {
		fail("blackbox walk: %v", err)
		return nil
	}
	w := rep.Walk
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
	// Drops or not, the ring is a witness to the budget bound: no point
	// of the recorded dirty trajectory may exceed what the battery was
	// provisioned to back (the health monitor retunes the budget as the
	// run goes, but only ever below that).
	for _, p := range rep.Dirty {
		if p.Value > serveBudgetPages {
			fail("blackbox dirty trajectory records %d pages at t=%d, above the provisioned budget %d", p.Value, p.At, serveBudgetPages)
			break
		}
	}
	if o.drops > 0 {
		res.ForensicDropped++
		return &rep
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
	return &rep
}

// auditRecoveredRing checks what RecoverWith made of the ring: the
// forensic report the recovered System hands out is the one the flush
// left on the SSD — the reboot's own boot bookkeeping overwrote no
// crash-instant slot before the walk — and its recorder continues the
// adopted sequence.
func auditRecoveredRing(rec *serveRun, left *blackbox.Report, fail failFunc) {
	if left == nil {
		return
	}
	got := rec.sys.Forensics()
	if got == nil || !reflect.DeepEqual(*got, *left) {
		fail("recovered forensic report diverges from the ring the flush left")
		return
	}
	if seq := rec.sys.BlackBox().LastSeq(); seq <= left.Walk.LastSeq {
		fail("recovered recorder at seq %d did not continue the adopted sequence %d", seq, left.Walk.LastSeq)
	}
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
	out.HealthyRecorderAppends, out.HealthyRecorderDrops = onRun.sys.BlackBox().LastSeq(), uint64(onRun.sys.BlackBox().Dropped())
	if out.HealthyOffNs > 0 && out.HealthyOnNs > 0 {
		gOff := float64(out.HealthyOffAcked) / float64(out.HealthyOffNs)
		gOn := float64(out.HealthyOnAcked) / float64(out.HealthyOnNs)
		out.GoodputDeltaFrac = math.Abs(gOn-gOff) / gOff
	}
	return out, nil
}
