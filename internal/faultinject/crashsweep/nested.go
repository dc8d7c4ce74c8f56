// nested.go is the cascading-failure sweep: where servecrash.go fails
// power exactly once and recovers on a fresh, fully-provisioned stack,
// RunNested crashes *into the recovery itself* — up to RecrashDepth
// cascaded re-crashes at seeded event steps inside each outer crash
// point's recovery, with the recovery running on a possibly *shrunken*
// dirty budget (BudgetScale < 1: the sagged-battery regime where a
// repeated outage leaves less energy than the run that crashed).
//
// Each recovery attempt follows the restartable pipeline:
//
//	seed durable set → restore region (volatile, re-run every attempt)
//	→ open persistent cursor, BeginRecovery(recovery budget)
//	→ reopen heap/store/journal (WAL replay: rebuild volatile tables)
//	→ serve.ReplayPendingWith (intent redo: durable, cursor-recorded
//	  per record, budget-drained incrementally)
//	→ emergency drain to a clean durable state → cursor Finish
//
// and the sweep audits, at every crash depth:
//
//  1. dirty ≤ the CURRENT (scaled) budget at the crash instant;
//  2. the re-crash's battery flush completes within the energy
//     provisioned for that scaled budget, and SSD = NV-DRAM after;
//  3. the persistent cursor never regresses across attempts
//     ((incarnation, attempt, phase, record) is monotone) and never
//     falls back to fresh — a torn cursor write must cost one write,
//     not the cursor;
//  4. once recovery finally completes, the same per-key exactly-once
//     oracle as the single-crash sweep: every acked mutation applied
//     exactly once, in-doubt ops land cleanly, retries dedup.
//
// The durable-source discipline matters: each attempt seeds the ENTIRE
// durable page set into its fresh SSD before restoring a single page,
// so a crash mid-restore leaves the next attempt a complete durable
// source — restore is re-runnable precisely because it never consumes
// what it restores from.
package crashsweep

import (
	"fmt"

	"viyojit/internal/core"
	"viyojit/internal/faultinject"
	"viyojit/internal/intent"
	"viyojit/internal/kvstore"
	"viyojit/internal/nvdram"
	"viyojit/internal/obs"
	"viyojit/internal/pheap"
	"viyojit/internal/power"
	"viyojit/internal/recovery"
	"viyojit/internal/serve"
	"viyojit/internal/sim"
	"viyojit/internal/ssd"
)

// NestedConfig parameterises a cascading-failure sweep.
type NestedConfig struct {
	ServeConfig
	// RecrashDepth is the maximum cascaded re-crashes injected inside
	// one outer crash point's recovery; 0 selects 3. The attempt after
	// the last allowed re-crash runs to completion unarmed.
	RecrashDepth int
	// BudgetScale scales the recovery dirty budget relative to the
	// serving BudgetPages (floored at one page): 1.0 recovers on a
	// fresh battery, 0.5 on one that sagged to half between outages.
	// 0 selects 1.0.
	BudgetScale float64
	// InnerSpan bounds the seeded in-recovery crash step: each re-crash
	// arms at a step uniform in [1, InnerSpan]. 0 (the default)
	// calibrates the span per attempt by running an unarmed shadow
	// attempt first — attempts never mutate their durable source, so
	// the shadow is free — which makes every armed step actually fire
	// and spreads re-crashes across all phases (restore dominates the
	// step count; redo and drain sit at the tail). A fixed span may arm
	// past the attempt's last event, completing the recovery instead.
	InnerSpan uint64
	// Obs receives the recovery instruments (recovery_resumes_total,
	// recovery_redo_pages, recovery_budget_stalls, cursor counters)
	// accumulated across the whole sweep; nil uses a private registry.
	Obs *obs.Registry
}

func (c NestedConfig) withDefaults() NestedConfig {
	c.ServeConfig = c.ServeConfig.withDefaults()
	if c.CursorPages == 0 {
		c.CursorPages = 1
	}
	// The nested sweep exists to crash INTO recovery, and recovery's
	// redo phase only has work when the outer crash strands an
	// in-flight intent — which requires strike instants inside the
	// Begin→Complete window.
	c.CommitMarkers = true
	if c.RecrashDepth == 0 {
		c.RecrashDepth = 3
	}
	if c.BudgetScale == 0 {
		c.BudgetScale = 1.0
	}
	return c
}

// NestedResult summarises a cascading-failure sweep. As with
// ServeResult, the evidence counters let tests prove the sweep
// exercised each regime — crashes at every depth, in every phase,
// resumed attempts, shrunken budgets — not just that nothing failed.
type NestedResult struct {
	BaselineEvents uint64
	Stride         uint64
	// OuterCrashes counts runs that power-failed mid-traffic; Completed
	// counts armed runs whose step was never reached.
	OuterCrashes int
	Completed    int
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
	// RecoveryBudget is the scaled dirty budget recoveries ran under.
	RecoveryBudget int
	// MaxDirtyAtCrash / MaxDirtyAtInnerCrash are the largest dirty sets
	// at outer / in-recovery crash instants (≤ their respective budgets
	// unless a violation was recorded).
	MaxDirtyAtCrash      int
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
	// Retry-stream evidence, as in ServeResult.
	AckedMutations   uint64
	InDoubtReplayed  int
	ReplayDeduped    int
	ReplayFresh      int
	AckedRetryDedups int
	Violations       []Violation
}

// nestedAttempt is one recovery attempt's carcass: whatever was built
// before the attempt completed or a cascaded crash unwound it.
type nestedAttempt struct {
	run    *serveRun // complete stack; nil if the attempt crashed
	dev    *ssd.SSD  // always set: the next attempt's durable source
	mgr    *core.Manager
	cursor *recovery.Cursor
	phase  recovery.Phase // live phase at the crash instant
	replay serve.ReplayStats
	fired  uint64 // events the attempt fired (its crash-step space)
	// startRec and pending snapshot the redo workload the instant the
	// journal reopens: startRec is the cursor's durably-recorded redo
	// count entering this attempt, pending what the journal still holds
	// in flight. startRec+pending bounds the incarnation's total redo
	// work from below even when a cascaded crash later discards
	// att.replay — the sweep's redo accounting survives crashed
	// attempts by taking the max across them.
	startRec uint64
	pending  int
}

// marker schedules and fires a no-op event: a crash point. Restore and
// table-rebuild phases do no event-queue work of their own, so the
// sweep plants one marker per unit of work to give the Crasher
// somewhere to strike.
func marker(clock *sim.Clock, events *sim.Queue) {
	events.Schedule(clock.Now(), func(sim.Time) {})
	events.RunUntil(clock, clock.Now())
}

// recoverNestedAttempt runs one restartable recovery attempt over the
// durable pages of prev, under the scaled budget, with a crash armed at
// armStep (0 = unarmed). It returns the attempt carcass and whether the
// armed crash fired.
func recoverNestedAttempt(cfg NestedConfig, prev *ssd.SSD, regionSize int64, recBudget int, armStep uint64, reg *obs.Registry) (*nestedAttempt, bool, error) {
	att := &nestedAttempt{phase: recovery.PhaseRestore}
	clock := sim.NewClock()
	events := sim.NewQueue()
	crasher := faultinject.NewCrasher(events)
	if armStep > 0 {
		crasher.ArmAt(armStep)
	}
	var buildErr error
	_, crashed := crasher.Run(func() {
		buildErr = att.build(cfg, clock, events, prev, regionSize, recBudget, reg)
	})
	crasher.Disarm()
	att.fired = events.Fired()
	if buildErr != nil && !crashed {
		return att, false, buildErr
	}
	return att, crashed, nil
}

func (att *nestedAttempt) build(cfg NestedConfig, clock *sim.Clock, events *sim.Queue, prev *ssd.SSD, regionSize int64, recBudget int, reg *obs.Registry) error {
	st := &serveRun{cfg: cfg.ServeConfig, clock: clock, events: events}
	var err error
	st.region, err = nvdram.New(clock, nvdram.Config{Size: regionSize})
	if err != nil {
		return err
	}
	st.dev = ssd.New(clock, events, cfg.SSD)
	att.dev = st.dev

	// Seed the complete durable set BEFORE restoring anything: if the
	// restore below is cut down by a cascaded crash, att.dev must still
	// be a whole durable source for the next attempt.
	pages := prev.DurablePageList()
	for _, page := range pages {
		if err := st.dev.AdoptVerified(prev, page); err != nil {
			return err
		}
	}
	// Region restore: volatile effects, re-run every attempt. One
	// marker per streamed page puts crash points inside the phase.
	stream := st.dev.OpenReadStream(clock)
	for _, page := range pages {
		if _, err := st.region.RestorePageFrom(stream, page); err != nil {
			return err
		}
		marker(clock, events)
	}

	st.mgr, err = core.NewManager(clock, events, st.region, st.dev, core.Config{
		DirtyBudgetPages: recBudget,
		Epoch:            cfg.Epoch,
	})
	if err != nil {
		return err
	}
	att.mgr = st.mgr
	// Same names, sizes, order as buildServe: the first-fit allocator's
	// recovery contract.
	if st.heapM, err = st.mgr.Map("heap", int64(cfg.HeapPages)*pageSize); err != nil {
		return err
	}
	if st.jM, err = st.mgr.Map("intent", int64(cfg.JournalPages)*pageSize); err != nil {
		return err
	}
	if st.curM, err = st.mgr.Map("cursor", int64(cfg.CursorPages)*pageSize); err != nil {
		return err
	}

	// The cursor is only readable once its region pages are restored —
	// which is why restore is a volatile phase the cursor cannot cover.
	if st.cursor, err = recovery.OpenCursor(st.curM, reg); err != nil {
		return err
	}
	att.cursor = st.cursor
	prog, _, err := st.cursor.BeginRecovery(recBudget)
	if err != nil {
		return err
	}
	att.startRec = prog.Record
	marker(clock, events)

	att.phase = recovery.PhaseWALReplay
	if err := st.cursor.Advance(recovery.PhaseWALReplay, prog.Record); err != nil {
		return err
	}
	heap, err := pheap.Open(st.heapM)
	if err != nil {
		return fmt.Errorf("reopening heap: %w", err)
	}
	marker(clock, events)
	if st.store, err = kvstore.Open(heap); err != nil {
		return fmt.Errorf("reopening store: %w", err)
	}
	marker(clock, events)
	if st.journal, err = intent.Open(st.jM, nil); err != nil {
		return fmt.Errorf("reopening journal: %w", err)
	}
	att.pending = len(st.journal.Pending())
	marker(clock, events)

	att.phase = recovery.PhaseIntentRedo
	att.replay, err = serve.ReplayPendingWith(st.store, st.journal, serve.ReplayOptions{
		Cursor: st.cursor,
		Mgr:    st.mgr,
		Obs:    reg,
		// The redo loop does no event-queue work of its own when the
		// budget never forces a clean; these markers make both redo
		// crash windows (completed-but-uncursored, cursor-advanced)
		// reachable by the step-armed Crasher.
		Step: func() { marker(clock, events) },
	})
	if err != nil {
		return err
	}

	att.phase = recovery.PhaseDrain
	if err := st.cursor.Advance(recovery.PhaseDrain, st.cursor.Progress().Record); err != nil {
		return err
	}
	// Drain the re-dirtied set so recovery hands over a clean durable
	// state: a re-crash right after recovery must have nothing to lose.
	if left := st.mgr.EnterEmergencyFlush(); left != 0 {
		return fmt.Errorf("recovery drain left %d dirty pages", left)
	}
	if err := st.mgr.Resume(core.StateHealthy); err != nil {
		return err
	}
	if err := st.cursor.Finish(); err != nil {
		return err
	}
	att.phase = recovery.PhaseDone

	// Serving resumes on the full budget: the scaled figure was the
	// recovery's constraint, not the recharged steady state's.
	if err := st.mgr.SetDirtyBudget(cfg.BudgetPages); err != nil {
		return err
	}
	if st.srv, err = serve.New(clock, events, st.mgr, st.store, serve.Config{Journal: st.journal}); err != nil {
		return err
	}
	att.run = st
	return nil
}

// runNestedPoint executes one outer crash point: serve, crash, flush,
// then recover through up to RecrashDepth cascaded re-crashes, then
// verify the survivor stack against the retry streams and the oracle.
func runNestedPoint(cfg NestedConfig, step uint64, innerRNG *sim.RNG, keys [][]byte, reg *obs.Registry, res *NestedResult) error {
	run, err := buildServe(cfg.ServeConfig)
	if err != nil {
		return err
	}
	crasher := faultinject.NewCrasher(run.events)
	crasher.ArmAt(step)
	if err := run.srv.Start(); err != nil {
		return err
	}
	var logs []*clientLog
	crasher.Run(func() {
		logs = driveClients(cfg.ServeConfig, run.srv, keys)
		run.srv.Stop()
		if _, crashed := crasher.Crashed(); !crashed {
			run.mgr.FlushAll()
		}
	})
	cp, crashed := crasher.Crashed()
	crasher.Disarm()

	var out []Violation
	fail := func(format string, args ...any) {
		out = append(out, Violation{Step: cp.Step, Msg: fmt.Sprintf(format, args...)})
	}
	defer func() { res.Violations = append(res.Violations, out...) }()
	for _, lg := range logs {
		if lg.err != nil {
			fail("client error: %v", lg.err)
		}
		res.AckedMutations += uint64(len(lg.acked))
	}

	if !crashed {
		for _, lg := range logs {
			if lg.inDoubt != nil {
				fail("clean run left client %d seq %d unacknowledged", lg.id, lg.inDoubt.seq)
			}
		}
		if err := run.mgr.VerifyDurability(); err != nil {
			fail("clean-run durability: %v", err)
		}
		checkOracle(run.store, keys, oracleExpect(logs, nil), fail)
		run.mgr.Close()
		res.Completed++
		return nil
	}
	res.OuterCrashes++

	// Outer crash: full serving budget, full provisioned energy.
	pm := power.Default()
	dirty, budget := run.mgr.DirtyCount(), run.mgr.EffectiveDirtyBudget()
	if dirty > res.MaxDirtyAtCrash {
		res.MaxDirtyAtCrash = dirty
	}
	if dirty > budget {
		fail("dirty count %d exceeds effective budget %d at outer crash", dirty, budget)
	}
	report := run.mgr.PowerFail(pm, flushEnergy(Config{BudgetPages: cfg.BudgetPages}, run.dev, pm, run.region.Size()))
	if !report.Survived {
		fail("outer flush of %d pages used %.3f J of %.3f J provisioned",
			report.DirtyAtFailure, report.EnergyUsedJoules, report.EnergyAvailableJoules)
	}
	if err := run.mgr.VerifyDurability(); err != nil {
		fail("outer durability: %v", err)
	}

	// The cascading-recovery loop. Each iteration is one attempt; a
	// cascaded crash flushes on the scaled budget's energy and hands the
	// next attempt its SSD as the durable source.
	recBudget := int(cfg.BudgetScale * float64(cfg.BudgetPages))
	if recBudget < 1 {
		recBudget = 1
	}
	res.RecoveryBudget = recBudget
	regionSize := run.region.Size()
	prev := run.dev
	var lastCursor recovery.Progress
	haveCursor := false
	var rec *serveRun
	// pointRedo is this incarnation's redo workload, taken as a max
	// across attempts: a cascaded crash mid-replay discards att.replay,
	// but every attempt that reaches the journal reopen observes
	// startRec+pending, and every attempt that finishes its replay
	// observes StartRecord+Redone.
	pointRedo := 0
	for depth := 0; ; {
		armAt := uint64(0)
		if depth < cfg.RecrashDepth {
			span := cfg.InnerSpan
			if span == 0 {
				// Calibrate: an unarmed shadow attempt counts this
				// depth's event space. Attempts seed their own SSD and
				// never write to prev, so the shadow leaves no trace;
				// the real attempt below replays the identical
				// single-goroutine schedule, so an arm in [1, fired]
				// is guaranteed to strike.
				shadow, _, serr := recoverNestedAttempt(cfg, prev, regionSize, recBudget, 0, nil)
				if serr != nil {
					fail("shadow recovery at depth %d: %v", depth, serr)
					return nil
				}
				span = shadow.fired
			}
			if span == 0 {
				span = 1
			}
			armAt = 1 + innerRNG.Uint64()%span
		}
		att, acrashed, aerr := recoverNestedAttempt(cfg, prev, regionSize, recBudget, armAt, reg)
		if aerr != nil {
			fail("recovery attempt at depth %d: %v", depth, aerr)
			return nil
		}

		// Cursor accounting and the monotonicity oracle. The cursor
		// object's Progress is its last durable write: every Advance
		// lands a page-atomic slot write through the budget-accounted
		// mapping, and the flush below makes it durable.
		if att.cursor != nil {
			if att.cursor.Resumed() {
				res.Resumes++
			}
			if att.cursor.FellBack() {
				res.Fallbacks++
				fail("cursor fell back to fresh at depth %d: slot writes must be crash-atomic", depth)
			}
			p := att.cursor.Progress()
			if haveCursor && p.Less(lastCursor) {
				fail("cursor regressed at depth %d: %+v -> %+v", depth, lastCursor, p)
			}
			lastCursor, haveCursor = p, true
		}
		if n := int(att.startRec) + att.pending; n > pointRedo {
			pointRedo = n
		}
		if n := int(att.replay.StartRecord) + att.replay.Redone; n > pointRedo {
			pointRedo = n
		}
		res.RedoPages += att.replay.PagesDirtied
		res.BudgetStalls += att.replay.BudgetStalls

		if !acrashed {
			rec = att.run
			break
		}
		depth++
		res.InnerCrashes++
		for len(res.InnerByDepth) < depth {
			res.InnerByDepth = append(res.InnerByDepth, 0)
		}
		res.InnerByDepth[depth-1]++
		res.InnerByPhase[att.phase.String()]++

		// The audits at the in-recovery crash instant: dirty ≤ the
		// SCALED budget, and the flush fits the scaled energy.
		if att.mgr != nil {
			d := att.mgr.DirtyCount()
			if d > res.MaxDirtyAtInnerCrash {
				res.MaxDirtyAtInnerCrash = d
			}
			if d > recBudget {
				fail("dirty count %d exceeds recovery budget %d at depth-%d crash (phase %v)", d, recBudget, depth, att.phase)
			}
			rep := att.mgr.PowerFail(pm, flushEnergy(Config{BudgetPages: recBudget}, att.dev, pm, regionSize))
			if !rep.Survived {
				fail("depth-%d flush of %d pages used %.3f J of %.3f J (recovery budget %d)",
					depth, rep.DirtyAtFailure, rep.EnergyUsedJoules, rep.EnergyAvailableJoules, recBudget)
			}
			if err := att.mgr.VerifyDurability(); err != nil {
				fail("depth-%d durability: %v", depth, err)
			}
		}
		prev = att.dev
	}
	res.RedoneIntents += pointRedo

	// The survivor: rebuilt dedup table must equal the record walk, and
	// the retry streams must land exactly once on the oracle.
	walked, walkTorn, err := intent.RebuildTable(rec.jM)
	if err != nil {
		fail("record walk: %v", err)
	} else {
		if walkTorn != rec.journal.TornOpen() {
			fail("torn-tail verdicts diverge: Open %v, record walk %v", rec.journal.TornOpen(), walkTorn)
		}
		compareTables(rec.journal.Snapshot(), walked, fail)
	}
	tally, err := replayRetryStreams(rec, logs, keys, fail)
	if err != nil {
		return err
	}
	res.InDoubtReplayed += tally.inDoubt
	res.ReplayDeduped += tally.deduped
	res.ReplayFresh += tally.fresh
	res.AckedRetryDedups += tally.ackedDedups
	checkOracle(rec.store, keys, oracleExpect(logs, tally.replayed), fail)
	rec.mgr.Close()
	return nil
}

// RunNested executes the cascading-failure sweep: an un-crashed
// calibration run sizes the outer step lattice, then each armed run
// crashes mid-traffic and recovers through seeded cascaded re-crashes.
// Outer crash points and inner re-crash steps both derive from
// cfg.Seed; as with RunServe, goroutine interleaving makes the serving
// half non-bit-replayable, so every invariant is checked against the
// run's own ack log.
func RunNested(cfg NestedConfig) (NestedResult, error) {
	cfg = cfg.withDefaults()
	res := NestedResult{InnerByPhase: make(map[string]int)}
	reg := cfg.Obs
	if reg == nil {
		reg = obs.NewRegistry()
	}
	keys := makeKeys(cfg.Keys)

	base, err := buildServe(cfg.ServeConfig)
	if err != nil {
		return res, err
	}
	if err := base.srv.Start(); err != nil {
		return res, err
	}
	logs := driveClients(cfg.ServeConfig, base.srv, keys)
	base.srv.Stop()
	res.BaselineEvents = base.events.Fired()
	for _, lg := range logs {
		if lg.err != nil {
			return res, fmt.Errorf("crashsweep: nested baseline client: %w", lg.err)
		}
		if lg.inDoubt != nil {
			return res, fmt.Errorf("crashsweep: nested baseline left client %d seq %d unacked", lg.id, lg.inDoubt.seq)
		}
	}
	base.mgr.FlushAll()
	base.mgr.Close()
	if res.BaselineEvents == 0 {
		return res, fmt.Errorf("crashsweep: nested baseline fired no events")
	}

	stride := cfg.Stride
	if stride == 0 {
		stride = res.BaselineEvents / uint64(cfg.MaxCrashPoints)
		if stride == 0 {
			stride = 1
		}
	}
	res.Stride = stride
	innerRNG := sim.NewRNG(cfg.Seed ^ 0x4E5E57ED)

	maxAttempts := 4 * cfg.MaxCrashPoints
	for i := 1; res.OuterCrashes < cfg.MaxCrashPoints && i <= maxAttempts; i++ {
		step := uint64(i) * stride
		if step > res.BaselineEvents {
			pass := step / res.BaselineEvents
			step = step%res.BaselineEvents + pass
			if step == 0 {
				step = 1
			}
		}
		if err := runNestedPoint(cfg, step, innerRNG, keys, reg, &res); err != nil {
			return res, fmt.Errorf("crashsweep: nested run armed at step %d: %w", step, err)
		}
	}
	return res, nil
}
