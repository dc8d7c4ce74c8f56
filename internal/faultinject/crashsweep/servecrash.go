package crashsweep

// servecrash.go is the live-traffic crash sweep — the one path RunServe,
// RunNested, RunSensor and RunBlackBox configure (the package comment
// has the loop and what each mode adds). At every crash point it proves
//
//  1. dirty ≤ effective budget at the crash instant — with the intent
//     journal's pages inside the bound, since the journal lives in an
//     ordinary budget-accounted mapping;
//  2. the battery flush (System.SimulatePowerFailure) completes within
//     the true battery's energy and leaves the SSD byte-equal to NV-DRAM;
//  3. a recovered stack (System.RecoverWith: fresh region restored from
//     the SSD, on the battery that survived; reopened heap, store, and
//     journal, fresh server) answers every client's
//     retry stream exactly once: every acknowledged mutation is present
//     (zero lost acks), no mutation is applied twice (per-key count/sum
//     oracle), and the one in-flight-at-crash op per client lands
//     cleanly on replay — deduped, redone from the journaled image, or
//     freshly applied, whichever crash window it died in;
//  4. the journal Open rebuilds exactly the table a read-only walk of
//     the committed record prefix implies (intent.RebuildTable).
//
// Crash containment is split: a power failure firing while a client
// serves is recovered by serve.Config.RecoverCrash (clients observe
// ErrPowerFailure); one firing during the post-Stop drain on the sweep
// goroutine is caught by Crasher.Run. Either way the Crasher records the
// crash point and the same post-failure protocol runs.
//
// Why replay is safe over a store with no transactional atomicity: the
// server runs one request at a time, so at most ONE kvstore mutation is
// mid-flight when power fails — the in-doubt request the sweep replays.
// An in-place value update torn mid-copy is overwritten by the replay's
// redo image; a torn insert is unreachable (the chain-head pointer flip
// is the last, page-atomic write) and the replay allocates a fresh
// entry. Every other acknowledged mutation finished before the crash and
// is covered by page durability alone.

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"sync"

	"viyojit"
	"viyojit/internal/core"
	"viyojit/internal/dist"
	"viyojit/internal/faultinject"
	"viyojit/internal/health"
	"viyojit/internal/intent"
	"viyojit/internal/kvstore"
	"viyojit/internal/mmu"
	"viyojit/internal/obs"
	"viyojit/internal/power"
	"viyojit/internal/recovery"
	"viyojit/internal/serve"
	"viyojit/internal/sim"
)

// ServeConfig parameterises a live-traffic sweep. Zero values select a
// small configuration that still forces cleans, journal compactions, and
// client retries under crash fire; a negative count is an error.
type ServeConfig struct {
	// Seed drives key selection, value mixing, and backoff jitter. Crash
	// *points* replay from it; with more than one client, goroutine
	// interleavings do not (see the package comment).
	Seed uint64
	// Clients is the number of concurrent RetryingClients; 0 selects 10.
	Clients int
	// OpsPerClient is each client's operation count; 0 selects 40.
	OpsPerClient int
	// MaxCrashPoints is the number of crash points to inject; 0 selects
	// 200. The sweep re-wraps the step space (same steps, different
	// interleavings) until it has actually crashed that many runs.
	MaxCrashPoints int
	// Stride crashes at every Stride-th event step; 0 derives one from
	// the baseline run.
	Stride uint64
}

func (c ServeConfig) withDefaults() ServeConfig {
	if c.Clients == 0 {
		c.Clients = 10
	}
	if c.OpsPerClient == 0 {
		c.OpsPerClient = 40
	}
	if c.MaxCrashPoints == 0 {
		c.MaxCrashPoints = 200
	}
	return c
}

// The serving stack's shape: constants, since no caller ever varied them
// and every pinned number of these sweeps depends on them. The mix is
// YCSB-A (reads flow outside the idempotence protocol); the journal's
// dedup window, the manager's epoch, the health monitor's period and the
// scrubber's pacing are the facade's defaults.
const (
	serveKeys         = 48 // key-space size
	serveReadFraction = 0.5
	serveHeapPages    = 64 // the store mapping
	// journalPages sizes the intent-journal mapping: a header page and two
	// four-page halves, so that a run of ≈ 200 tiny mutations compacts
	// about three times. The compactions are what the budget note below
	// leans on: the journal's write pattern alone is too small to push an
	// 8-page budget, and a crash strands an intent for recovery's redo only
	// where a snapshot or a record faults at the budget mid-op.
	journalPages = 9
	// serveBudgetPages is the dirty budget the battery is provisioned for:
	// tight enough that journal appends and store writes force synchronous
	// cleans under load. Note the budget alone barely opens the
	// intent-begun-but-not-completed window to the Crasher: forced cleans
	// on the fault path are synchronous and fire no queue events; only a
	// fault on a page whose asynchronous clean is still in flight steps
	// the queue mid-op, and whether that ever happens is seed- and
	// layout-dependent. mode.commitMarkers opens the window
	// deterministically.
	serveBudgetPages = 8

	// fastDevice is the ssd package's default write bandwidth, stated so
	// the battery is sized for the device it backs. slowDevice is what the
	// nested and sensor modes run on: the budget formula reserves the fixed
	// overhead off the top, and on the fast device that overhead dominates
	// the energy term — half the joules would back no page at all, and a
	// modest conservative dip in a fused estimate would zero the budget
	// outright instead of shrinking it. With the transfer term dominant
	// the budget degrades in proportion to the energy, which is the regime
	// those modes study.
	fastDevice = 2 << 30
	slowDevice = 16 << 20

	cursorName, storeName, journalName = "cursor", "heap", "intent"
	recorderName                       = "__blackbox" // the facade's ring mapping
)

// mode is what tells the four live-traffic sweeps apart: data on the one
// path, not forks of it. The zero mode is RunServe's.
type mode struct {
	ServeConfig
	writeBW int64 // the backing device's write bandwidth; 0 = fastDevice
	// commitMarkers plants serve-side crash points inside each idempotent
	// op's Begin→Complete critical section (serve.Config.CrashPoints): one
	// queue-event strike instant after the intent record is durable and
	// one after the mutation applies. Without them, whether any crash
	// strands an in-flight intent for recovery's redo phase is left to
	// the incidental in-flight-clean-wait path. The nested sweep sets
	// this; the plain sweep's lattice leaves it off.
	commitMarkers bool
	// cursorPages sizes the persistent recovery-cursor mapping; 0 maps no
	// cursor (every single-crash mode). The nested sweep sets 1.
	cursorPages int
	// blackBox maps the flight recorder's viyojit.BlackBoxPages ring and
	// runs its audits (blackboxcrash.go). The blackbox sweep sets it.
	blackBox bool
	// recrashDepth, budgetScale and recoveryObs are NestedConfig's: depth
	// 0 recovers once, unarmed, on the whole battery (0 scale = 1).
	recrashDepth int
	budgetScale  float64
	recoveryObs  *obs.Registry
	// gauges, when set, puts every pre-crash stack under the lying-gauge
	// fault injectors (sensorcrash.go).
	gauges *SensorSweepConfig
}

// batteryFor provisions a battery whose energy flushes pages dirty pages
// of a region of regionBytes to a device of writeBW, by the inverse of
// viyojit.New's own derivation (§5.1's health.Derating and
// health.FlushReserve): the budget is never set, it falls out of the
// joules. Depth of discharge and derating are 1, so nameplate =
// effective and a recovery's BudgetScale is the only derating in play.
func batteryFor(pages int, writeBW, regionBytes int64) viyojit.BatteryConfig {
	conservativeBW := int64(float64(writeBW) * health.Derating)
	return viyojit.BatteryConfig{
		CapacityJoules:   health.JoulesForBudget(power.Default(), pages, conservativeBW, regionBytes, pageSize, health.FlushReserve),
		DepthOfDischarge: 1,
		Derating:         1,
	}
}

// config is the mode as the product's own configuration: everything a
// pre-crash stack is comes from viyojit.New of this, and everything a
// recovered one is from System.RecoverWith.
func (m *mode) config() viyojit.Config {
	bw := m.writeBW
	if bw == 0 {
		bw = fastDevice
	}
	pages := serveHeapPages + journalPages + m.cursorPages
	if m.blackBox {
		pages += viyojit.BlackBoxPages
	}
	region := int64(pages) * pageSize
	cfg := viyojit.Config{
		NVDRAMSize: region,
		SSD:        viyojit.SSDConfig{WriteBandwidth: bw},
		Battery:    batteryFor(serveBudgetPages, bw, region),
		BlackBox:   m.blackBox,
	}
	if m.gauges != nil {
		// 2x provisioning headroom: the fixed flush-overhead reserve comes
		// off the top of the energy term, so without headroom a deep-but-
		// legitimate conservative dip (both gauges dark past the staleness
		// window, estimate decaying at full flush draw) could zero the
		// budget and trip a spurious emergency. With 2x, zeroing requires
		// several milliseconds of continuous total gauge darkness — beyond
		// any single episode the injectors generate. The crash audit stays
		// exact either way: the flush runs on TRUE energy, headroom included.
		cfg.Battery = batteryFor(2*serveBudgetPages, bw, region)
		cfg.Health = viyojit.HealthConfig{
			Interval:     gaugeInterval,
			MaxSnapshots: 1 << 17, // every sample of the run feeds the every-instant audit
		}
		cfg.Sensor = viyojit.SensorConfig{
			// The physical ceiling on how fast the pack can actually drain:
			// full flush draw. Held and blind estimates decay at this rate.
			MaxDischargeWatts: power.Default().FlushWatts(region),
			MaxDetections:     1 << 16, // the MTTD audit needs every rejection
		}
	}
	return cfg
}

// ServeResult is the evidence every live-traffic sweep reports; the
// nested and sensor results embed it. The counters exist so acceptance
// tests can prove the sweep exercised each recovery path, not just that
// nothing failed.
type ServeResult struct {
	Swept
	// JournalDirtyCrashes counts crash instants at which at least one
	// intent-journal page was dirty — direct evidence the journal's
	// pages ride inside the audited budget rather than beside it.
	JournalDirtyCrashes int
	// AckedMutations totals mutations acknowledged before their run's
	// crash; every one must survive recovery.
	AckedMutations uint64
	// ClientRetries totals transport-level retries clients issued while
	// their server was alive.
	ClientRetries uint64
	// InDoubtReplayed counts in-flight-at-crash ops retried against the
	// recovered server; the journal answers each retry from the result
	// cache (Deduped) or, if the op never reached the journal, executes
	// it freshly (Fresh). ReplayRedone counts intents the recovery-time
	// redo pass of the stack that finally served resolved from their
	// journaled redo images — those ops' retries then dedup like any
	// completed op.
	InDoubtReplayed int
	ReplayDeduped   int
	ReplayRedone    int
	ReplayFresh     int
	// AckedRetryDedups counts retries of already-acknowledged mutations
	// that the recovered journal absorbed without re-execution.
	AckedRetryDedups int
	// TornOpens counts recovered journals whose active half ended in a
	// torn record — the crash-mid-append signature, detected and dropped.
	TornOpens int
	// TableCompares counts crashed runs whose recovered journal's dedup
	// table was compared against the read-only record walk.
	TableCompares int
	// JournalBytes is the journal record traffic across crashed runs;
	// MutationBytes is the acked mutations' key+value payload — the
	// write-amplification ratio EXPERIMENTS.md reports.
	JournalBytes  uint64
	MutationBytes uint64
	// RecorderDirtyCrashes counts crash instants at which at least one
	// flight-recorder ring page was dirty — direct evidence the ring
	// rides inside the audited dirty budget rather than beside it.
	// Zero unless the run carries a recorder.
	RecorderDirtyCrashes int
	// ForensicExact counts crashed runs whose recovered forensic report
	// named the crash-instant dirty level, effective budget, and ladder
	// state exactly; ForensicDropped counts crashed runs where recorder
	// drops (shed appends) relaxed the audit to the sequence bound
	// alone. Every crashed run with a recorder lands in exactly one.
	ForensicExact   int
	ForensicDropped int
	// RecorderAppends and RecorderDrops total successful ring appends
	// and shed appends across crashed runs.
	RecorderAppends uint64
	RecorderDrops   uint64
}

// sweep is one live-traffic sweep in progress: its mode, and every
// mode's evidence accumulating side by side (cascade evidence stays zero
// at depth 0, telemetry evidence without gauges).
type sweep struct {
	mode
	keys     [][]byte
	innerRNG *sim.RNG // draws the in-recovery crash steps

	res     ServeResult
	cascade CascadeEvidence
	gauge   TelemetryEvidence
}

func newSweep(m mode) *sweep {
	m.ServeConfig = m.ServeConfig.withDefaults()
	sw := &sweep{mode: m, keys: makeKeys(serveKeys), innerRNG: sim.NewRNG(m.Seed ^ 0x4E5E57ED)}
	if sw.budgetScale == 0 {
		sw.budgetScale = 1
	}
	sw.cascade = CascadeEvidence{InnerByPhase: make(map[string]int)}
	sw.gauge = TelemetryEvidence{
		Episodes:         make(map[string]int),
		Detections:       make(map[string]int),
		MaxMTTD:          make(map[string]sim.Duration),
		MinFusedFraction: 1,
	}
	return sw
}

// run executes the sweep: one un-crashed calibration run sizes the step
// space, then fresh serving runs crash at swept steps. The step lattice
// wraps until MaxCrashPoints runs have actually crashed — revisiting a
// step is productive here, since each run's goroutine interleaving is
// its own.
func (sw *sweep) run() error {
	if err := negativeCount(count{"Clients", sw.Clients}, count{"OpsPerClient", sw.OpsPerClient},
		count{"MaxCrashPoints", sw.MaxCrashPoints}, count{"RecrashDepth", sw.recrashDepth}); err != nil {
		return err
	}
	_, base, err := sw.baseline()
	if err != nil {
		return err
	}
	sw.res.BaselineEvents = base.BaselineEvents
	stride, at := lattice(base.BaselineEvents, sw.Stride, sw.MaxCrashPoints)
	sw.res.Stride = stride

	// Safety bound: completed (never-crashed) runs consume an attempt
	// without advancing CrashPoints, so cap total attempts.
	for i := 1; sw.res.CrashPoints < sw.MaxCrashPoints && i <= 4*sw.MaxCrashPoints; i++ {
		step, _ := at(i)
		if err := sw.point(i, step); err != nil {
			return fmt.Errorf("crashsweep: serve run armed at step %d: %w", step, err)
		}
	}
	return nil
}

// RunServe executes the plain live-traffic sweep: every recovery runs
// once, unarmed, on the full budget.
func RunServe(cfg ServeConfig) (ServeResult, error) {
	sw := newSweep(mode{ServeConfig: cfg})
	err := sw.run()
	return sw.res, err
}

// serveRun is one serving stack — freshly formatted by viyojit.New, or
// rebooted by System.RecoverWith — the handles the facade returned over
// it, and what happened to it.
type serveRun struct {
	mode    *mode
	sys     *viyojit.System
	cursor  *recovery.Cursor // nil unless cursorPages > 0
	store   *kvstore.Store
	journal *intent.Journal
	tele    *telemetry // nil unless the mode has gauges

	// What serving it came to: the clients' logs, where the armed crash
	// fired if it did, and for a clean shutdown the events fired while
	// traffic ran and the clock when the final flush ended.
	logs    []*clientLog
	crash   faultinject.CrashPoint
	crashed bool
	served  uint64
	ended   sim.Time

	boot reboot // zero for a freshly formatted stack
}

// reboot is one recovery attempt's state: what it was told, and what a
// cascaded crash that unwinds it half-way leaves for the audits.
type reboot struct {
	// marks turns mark and plant on: off at depth 0, where no Crasher is
	// ever armed on a recovery.
	marks  bool
	report recovery.RestoreReport // what RecoverWith said it restored
	phase  recovery.Phase         // the live phase at the crash instant
	// startRec and pending snapshot the redo workload the instant the
	// journal reopens: startRec is the cursor's durably-recorded redo
	// count entering this attempt, pending what the journal still holds
	// in flight. startRec+pending bounds the incarnation's total redo
	// work from below even when a cascaded crash later discards replay —
	// the sweep's redo accounting survives crashed attempts by taking
	// the max across them.
	startRec uint64
	pending  int
	replay   serve.ReplayStats
	compared bool // the rebuilt dedup table was checked against the walk
}

// plant schedules a no-op event, due now: a crash point the next pump of
// the queue fires. The table-rebuild and redo phases do no event-queue
// work of their own, so a recovery that may be re-crashed plants one per
// unit of work to give the Crasher somewhere to strike.
func (st *serveRun) plant() {
	if st.boot.marks {
		st.sys.Events().Schedule(st.sys.Now(), func(sim.Time) {})
	}
}

// mark plants a crash point and fires it.
func (st *serveRun) mark() {
	if st.boot.marks {
		st.plant()
		st.sys.AdvanceTime(0)
	}
}

// mapping returns the named mapping of a facade-built stack.
func mapping(sys *viyojit.System, name string) *core.Mapping {
	for _, mp := range sys.Manager().Mappings() {
		if mp.Name() == name {
			return mp
		}
	}
	return nil
}

// attach takes the facade's handles over st.sys: created when fresh,
// reopened on a reboot, and filled in as it goes, so a cascaded crash
// that unwinds a reboot leaves whatever was attached so far.
//
// Mapping order is the recovery contract: a reboot re-Maps the same
// names and sizes in the same order, and the first-fit allocator hands
// back the same extents. (The facade maps the black box before any of
// these, so its ring sits at the same offset every boot.) The cursor
// goes first because a reboot needs it first: it is only readable once
// RecoverWith has restored its pages — which is why the restore is a
// volatile phase the cursor cannot cover — and it is what records that
// the reopening of everything else (the WAL-replay phase: rebuild the
// volatile tables) began.
func (st *serveRun) attach(fresh bool) error {
	m, sys := st.mode, st.sys
	var err error
	if size := int64(m.cursorPages) * pageSize; size > 0 {
		if fresh {
			st.cursor, err = sys.NewRecoveryCursor(cursorName, size)
		} else if st.cursor, err = sys.OpenRecoveryCursor(cursorName, size); err == nil {
			err = st.beginRecovery()
		}
		if err != nil {
			return err
		}
	}
	if fresh {
		st.store, err = sys.NewStore(storeName, serveHeapPages*pageSize)
	} else {
		st.store, err = sys.OpenStore(storeName, serveHeapPages*pageSize)
	}
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	st.mark()
	if fresh {
		st.journal, err = sys.NewIntentJournal(journalName, journalPages*pageSize, viyojit.IntentConfig{})
	} else {
		st.journal, err = sys.OpenIntentJournal(journalName, journalPages*pageSize)
	}
	if err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	st.boot.pending = len(st.journal.Pending())
	st.mark()
	return nil
}

// serve starts the front-end over st's store and journal.
func (st *serveRun) serve() (*serve.Server, error) {
	return st.sys.Serve(st.store, viyojit.ServeConfig{
		Journal:      st.journal,
		RecoverCrash: func(v any) bool { _, ok := faultinject.AsCrash(v); return ok },
		CrashPoints:  st.mode.commitMarkers,
	})
}

// beginRecovery enters the WAL-replay phase on the reopened cursor.
func (st *serveRun) beginRecovery() error {
	prog, _, err := st.cursor.BeginRecovery(st.sys.DirtyBudget())
	if err != nil {
		return err
	}
	st.boot.startRec = prog.Record
	st.mark()
	return st.cursor.Advance(recovery.PhaseWALReplay, prog.Record)
}

// resolve ends the reboot pipeline, before serving resumes:
//
//	rebuilt dedup table == committed record prefix (compared before any
//	new record touches the journal)
//	→ System.ReplayPendingWith (intent redo: durable, cursor-recorded
//	  per record, budget-drained incrementally)
//	→ flush to a clean durable state → cursor Finish
//
// The redo runs BEFORE serving resumes because a redo image is only
// sound against pre-crash state (see serve.ReplayPendingWith). A mode
// without a cursor skips the drain too: it exists so a re-crash right
// after recovery has nothing to lose.
func (st *serveRun) resolve(fail failFunc) error {
	walked, walkTorn, err := intent.RebuildTable(mapping(st.sys, journalName))
	if err != nil {
		fail("record walk: %v", err)
	} else {
		if walkTorn != st.journal.TornOpen() {
			fail("torn-tail verdicts diverge: Open %v, record walk %v", st.journal.TornOpen(), walkTorn)
		}
		compareTables(st.journal.Snapshot(), walked, fail)
		st.boot.compared = true
	}

	// The redo loop does no event-queue work of its own when the budget
	// never forces a clean, so both of its crash windows get a planted
	// point: the one the replay's own pump fires after a redo completes
	// and before the cursor records it, and the mark after the cursor
	// advanced.
	st.boot.phase = recovery.PhaseIntentRedo
	st.plant()
	st.boot.replay, err = st.sys.ReplayPendingWith(st.store, st.journal, st.cursor)
	if err != nil {
		return err
	}
	st.mark()
	if n := st.boot.replay.Redone; n > 1 {
		fail("recovery found %d in-flight intents; a serial server can leave at most one", n)
	}

	if st.cursor != nil {
		st.boot.phase = recovery.PhaseDrain
		if err := st.cursor.Advance(recovery.PhaseDrain, st.cursor.Progress().Record); err != nil {
			return err
		}
		// Flush the re-dirtied set so recovery hands over a clean durable
		// state: a re-crash right after recovery must have nothing to lose.
		st.sys.FlushAll()
		if err := st.cursor.Finish(); err != nil {
			return err
		}
		st.boot.phase = recovery.PhaseDone
	}
	return nil
}

// valBytes is the oracle value layout: [count u64][sum u64]. count is
// how many RMW mutations ever applied to the key; sum accumulates each
// mutation's unique token, so the pair identifies the applied multiset
// exactly — one lost ack breaks the sum, one double-apply breaks the
// count (a re-applied redo IMAGE changes neither, which is the point).
const valBytes = 16

func mutToken(client, seq uint64) uint64 { return client<<32 | seq }

func decodeOracle(v []byte) (count, sum uint64) {
	if len(v) != valBytes {
		return 0, 0
	}
	return binary.LittleEndian.Uint64(v), binary.LittleEndian.Uint64(v[8:])
}

func mutOp(key []byte, token uint64) serve.IdemOp {
	return serve.IdemOp{
		Kind: serve.IdemRMW,
		Key:  key,
		Tag:  token,
		Modify: func(old []byte, ok bool) []byte {
			var c, s uint64
			if ok {
				c, s = decodeOracle(old)
			}
			out := make([]byte, valBytes)
			binary.LittleEndian.PutUint64(out, c+1)
			binary.LittleEndian.PutUint64(out[8:], s+token)
			return out
		},
	}
}

// mutation is one idempotent op a client issued: enough to replay it
// byte-identically and to predict its oracle contribution.
type mutation struct {
	seq   uint64
	key   int
	token uint64
}

// clientLog is one client's acknowledgement record, written only by its
// own goroutine and read after the WaitGroup join.
type clientLog struct {
	id       uint64
	acked    []mutation // acks received before the crash, in seq order
	inDoubt  *mutation  // issued, never acked: the op in flight at crash
	retries  uint64
	err      error // a non-power-failure client error (always a violation)
	seedBase uint64
}

// driveClients runs cfg.Clients concurrent RetryingClients against srv
// until they finish their ops or the server power-fails under them.
func driveClients(cfg ServeConfig, srv *serve.Server, keys [][]byte) []*clientLog {
	logs := make([]*clientLog, cfg.Clients)
	var wg sync.WaitGroup
	for i := 0; i < cfg.Clients; i++ {
		lg := &clientLog{id: uint64(i + 1), seedBase: cfg.Seed ^ uint64(i+1)*0x9E3779B97F4A7C15}
		logs[i] = lg
		wg.Add(1)
		go func() {
			defer wg.Done()
			driveClient(cfg, srv, keys, lg)
		}()
	}
	wg.Wait()
	return logs
}

func serverGone(err error) bool {
	return errors.Is(err, serve.ErrPowerFailure) || errors.Is(err, serve.ErrServerClosed)
}

func driveClient(cfg ServeConfig, srv *serve.Server, keys [][]byte, lg *clientLog) {
	cl, err := serve.NewRetryingClient(srv, lg.id, lg.seedBase, serve.RetryConfig{Priority: serve.PriorityNormal})
	if err != nil {
		lg.err = err
		return
	}
	defer func() { lg.retries = cl.Retries() }()
	rng := sim.NewRNG(lg.seedBase ^ 0xC11E)
	zipf := dist.NewZipfian(rng.Fork(), int64(len(keys)), dist.ZipfianConstant)
	opRNG := rng.Fork()
	ctx := context.Background()
	for op := 0; op < cfg.OpsPerClient; op++ {
		k := int(zipf.Next())
		if opRNG.Float64() < serveReadFraction {
			_, rerr := srv.Submit(ctx, serve.Request{Priority: serve.PriorityNormal, Op: readOp(keys[k])})
			if serverGone(rerr) {
				return
			}
			continue // a shed read carries no durability obligation
		}
		seq := cl.NextSeq()
		m := mutation{seq: seq, key: k, token: mutToken(lg.id, seq)}
		lg.inDoubt = &m
		_, _, derr := cl.Do(ctx, mutOp(keys[k], m.token))
		if derr == nil {
			lg.acked = append(lg.acked, m)
			lg.inDoubt = nil
			continue
		}
		if serverGone(derr) {
			return // the in-doubt op stays recorded for replay
		}
		lg.err = fmt.Errorf("client %d seq %d: %w", lg.id, seq, derr)
		return
	}
}

func readOp(key []byte) func(serve.Exec) (any, error) {
	return func(e serve.Exec) (any, error) {
		_, _, err := e.Store.Get(key)
		return nil, err
	}
}

// makeKeys builds the shared key set; values stay in one 64-byte heap
// class so every update is in-place.
func makeKeys(n int) [][]byte {
	keys := make([][]byte, n)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("key%02d", i))
	}
	return keys
}

// checkOracle compares the store against the expected multiset: every
// op that must have applied exactly once — acked before the crash, or
// replayed after it — folded into a per-key (count, sum).
func checkOracle(store *kvstore.Store, keys [][]byte, logs []*clientLog, replayed []mutation, fail failFunc) {
	want := make(map[int][2]uint64)
	add := func(ms []mutation) {
		for _, m := range ms {
			cs := want[m.key]
			cs[0]++
			cs[1] += m.token
			want[m.key] = cs
		}
	}
	add(replayed)
	for _, lg := range logs {
		add(lg.acked)
	}
	for k, key := range keys {
		v, ok, err := store.Get(key)
		if err != nil {
			fail("key %s: read failed: %v", key, err)
			continue
		}
		exp, expected := want[k]
		if !expected {
			if ok {
				fail("key %s: present with no acknowledged mutation (phantom apply)", key)
			}
			continue
		}
		if !ok {
			fail("key %s: missing; %d acknowledged mutations lost", key, exp[0])
			continue
		}
		count, sum := decodeOracle(v)
		switch {
		case count < exp[0] || (count == exp[0] && sum != exp[1]):
			fail("key %s: lost ack (count %d sum %#x, want count %d sum %#x)", key, count, sum, exp[0], exp[1])
		case count > exp[0]:
			fail("key %s: double apply (count %d, want %d)", key, count, exp[0])
		}
	}
}

// compareTables checks the journal Open's incremental table against the
// read-only record walk: same clients, same windows, same entries.
func compareTables(opened, walked map[uint64]intent.ClientSnapshot, fail failFunc) {
	if len(opened) != len(walked) {
		fail("dedup table: Open found %d clients, record walk found %d", len(opened), len(walked))
		return
	}
	for client, a := range opened {
		b, ok := walked[client]
		if !ok {
			fail("dedup table: client %d missing from record walk", client)
			continue
		}
		if a.Low != b.Low || a.MaxSeq != b.MaxSeq {
			fail("dedup table: client %d window [%d,%d] vs walk [%d,%d]", client, a.Low, a.MaxSeq, b.Low, b.MaxSeq)
			continue
		}
		if len(a.Entries) != len(b.Entries) {
			fail("dedup table: client %d has %d entries vs walk %d", client, len(a.Entries), len(b.Entries))
			continue
		}
		for seq, ea := range a.Entries {
			eb, ok := b.Entries[seq]
			if !ok {
				fail("dedup table: client %d seq %d missing from walk", client, seq)
				continue
			}
			if ea.OpSum != eb.OpSum || ea.Done != eb.Done || ea.Code != eb.Code || ea.Tombstone != eb.Tombstone {
				fail("dedup table: client %d seq %d diverges (opsum %#x/%#x done %v/%v)",
					client, seq, ea.OpSum, eb.OpSum, ea.Done, eb.Done)
			}
		}
	}
}

// mappingDirtyAt reports whether any page of the named mapping diverges
// from its durable copy — i.e. was dirty at the crash instant. Called
// before the battery flush.
func mappingDirtyAt(sys *viyojit.System, name string) bool {
	mp, region := mapping(sys, name), sys.Manager().Region()
	lo := mp.Base() / pageSize
	hi := (mp.Base() + mp.Size() - 1) / pageSize
	for p := lo; p <= hi; p++ {
		if region.CheckRestorable(sys.SSD(), mmu.PageID(p)) != nil {
			return true
		}
	}
	return false
}

// serveArmed builds run i's fresh stack (i salts the gauge-fault
// schedules), arms a crash at step — 0 arms nothing: the baseline — and
// serves the workload until it ends, cleanly shut down, or the crash
// cuts it. The stack is the product's: its health monitor, scrubber and
// fused sensor tick on the queue the crash is armed on.
func (sw *sweep) serveArmed(i int, step uint64) (*serveRun, error) {
	sys, err := viyojit.New(sw.mode.config())
	if err != nil {
		return nil, err
	}
	run := &serveRun{mode: &sw.mode, sys: sys}
	if err := run.attach(true); err != nil {
		return nil, err
	}
	run.tele = attachTelemetry(run, uint64(i))
	srv, err := run.serve()
	if err != nil {
		return nil, err
	}
	// A crash while a client serves is contained by RecoverCrash; one
	// firing during the post-Stop drain lands here and Run catches it.
	run.crash, run.crashed = armed(sys.Events(), step, func(crasher *faultinject.Crasher) {
		run.logs = driveClients(sw.ServeConfig, srv, sw.keys)
		srv.Stop()
		if _, crashed := crasher.Crashed(); !crashed {
			run.tele.close()
			run.served = sys.Events().Fired()
			sys.FlushAll()
			run.ended = sys.Now()
		}
	})
	run.tele.close()
	return run, nil
}

// armed runs fn with a power failure armed at event step `step` of the
// queue (0 arms nothing), and reports where it fired, if it did. The
// Crasher is left disarmed, so the post-failure protocol can keep
// pumping the queue.
func armed(events *sim.Queue, step uint64, fn func(*faultinject.Crasher)) (faultinject.CrashPoint, bool) {
	crasher := faultinject.NewCrasher(events)
	if step > 0 {
		crasher.ArmAt(step)
	}
	crasher.Run(func() { fn(crasher) })
	crasher.Disarm()
	return crasher.Crashed()
}

// powerFail is the crash instant, as the product lives it: the shared
// audit's budget bound, then System.SimulatePowerFailure — the recorder
// sealed, the dirty set flushed on the TRUE battery's energy, whatever a
// gauge claimed — and SSD = NV-DRAM after it.
func (st *serveRun) powerFail(maxDirty *int, fail failFunc) {
	mgr := st.sys.Manager()
	auditCrash(mgr, mgr.EffectiveDirtyBudget(), st.sys.SimulatePowerFailure, true, maxDirty, fail)
}

// tallyLogs folds a run's client logs into res. A client error other
// than the server dying under it is always a violation.
func tallyLogs(logs []*clientLog, keys [][]byte, res *ServeResult, fail failFunc) {
	for _, lg := range logs {
		if lg.err != nil {
			fail("client error: %v", lg.err)
		}
		res.AckedMutations += uint64(len(lg.acked))
		res.ClientRetries += lg.retries
		for _, m := range lg.acked {
			res.MutationBytes += uint64(len(keys[m.key]) + valBytes)
		}
	}
}

// cleanShutdown is the verdict on a run no crash cut short. No client
// may hold an in-doubt op — the server never failed — the final flush
// left nothing dirty, and the store shows every acked mutation once.
func (sw *sweep) cleanShutdown(run *serveRun, fail failFunc) {
	for _, lg := range run.logs {
		if lg.inDoubt != nil {
			fail("clean run left client %d seq %d unacknowledged", lg.id, lg.inDoubt.seq)
		}
	}
	if n := run.sys.DirtyCount(); n != 0 {
		fail("clean run left %d dirty pages after flush", n)
	}
	if err := run.sys.VerifyDurability(); err != nil {
		fail("clean-run durability: %v", err)
	}
	checkOracle(run.store, sw.keys, run.logs, nil, fail)
	run.sys.Close()
}

// baseline executes the un-crashed calibration run and returns it with
// its own tally (BaselineEvents set). Anything an armed run would report
// as a violation is an error here: there is no sweep to run over a
// baseline that is not clean.
func (sw *sweep) baseline() (*serveRun, ServeResult, error) {
	var tally ServeResult
	run, err := sw.serveArmed(0, 0)
	if err != nil {
		return nil, tally, err
	}
	fail := func(format string, args ...any) {
		if err == nil {
			err = fmt.Errorf("crashsweep: baseline: "+format, args...)
		}
	}
	tallyLogs(run.logs, sw.keys, &tally, fail)
	sw.cleanShutdown(run, fail)
	tally.BaselineEvents = run.served
	if run.served == 0 {
		fail("fired no events")
	}
	return run, tally, err
}

// point executes one armed run: serve, crash (or complete), audit the
// crash instant, flush, recover, replay, verify.
func (sw *sweep) point(i int, step uint64) error {
	run, err := sw.serveArmed(i, step)
	if err != nil {
		return err
	}
	fail := func(format string, args ...any) {
		sw.res.Violations = append(sw.res.Violations, Violation{Step: run.crash.Step, Msg: fmt.Sprintf(format, args...)})
	}
	tallyLogs(run.logs, sw.keys, &sw.res, fail)
	run.tele.audit(&sw.gauge, fail)

	if !run.crashed {
		// Armed step past this run's end: verify the clean shutdown.
		sw.cleanShutdown(run, fail)
		sw.res.Completed++
		return nil
	}
	sw.res.CrashPoints++

	// The crash instant. Evidence first — which mappings were dirty, the
	// forensic oracle from the live (about-to-die) stack — then the shared
	// audit: the budget bound, journal and recorder pages included, and
	// the product's own power-failure flush.
	if mappingDirtyAt(run.sys, journalName) {
		sw.res.JournalDirtyCrashes++
	}
	oracle := captureBlackBoxOracle(run, &sw.res)
	run.tele.atCrash(fail)
	run.powerFail(&sw.res.MaxDirtyAtCrash, fail)
	sw.res.JournalBytes += run.journal.Stats().AppendBytes

	// Walk the post-flush ring and audit the forensic report against the
	// oracle captured the instant before the flush.
	left := auditBlackBoxWalk(run, oracle, &sw.res, fail)

	// Recover a live stack, through as many cascaded re-crashes as the
	// mode injects, and replay every client's retry stream against it.
	rec := sw.recoverStack(run.sys, fail)
	if rec == nil {
		return nil
	}
	auditRecoveredRing(rec, left, fail)
	if rec.journal.TornOpen() {
		sw.res.TornOpens++
	}
	if rec.boot.compared {
		sw.res.TableCompares++
	}
	sw.res.ReplayRedone += rec.boot.replay.Redone
	replayed, err := replayRetryStreams(rec, run.logs, sw.keys, &sw.res, fail)
	if err != nil {
		return err
	}

	// The oracle: recovered store == every acked-or-replayed mutation
	// applied exactly once.
	checkOracle(rec.store, sw.keys, run.logs, replayed, fail)
	rec.sys.Close()
	return nil
}

// attempt runs one recovery attempt on the survivor — the System a power
// failure stopped, whose SSD holds what its flush saved — with a crash
// armed armStep units into it (0 = unarmed). A unit is one restored
// page, then one event on the recovered System's queue. RecoverWith
// returns only once the restore is over, so a crash inside it is
// modelled as what it is on the product: the half-recovered System is
// abandoned, and the next attempt calls RecoverWith again on the same
// survivor — safe because the restore never consumes what it restores
// from. attempt returns the stack — whatever of it was attached before
// the attempt completed or the crash unwound it — how many units it ran
// for, and whether the armed crash fired.
func (sw *sweep) attempt(survivor *viyojit.System, opts viyojit.RecoverOptions, armStep uint64, fail failFunc) (*serveRun, uint64, bool, error) {
	sys, report, err := survivor.RecoverWith(opts)
	if err != nil {
		return nil, 0, false, err
	}
	st := &serveRun{mode: &sw.mode, sys: sys}
	st.boot = reboot{marks: sw.recrashDepth > 0, report: report, phase: recovery.PhaseRestore}
	restored := uint64(report.PagesRestored)
	if 0 < armStep && armStep <= restored {
		sys.Close()
		return st, armStep, true, nil
	}
	st.boot.phase = recovery.PhaseWALReplay
	fired, armAt := sys.Events().Fired(), uint64(0)
	if armStep > 0 {
		armAt = fired + armStep - restored
	}
	_, crashed := armed(sys.Events(), armAt, func(*faultinject.Crasher) {
		if err = st.attach(false); err == nil {
			err = st.resolve(fail)
		}
	})
	if err != nil && !crashed {
		sys.Close()
		return nil, 0, false, err
	}
	return st, restored + sys.Events().Fired() - fired, crashed, nil
}

// recoverStack reboots a serving stack from survivor, the System a
// crashed run flushed, and returns it ready to serve — or nil, the
// reason recorded as a violation. It is the cascading-recovery loop:
// each iteration is one attempt, armed at a seeded step while the mode
// has re-crash depth left; a cascaded crash is audited like any other,
// on the battery the attempt came up on, and becomes the next attempt's
// survivor. At depth 0 the loop is one unarmed attempt.
//
// The budget scale is asked for once, of the first reboot. Every later
// one carries it in its battery: a recovered System comes up on the pack
// that survived, which is the carry-over the cascade exists to check —
// and the stack that finally serves the retry streams serves them on
// that battery too, since nothing recharged it.
func (sw *sweep) recoverStack(survivor *viyojit.System, fail failFunc) *serveRun {
	opts := viyojit.RecoverOptions{BudgetScale: sw.budgetScale}
	var lastCursor recovery.Progress // nothing is Less than the zero Progress
	// pointRedo is this incarnation's redo workload, taken as a max
	// across attempts: a cascaded crash mid-replay discards the attempt's
	// replay stats, but every attempt that reaches the journal reopen
	// observes startRec+pending, and every attempt that finishes its
	// replay observes StartRecord+Redone.
	pointRedo := 0
	for depth := 0; ; {
		armAt := uint64(0)
		if depth < sw.recrashDepth {
			// Calibrate: an unarmed shadow attempt counts this depth's
			// unit space. Attempts restore into their own System and never
			// write to the survivor, so the shadow leaves no trace (its
			// violations are dropped: the real attempt repeats them); the
			// real attempt below replays the identical single-goroutine
			// schedule, so an arm in [1, units] is guaranteed to strike —
			// which spreads re-crashes across all phases (restore
			// dominates the unit count; redo and drain sit at the tail).
			shadow, units, _, err := sw.attempt(survivor, opts, 0, func(string, ...any) {})
			if err != nil {
				fail("shadow recovery at depth %d: %v", depth, err)
				return nil
			}
			shadow.sys.Close()
			armAt = 1 + sw.innerRNG.Uint64()%max(units, 1)
		}
		att, _, crashed, err := sw.attempt(survivor, opts, armAt, fail)
		if err != nil {
			fail("recovery attempt at depth %d: %v", depth, err)
			return nil
		}
		// What the surviving battery backs is one number for the whole
		// cascade: no reboot may come up on more.
		if sw.cascade.RecoveryBudget == 0 {
			sw.cascade.RecoveryBudget = att.boot.report.BudgetPages
		}
		if got := att.boot.report.BudgetPages; got != sw.cascade.RecoveryBudget {
			fail("reboot at depth %d came up on %d pages; the surviving battery backs %d", depth, got, sw.cascade.RecoveryBudget)
		}
		foldRecoveryCounters(sw.recoveryObs, att.sys.Metrics())

		// Cursor accounting and the monotonicity oracle. The cursor
		// object's Progress is its last durable write: every Advance
		// lands a page-atomic slot write through the budget-accounted
		// mapping, and the flush below makes it durable.
		if att.cursor != nil {
			if att.cursor.Resumed() {
				sw.cascade.Resumes++
			}
			if att.cursor.FellBack() {
				sw.cascade.Fallbacks++
				fail("cursor fell back to fresh at depth %d: slot writes must be crash-atomic", depth)
			}
			p := att.cursor.Progress()
			if p.Less(lastCursor) {
				fail("cursor regressed at depth %d: %+v -> %+v", depth, lastCursor, p)
			}
			lastCursor = p
		}
		pointRedo = max(pointRedo, int(att.boot.startRec)+att.boot.pending,
			int(att.boot.replay.StartRecord)+att.boot.replay.Redone)
		sw.cascade.RedoPages += att.boot.replay.PagesDirtied
		sw.cascade.BudgetStalls += att.boot.replay.BudgetStalls

		if !crashed {
			sw.cascade.RedoneIntents += pointRedo
			return att
		}
		depth++
		sw.cascade.InnerCrashes++
		for len(sw.cascade.InnerByDepth) < depth {
			sw.cascade.InnerByDepth = append(sw.cascade.InnerByDepth, 0)
		}
		sw.cascade.InnerByDepth[depth-1]++
		sw.cascade.InnerByPhase[att.boot.phase.String()]++

		// The audit at the in-recovery crash instant: dirty ≤ the budget
		// the surviving battery backs, and the flush fits that battery. A
		// crash that struck the restore dirtied nothing and leaves the
		// survivor as it was.
		if att.boot.phase != recovery.PhaseRestore {
			inner := func(format string, args ...any) {
				fail("depth-%d crash in %v on recovery budget %d: %s", depth, att.boot.phase, sw.cascade.RecoveryBudget, fmt.Sprintf(format, args...))
			}
			if got := att.sys.Manager().EffectiveDirtyBudget(); got > sw.cascade.RecoveryBudget {
				inner("effective budget %d above what the surviving battery backs", got)
			}
			att.powerFail(&sw.cascade.MaxDirtyAtInnerCrash, inner)
			survivor, opts = att.sys, viyojit.RecoverOptions{}
		}
	}
}

// foldRecoveryCounters adds one attempt's recovery instruments — each
// recovered System counts on its own registry — into the sweep's.
func foldRecoveryCounters(into, from *obs.Registry) {
	for _, name := range []string{
		"recovery_cursor_advances_total", "recovery_resumes_total", "recovery_cursor_fallbacks_total",
		"recovery_redo_pages", "recovery_budget_stalls",
	} {
		into.Counter(name).Add(from.Counter(name).Value())
	}
}

// replayRetryStreams drives every client's post-crash retry protocol
// against a recovered server: the in-doubt op must land exactly once
// (deduped from the result cache or freshly applied — never a
// retry-time redo, since the recovery-time redo ran first), and a
// retried already-acked op must be absorbed without re-execution. The
// server is started and stopped here; the verdicts are tallied into res
// and the in-doubt ops that landed are returned.
func replayRetryStreams(rec *serveRun, logs []*clientLog, keys [][]byte, res *ServeResult, fail failFunc) (replayed []mutation, err error) {
	srv, err := rec.serve()
	if err != nil {
		return nil, err
	}
	ctx := context.Background()
	for _, lg := range logs {
		cl, cerr := serve.NewRetryingClient(srv, lg.id, lg.seedBase^0x5EC0D, serve.RetryConfig{Priority: serve.PriorityNormal})
		if cerr != nil {
			fail("replay client %d: %v", lg.id, cerr)
			continue
		}
		if m := lg.inDoubt; m != nil {
			r, rerr := cl.DoSeq(ctx, m.seq, mutOp(keys[m.key], m.token))
			if rerr != nil {
				fail("client %d: in-doubt seq %d failed on replay: %v", lg.id, m.seq, rerr)
			} else {
				res.InDoubtReplayed++
				replayed = append(replayed, *m)
				res.MutationBytes += uint64(len(keys[m.key]) + valBytes)
				switch {
				case r.Deduped:
					res.ReplayDeduped++
				case r.Redone:
					// The recovery-time redo ran first, so the retry-time
					// redo fallback must never fire.
					fail("client %d: in-doubt seq %d hit retry-time redo after recovery replay", lg.id, m.seq)
				default:
					res.ReplayFresh++
				}
			}
		}
		if n := len(lg.acked); n > 0 {
			// Retry the last pre-crash acked op: the recovered journal
			// must answer it without executing again (a fresh apply here
			// IS a double apply, caught both ways).
			m := lg.acked[n-1]
			r, rerr := cl.DoSeq(ctx, m.seq, mutOp(keys[m.key], m.token))
			switch {
			case rerr != nil:
				fail("client %d: retry of acked seq %d failed: %v", lg.id, m.seq, rerr)
			case !r.Deduped && !r.Redone:
				fail("client %d: retry of acked seq %d re-executed fresh (double apply)", lg.id, m.seq)
			default:
				res.AckedRetryDedups++
			}
		}
	}
	srv.Stop()
	return replayed, nil
}
