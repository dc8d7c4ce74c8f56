// servecrash.go is the live-traffic crash sweep: where crashsweep.go
// power-fails a single-goroutine workload, RunServe power-fails a real
// serve.Server mid-flight while concurrent RetryingClients drive a
// YCSB-A-style mix through the exactly-once intent-journal protocol, and
// then proves end-to-end that
//
//  1. dirty ≤ effective budget at the crash instant — with the intent
//     journal's pages inside the bound, since the journal lives in an
//     ordinary budget-accounted mapping;
//  2. the battery flush completes within provisioned energy and leaves
//     the SSD byte-equal to NV-DRAM;
//  3. a recovered stack (fresh region restored from the SSD, reopened
//     heap, store, and journal, fresh server) answers every client's
//     retry stream exactly once: every acknowledged mutation is present
//     (zero lost acks), no mutation is applied twice (per-key count/sum
//     oracle), and the one in-flight-at-crash op per client lands
//     cleanly on replay — deduped, redone from the journaled image, or
//     freshly applied, whichever crash window it died in;
//  4. the journal Open rebuilds exactly the table a read-only walk of
//     the committed record prefix implies (intent.RebuildTable).
//
// Unlike the single-goroutine sweeps, a serve run is NOT bit-replayable
// from its seed: the event step a crash lands on is deterministic, but
// which client's request occupies that step depends on goroutine
// scheduling. Every invariant above is therefore checked against the
// run's own acknowledgement log — an oracle the sweep builds as the run
// happens — rather than against a re-executed shadow run.
//
// Crash containment is split: a power failure firing inside the dispatch
// loop is recovered by serve.Config.RecoverCrash (clients observe
// ErrPowerFailure); one firing during the post-Stop drain on the sweep
// goroutine is caught by Crasher.Run. Either way the Crasher records the
// crash point and the same post-failure protocol runs.
//
// Why replay is safe over a store with no transactional atomicity: the
// dispatch loop is serial, so at most ONE kvstore mutation is mid-flight
// when power fails — the in-doubt request the sweep replays. An in-place
// value update torn mid-copy is overwritten by the replay's redo image;
// a torn insert is unreachable (the chain-head pointer flip is the last,
// page-atomic write) and the replay allocates a fresh entry. Every other
// acknowledged mutation finished before the crash and is covered by page
// durability alone.
package crashsweep

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"sync"

	"viyojit/internal/blackbox"
	"viyojit/internal/core"
	"viyojit/internal/dist"
	"viyojit/internal/faultinject"
	"viyojit/internal/intent"
	"viyojit/internal/kvstore"
	"viyojit/internal/mmu"
	"viyojit/internal/nvdram"
	"viyojit/internal/obs"
	"viyojit/internal/pheap"
	"viyojit/internal/power"
	"viyojit/internal/recovery"
	"viyojit/internal/serve"
	"viyojit/internal/sim"
	"viyojit/internal/ssd"
)

// ServeConfig parameterises a live-traffic sweep. Zero values select a
// small configuration that still forces cleans, journal compactions, and
// client retries under crash fire.
type ServeConfig struct {
	// Seed drives key selection, value mixing, and backoff jitter. Crash
	// *points* replay from it; goroutine interleavings do not (see the
	// package comment on servecrash.go).
	Seed uint64
	// Clients is the number of concurrent RetryingClients; 0 selects 10.
	Clients int
	// OpsPerClient is each client's operation count; 0 selects 40.
	OpsPerClient int
	// Keys is the key-space size; 0 selects 48.
	Keys int
	// ReadFraction is the read share of each client's mix; 0 selects 0.5
	// (YCSB-A). Reads flow outside the idempotence protocol.
	ReadFraction float64
	// ZipfTheta is the key-popularity skew; 0 selects 0.99.
	ZipfTheta float64
	// HeapPages sizes the store mapping; 0 selects 64.
	HeapPages int
	// JournalPages sizes the intent-journal mapping; 0 selects 16.
	JournalPages int
	// BudgetPages is the dirty budget; 0 selects 8 — tight enough that
	// journal appends and store writes force synchronous cleans under
	// load. Note the budget alone barely opens the
	// intent-begun-but-not-completed window to the Crasher: forced
	// cleans on the fault path are synchronous and fire no queue
	// events; only a fault on a page whose asynchronous clean is still
	// in flight steps the queue mid-op, and whether that ever happens
	// is seed- and layout-dependent. Set CommitMarkers to open the
	// window deterministically.
	BudgetPages int
	// CommitMarkers plants serve-side crash points inside each
	// idempotent op's Begin→Complete critical section
	// (serve.Config.CrashPoints): one queue-event strike instant after
	// the intent record is durable and one after the mutation applies.
	// Without them, whether any crash strands an in-flight intent for
	// recovery's redo phase is left to the incidental
	// in-flight-clean-wait path. The nested sweep sets this; the plain
	// sweep's historical lattice leaves it off.
	CommitMarkers bool
	// Window is the journal's per-client dedup window; 0 selects the
	// journal default.
	Window int
	// CursorPages sizes the persistent recovery-cursor mapping; 0 maps
	// no cursor (the plain single-crash sweep). The nested sweep sets 1.
	CursorPages int
	// BlackBoxPages sizes the flight-recorder ring mapping; 0 runs
	// without a recorder. When set, every run carries a budget-accounted
	// black-box ring, the obs registry tees into it, and every crash
	// additionally audits the recovered forensic report against the
	// crash-instant oracle (see blackboxcrash.go). The blackbox sweep
	// sets 2.
	BlackBoxPages int
	// MaxCrashPoints is the number of crash points to inject; 0 selects
	// 200. The sweep re-wraps the step space (same steps, different
	// interleavings) until it has actually crashed that many runs.
	MaxCrashPoints int
	// Stride crashes at every Stride-th event step; 0 derives one from
	// the baseline run.
	Stride uint64
	// SSD overrides the backing-device configuration.
	SSD ssd.Config
	// Epoch overrides the manager's scan period (0 = 1 ms).
	Epoch sim.Duration
}

func (c ServeConfig) withDefaults() ServeConfig {
	if c.Clients == 0 {
		c.Clients = 10
	}
	if c.OpsPerClient == 0 {
		c.OpsPerClient = 40
	}
	if c.Keys == 0 {
		c.Keys = 48
	}
	if c.ReadFraction == 0 {
		c.ReadFraction = 0.5
	}
	if c.ZipfTheta == 0 {
		c.ZipfTheta = dist.ZipfianConstant
	}
	if c.HeapPages == 0 {
		c.HeapPages = 64
	}
	if c.JournalPages == 0 {
		c.JournalPages = 16
	}
	if c.BudgetPages == 0 {
		c.BudgetPages = 8
	}
	if c.MaxCrashPoints == 0 {
		c.MaxCrashPoints = 200
	}
	return c
}

// ServeResult summarises a live-traffic sweep. The evidence counters
// exist so acceptance tests can prove the sweep exercised each recovery
// path, not just that nothing failed.
type ServeResult struct {
	// BaselineEvents is the event count of the un-crashed calibration
	// run; Stride is the derived crash-point spacing over it.
	BaselineEvents uint64
	Stride         uint64
	// CrashPoints counts runs that actually power-failed mid-traffic;
	// Completed counts armed runs whose step was never reached (those
	// verified a clean shutdown instead).
	CrashPoints int
	Completed   int
	// Violations lists every broken invariant; empty means exactly-once
	// held at every crash point.
	Violations []Violation
	// MaxDirtyAtCrash is the largest dirty set seen at any crash instant
	// (≤ budget unless a violation was recorded).
	MaxDirtyAtCrash int
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
	// serve.ReplayPending pass resolved from their journaled redo images
	// — those ops' retries then dedup like any completed op.
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
	// JournalBytes is the journal record traffic across crashed runs;
	// MutationBytes is the acked mutations' key+value payload — the
	// write-amplification ratio EXPERIMENTS.md reports.
	JournalBytes  uint64
	MutationBytes uint64
	// RecorderDirtyCrashes counts crash instants at which at least one
	// flight-recorder ring page was dirty — direct evidence the ring
	// rides inside the audited dirty budget rather than beside it.
	// Zero unless BlackBoxPages > 0.
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

// serveRun is one freshly built serving stack.
type serveRun struct {
	cfg     ServeConfig
	clock   *sim.Clock
	events  *sim.Queue
	region  *nvdram.Region
	dev     *ssd.SSD
	mgr     *core.Manager
	heapM   *core.Mapping
	jM      *core.Mapping
	curM    *core.Mapping    // nil unless CursorPages > 0
	cursor  *recovery.Cursor // nil unless CursorPages > 0
	store   *kvstore.Store
	journal *intent.Journal
	srv     *serve.Server
	reg     *obs.Registry      // nil unless BlackBoxPages > 0
	bbM     *core.Mapping      // nil unless BlackBoxPages > 0
	rec     *blackbox.Recorder // nil unless BlackBoxPages > 0
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

func buildServe(cfg ServeConfig) (*serveRun, error) {
	st := &serveRun{cfg: cfg}
	st.clock = sim.NewClock()
	st.events = sim.NewQueue()
	regionPages := cfg.HeapPages + cfg.JournalPages + cfg.CursorPages + cfg.BlackBoxPages
	var err error
	st.region, err = nvdram.New(st.clock, nvdram.Config{Size: int64(regionPages) * pageSize})
	if err != nil {
		return nil, err
	}
	st.dev = ssd.New(st.clock, st.events, cfg.SSD)
	if cfg.BlackBoxPages > 0 {
		st.reg = obs.NewRegistry()
	}
	st.mgr, err = core.NewManager(st.clock, st.events, st.region, st.dev, core.Config{
		DirtyBudgetPages: cfg.BudgetPages,
		Epoch:            cfg.Epoch,
		Obs:              st.reg,
	})
	if err != nil {
		return nil, err
	}
	// Mapping order is the recovery contract: recoverServe re-Maps the
	// same names and sizes in the same order, and the first-fit
	// allocator hands back the same extents. The black box maps FIRST so
	// its ring sits at the same offset every boot.
	if cfg.BlackBoxPages > 0 {
		if st.bbM, err = st.mgr.Map("__blackbox", int64(cfg.BlackBoxPages)*pageSize); err != nil {
			return nil, err
		}
		if st.rec, err = blackbox.New(st.bbM, blackbox.Options{Now: st.clock.Now, Gate: st.bbM.TelemetryWritable}); err != nil {
			return nil, err
		}
		st.reg.SetSink(st.rec)
		st.rec.Boot(int64(cfg.BudgetPages))
	}
	if st.heapM, err = st.mgr.Map("heap", int64(cfg.HeapPages)*pageSize); err != nil {
		return nil, err
	}
	if st.jM, err = st.mgr.Map("intent", int64(cfg.JournalPages)*pageSize); err != nil {
		return nil, err
	}
	if cfg.CursorPages > 0 {
		if st.curM, err = st.mgr.Map("cursor", int64(cfg.CursorPages)*pageSize); err != nil {
			return nil, err
		}
		if st.cursor, err = recovery.CreateCursor(st.curM, nil); err != nil {
			return nil, err
		}
	}
	heap, err := pheap.Format(st.heapM)
	if err != nil {
		return nil, err
	}
	if st.store, err = kvstore.Create(heap, 64); err != nil {
		return nil, err
	}
	if st.journal, err = intent.Create(st.jM, intent.Config{Window: cfg.Window}); err != nil {
		return nil, err
	}
	st.srv, err = serve.New(st.clock, st.events, st.mgr, st.store, serve.Config{
		Journal:      st.journal,
		RecoverCrash: func(v any) bool { _, ok := faultinject.AsCrash(v); return ok },
		CrashPoints:  cfg.CommitMarkers,
	})
	if err != nil {
		return nil, err
	}
	return st, nil
}

// recoverServe rebuilds a live stack over a region restored from old's
// SSD: the warm reboot the retry streams replay against.
func recoverServe(cfg ServeConfig, old *serveRun) (*serveRun, error) {
	st := &serveRun{cfg: cfg}
	st.clock = sim.NewClock()
	st.events = sim.NewQueue()
	var err error
	st.region, err = nvdram.New(st.clock, nvdram.Config{Size: old.region.Size()})
	if err != nil {
		return nil, err
	}
	st.dev = ssd.New(st.clock, st.events, cfg.SSD)
	rrep, err := recovery.RestoreVerified(st.clock, st.region, st.dev, old.dev, nil)
	if err != nil {
		return nil, err
	}
	if !rrep.Integrity.Clean() {
		// This sweep injects no silent faults, so a page failing
		// verification is a bug, not a modelled loss.
		return nil, fmt.Errorf("restore quarantined pages %v", rrep.Integrity.Quarantined)
	}
	if cfg.BlackBoxPages > 0 {
		st.reg = obs.NewRegistry()
	}
	st.mgr, err = core.NewManager(st.clock, st.events, st.region, st.dev, core.Config{
		DirtyBudgetPages: cfg.BudgetPages,
		Epoch:            cfg.Epoch,
		Obs:              st.reg,
	})
	if err != nil {
		return nil, err
	}
	// The black-box mapping is re-Mapped first (recovery contract) and a
	// fresh recorder armed over the restored ring — but the registry is
	// NOT teed into it yet: the manager's own boot bookkeeping must not
	// overwrite crash-instant slots before the caller walks the ring.
	// The caller adopts the walk and attaches the sink (attachRecovered).
	if cfg.BlackBoxPages > 0 {
		if st.bbM, err = st.mgr.Map("__blackbox", int64(cfg.BlackBoxPages)*pageSize); err != nil {
			return nil, err
		}
		if st.rec, err = blackbox.New(st.bbM, blackbox.Options{Now: st.clock.Now, Gate: st.bbM.TelemetryWritable}); err != nil {
			return nil, err
		}
	}
	if st.heapM, err = st.mgr.Map("heap", int64(cfg.HeapPages)*pageSize); err != nil {
		return nil, err
	}
	if st.jM, err = st.mgr.Map("intent", int64(cfg.JournalPages)*pageSize); err != nil {
		return nil, err
	}
	if cfg.CursorPages > 0 {
		if st.curM, err = st.mgr.Map("cursor", int64(cfg.CursorPages)*pageSize); err != nil {
			return nil, err
		}
		if st.cursor, err = recovery.OpenCursor(st.curM, nil); err != nil {
			return nil, err
		}
	}
	heap, err := pheap.Open(st.heapM)
	if err != nil {
		return nil, fmt.Errorf("reopening heap: %w", err)
	}
	if st.store, err = kvstore.Open(heap); err != nil {
		return nil, fmt.Errorf("reopening store: %w", err)
	}
	if st.journal, err = intent.Open(st.jM, nil); err != nil {
		return nil, fmt.Errorf("reopening journal: %w", err)
	}
	st.srv, err = serve.New(st.clock, st.events, st.mgr, st.store, serve.Config{Journal: st.journal})
	if err != nil {
		return nil, err
	}
	return st, nil
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
	zipf := dist.NewZipfian(rng.Fork(), int64(cfg.Keys), cfg.ZipfTheta)
	opRNG := rng.Fork()
	ctx := context.Background()
	for op := 0; op < cfg.OpsPerClient; op++ {
		k := int(zipf.Next())
		if opRNG.Float64() < cfg.ReadFraction {
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

// oracleExpect folds every op that must have applied exactly once into
// the per-key (count, sum) the recovered store has to show.
func oracleExpect(logs []*clientLog, replayed []mutation) map[int][2]uint64 {
	want := make(map[int][2]uint64)
	add := func(m mutation) {
		cs := want[m.key]
		cs[0]++
		cs[1] += m.token
		want[m.key] = cs
	}
	for _, lg := range logs {
		for _, m := range lg.acked {
			add(m)
		}
	}
	for _, m := range replayed {
		add(m)
	}
	return want
}

// checkOracle compares the store against the expected multiset.
func checkOracle(store *kvstore.Store, keys [][]byte, want map[int][2]uint64, fail func(string, ...any)) {
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
func compareTables(opened, walked map[uint64]intent.ClientSnapshot, fail func(string, ...any)) {
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

// mappingDirtyAt reports whether any page of the mapping diverges from
// its durable copy — i.e. was dirty at the crash instant. Called before
// the battery flush.
func mappingDirtyAt(st *serveRun, mp *core.Mapping) bool {
	lo := mp.Base() / pageSize
	hi := (mp.Base() + mp.Size() - 1) / pageSize
	for p := lo; p <= hi; p++ {
		page := mmu.PageID(p)
		live := st.region.RawPage(page)
		durable, ok := st.dev.Durable(page)
		if !ok {
			for _, b := range live {
				if b != 0 {
					return true
				}
			}
			continue
		}
		if !bytes.Equal(live, durable) {
			return true
		}
	}
	return false
}

// runServePoint executes one armed run: serve, crash (or complete),
// flush, recover, replay, verify.
func runServePoint(cfg ServeConfig, step uint64, keys [][]byte, res *ServeResult) error {
	run, err := buildServe(cfg)
	if err != nil {
		return err
	}
	crasher := faultinject.NewCrasher(run.events)
	crasher.ArmAt(step)
	if err := run.srv.Start(); err != nil {
		return err
	}
	var logs []*clientLog
	// A crash inside the dispatch loop is contained by RecoverCrash; one
	// firing during the post-Stop drain lands here and Run catches it.
	crasher.Run(func() {
		logs = driveClients(cfg, run.srv, keys)
		run.srv.Stop()
		if _, crashed := crasher.Crashed(); !crashed {
			// Clean shutdown: the recorder stops before the drain, or the
			// dirty gauge falling per clean would tee appends that
			// re-dirty ring pages under the drain loop. Nil-safe.
			run.rec.Seal()
			run.mgr.FlushAll()
		}
	})
	cp, crashed := crasher.Crashed()
	crasher.Disarm()

	var out []Violation
	fail := func(format string, args ...any) {
		out = append(out, Violation{Step: cp.Step, Msg: fmt.Sprintf(format, args...)})
	}
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

	if !crashed {
		// Armed step past this run's end: verify the clean shutdown. No
		// client may hold an in-doubt op — the server never failed.
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
		res.Violations = append(res.Violations, out...)
		return nil
	}
	res.CrashPoints++

	// (1) The budget bound at the crash instant, journal and recorder
	// pages included.
	dirty, budget := run.mgr.DirtyCount(), run.mgr.EffectiveDirtyBudget()
	if dirty > res.MaxDirtyAtCrash {
		res.MaxDirtyAtCrash = dirty
	}
	if dirty > budget {
		fail("dirty count %d exceeds effective budget %d at crash", dirty, budget)
	}
	if mappingDirtyAt(run, run.jM) {
		res.JournalDirtyCrashes++
	}
	// Capture the crash-instant oracle from the live (about-to-die)
	// stack, then seal the recorder so the flush's own bookkeeping
	// cannot move the ring past the crash instant.
	oracle := captureBlackBoxOracle(run, res)
	run.rec.Seal()

	// (2) Battery flush within the energy provisioned for the budget.
	pm := power.Default()
	report := run.mgr.PowerFail(pm, flushEnergy(Config{BudgetPages: cfg.BudgetPages}, run.dev, pm, run.region.Size()))
	if !report.Survived {
		fail("flush of %d pages used %.3f J of %.3f J provisioned",
			report.DirtyAtFailure, report.EnergyUsedJoules, report.EnergyAvailableJoules)
	}
	if err := run.mgr.VerifyDurability(); err != nil {
		fail("durability: %v", err)
	}
	res.JournalBytes += run.journal.Stats().AppendBytes

	// (2b) Walk the post-flush ring and audit the forensic report
	// against the oracle captured the instant before the flush.
	bbWalk := auditBlackBoxWalk(run, oracle, res, fail)

	// (3) Recover a live stack and check the rebuilt dedup table against
	// the committed record prefix before any new traffic touches it.
	rec, err := recoverServe(cfg, run)
	if err != nil {
		fail("recovery: %v", err)
		res.Violations = append(res.Violations, out...)
		return nil
	}
	attachRecovered(rec, bbWalk)
	if rec.journal.TornOpen() {
		res.TornOpens++
	}
	walked, walkTorn, err := intent.RebuildTable(rec.jM)
	if err != nil {
		fail("record walk: %v", err)
	} else {
		if walkTorn != rec.journal.TornOpen() {
			fail("torn-tail verdicts diverge: Open %v, record walk %v", rec.journal.TornOpen(), walkTorn)
		}
		compareTables(rec.journal.Snapshot(), walked, fail)
	}

	// Resolve in-flight intents BEFORE serving resumes — a redo image is
	// only sound against pre-crash state (see serve.ReplayPending). A
	// serial dispatch loop can leave at most one.
	redone, err := serve.ReplayPending(rec.store, rec.journal)
	if err != nil {
		fail("recovery redo: %v", err)
	}
	if redone > 1 {
		fail("recovery found %d in-flight intents; a serial server can leave at most one", redone)
	}
	res.ReplayRedone += redone

	// (4) Replay every client's retry stream: the in-doubt op must land
	// exactly once, and a retried already-acked op must be absorbed.
	tally, err := replayRetryStreams(rec, logs, keys, fail)
	if err != nil {
		return err
	}
	res.InDoubtReplayed += tally.inDoubt
	res.ReplayDeduped += tally.deduped
	res.ReplayFresh += tally.fresh
	res.AckedRetryDedups += tally.ackedDedups
	res.MutationBytes += tally.mutationBytes

	// (5) The oracle: recovered store == every acked-or-replayed
	// mutation applied exactly once.
	checkOracle(rec.store, keys, oracleExpect(logs, tally.replayed), fail)
	rec.mgr.Close()
	res.Violations = append(res.Violations, out...)
	return nil
}

// replayTally is what one recovered server's retry-stream replay
// produced — the shared verdict of the single-crash and nested sweeps.
type replayTally struct {
	inDoubt       int
	deduped       int
	fresh         int
	ackedDedups   int
	mutationBytes uint64
	replayed      []mutation
}

// replayRetryStreams drives every client's post-crash retry protocol
// against a recovered server: the in-doubt op must land exactly once
// (deduped from the result cache or freshly applied — never a
// retry-time redo, since recovery-time ReplayPending ran first), and a
// retried already-acked op must be absorbed without re-execution. The
// server is started and stopped here.
func replayRetryStreams(rec *serveRun, logs []*clientLog, keys [][]byte, fail func(string, ...any)) (replayTally, error) {
	var tally replayTally
	if err := rec.srv.Start(); err != nil {
		return tally, err
	}
	ctx := context.Background()
	for _, lg := range logs {
		cl, cerr := serve.NewRetryingClient(rec.srv, lg.id, lg.seedBase^0x5EC0D, serve.RetryConfig{Priority: serve.PriorityNormal})
		if cerr != nil {
			fail("replay client %d: %v", lg.id, cerr)
			continue
		}
		if m := lg.inDoubt; m != nil {
			r, rerr := cl.DoSeq(ctx, m.seq, mutOp(keys[m.key], m.token))
			if rerr != nil {
				fail("client %d: in-doubt seq %d failed on replay: %v", lg.id, m.seq, rerr)
			} else {
				tally.inDoubt++
				tally.replayed = append(tally.replayed, *m)
				tally.mutationBytes += uint64(len(keys[m.key]) + valBytes)
				switch {
				case r.Deduped:
					tally.deduped++
				case r.Redone:
					// ReplayPending ran first, so the retry-time redo
					// fallback must never fire.
					fail("client %d: in-doubt seq %d hit retry-time redo after recovery replay", lg.id, m.seq)
				default:
					tally.fresh++
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
				tally.ackedDedups++
			}
		}
	}
	rec.srv.Stop()
	return tally, nil
}

// RunServe executes the live-traffic sweep: one un-crashed calibration
// run sizes the step space, then fresh serving runs crash at swept
// steps. The step lattice wraps until MaxCrashPoints runs have actually
// crashed — revisiting a step is productive here, since each run's
// goroutine interleaving is its own.
func RunServe(cfg ServeConfig) (ServeResult, error) {
	cfg = cfg.withDefaults()
	var res ServeResult
	keys := makeKeys(cfg.Keys)

	base, err := buildServe(cfg)
	if err != nil {
		return res, err
	}
	if err := base.srv.Start(); err != nil {
		return res, err
	}
	logs := driveClients(cfg, base.srv, keys)
	base.srv.Stop()
	res.BaselineEvents = base.events.Fired()
	for _, lg := range logs {
		if lg.err != nil {
			return res, fmt.Errorf("crashsweep: baseline client: %w", lg.err)
		}
		if lg.inDoubt != nil {
			return res, fmt.Errorf("crashsweep: baseline left client %d seq %d unacked", lg.id, lg.inDoubt.seq)
		}
	}
	base.rec.Seal() // nil-safe; see the clean-shutdown seal in runServePoint
	base.mgr.FlushAll()
	if n := base.mgr.DirtyCount(); n != 0 {
		return res, fmt.Errorf("crashsweep: baseline left %d dirty pages after flush", n)
	}
	base.mgr.Close()
	if res.BaselineEvents == 0 {
		return res, fmt.Errorf("crashsweep: baseline fired no events")
	}

	stride := cfg.Stride
	if stride == 0 {
		stride = res.BaselineEvents / uint64(cfg.MaxCrashPoints)
		if stride == 0 {
			stride = 1
		}
	}
	res.Stride = stride

	// Safety bound: completed (never-crashed) runs consume an attempt
	// without advancing CrashPoints, so cap total attempts.
	maxAttempts := 4 * cfg.MaxCrashPoints
	for i := 1; res.CrashPoints < cfg.MaxCrashPoints && i <= maxAttempts; i++ {
		step := uint64(i) * stride
		if step > res.BaselineEvents {
			// Wrap, offset by the pass number so later passes interleave
			// the earlier lattice.
			pass := step / res.BaselineEvents
			step = step%res.BaselineEvents + pass
			if step == 0 {
				step = 1
			}
		}
		if err := runServePoint(cfg, step, keys, &res); err != nil {
			return res, fmt.Errorf("crashsweep: serve run armed at step %d: %w", step, err)
		}
	}
	return res, nil
}
