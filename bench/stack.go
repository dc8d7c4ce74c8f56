package main

import (
	"bytes"
	"encoding/binary"
	"fmt"

	"viyojit"
	"viyojit/internal/battery"
	"viyojit/internal/kvstore"
	"viyojit/internal/power"
)

// Scale: the repo's evaluation default (experiments.DefaultHeapBytes and
// the record count YCSBConfig derives from it), so the benchmark's
// numbers are comparable with EXPERIMENTS.md.
const (
	defaultHeap  = 32 << 20 // region 64 MiB, 11 468 records
	pageSize     = 4096
	valueSize    = 1024
	journalBytes = 1 << 20
	idemClients  = 16

	storeName   = "heap"
	journalName = "intent"

	// ssdWriteBW is the ssd package's default write bandwidth; build
	// checks the device agrees, so the battery sizing below cannot drift
	// from the stack it provisions.
	ssdWriteBW = 2 << 30
	// conservativeBW applies viyojit.New's default bandwidth derating
	// (0.8); depthOfDischarge is battery.New's default.
	conservativeBW   = ssdWriteBW * 8 / 10
	depthOfDischarge = 0.5
	// flushOverheadSeconds is the fixed flush-time allowance viyojit.New
	// reserves before converting joules into pages (its
	// fixedFlushOverhead); the battery is given that much on top, as
	// New's own default provisioning gives it, or an 11 % battery would
	// back only 8 %.
	flushOverheadSeconds = 500e-6
)

// stack is one assembled system under test, built through the public
// facade exactly as a user would build it.
type stack struct {
	sys     *viyojit.System
	store   *kvstore.Store
	journal *viyojit.IntentJournal // nil unless the workload is idempotent
	// tr is set on a traced run: the store and the journal then sit on
	// timing wrappers (trace.go).
	tr *tracer
}

// batteryFor provisions a battery whose effective energy flushes pages
// dirty pages of a region of regionBytes: the dirty budget is never set
// directly, it falls out of the joules, as it does in a deployment. The
// health monitor re-derives it as it runs, so the observed budget sits a
// few per cent below pages (reported as core.budget_pages_min/max).
func batteryFor(pages int, regionBytes int64) viyojit.BatteryConfig {
	pm := power.Default()
	joules := battery.JoulesForPages(pm, pages, conservativeBW, regionBytes, pageSize) +
		pm.FlushWatts(regionBytes)*flushOverheadSeconds
	return viyojit.BatteryConfig{CapacityJoules: joules / depthOfDischarge}
}

func (w workload) config() viyojit.Config {
	return viyojit.Config{
		NVDRAMSize: 2 * w.heapBytes,
		Battery:    batteryFor(int(float64(w.heapBytes)*w.budgetFrac/pageSize), 2*w.heapBytes),
		BlackBox:   w.blackBox,
	}
}

// build assembles the workload's stack and loads the initial records.
// On a traced run the store and journal are formatted by hand over a
// timing wrapper — the same three calls System.NewStore and
// System.NewIntentJournal make, with the wrapper between the mapping and
// the heap — so mapping reads and writes can be attributed.
func build(w workload, tr *tracer) (*stack, error) {
	sys, err := viyojit.New(w.config())
	if err != nil {
		return nil, err
	}
	if bw := sys.SSD().Config().WriteBandwidth; bw != ssdWriteBW {
		sys.Close()
		return nil, fmt.Errorf("bench: ssd write bandwidth %d, battery was sized for %d", bw, ssdWriteBW)
	}
	st := &stack{sys: sys, tr: tr}
	if err := st.attach(w, true); err != nil {
		sys.Close()
		return nil, err
	}
	val := make([]byte, valueSize)
	for rec := int64(0); rec < int64(w.records()); rec++ {
		if err := st.store.Put(recordKey(rec), recordValue(val, rec, 0)); err != nil {
			sys.Close()
			return nil, fmt.Errorf("bench: load record %d: %w", rec, err)
		}
		sys.Pump()
	}
	return st, nil
}

// attach creates (fresh) or reopens the store and the journal, in the one
// order both paths must share: mapping layout is first-fit.
func (st *stack) attach(w workload, fresh bool) error {
	var err error
	switch {
	case st.tr != nil:
		st.tr.sys = st.sys
		st.store, err = tracedStore(st.sys, st.tr, w.heapBytes, fresh)
	case fresh:
		st.store, err = st.sys.NewStore(storeName, w.heapBytes)
	default:
		st.store, err = st.sys.OpenStore(storeName, w.heapBytes)
	}
	if err != nil || !w.idem {
		return err
	}
	switch {
	case st.tr != nil:
		st.journal, err = tracedJournal(st.sys, st.tr, fresh)
	case fresh:
		st.journal, err = st.sys.NewIntentJournal(journalName, journalBytes, viyojit.IntentConfig{})
	default:
		st.journal, err = st.sys.OpenIntentJournal(journalName, journalBytes)
	}
	return err
}

// powerCycle is one failure and reboot: stop serving, cut power, check
// the guarantee, recover, reopen, replay. It returns the recovered stack;
// the old one is closed by Recover.
func (st *stack) powerCycle(w workload, pf *powerfailStats) (*stack, error) {
	if srv := st.sys.Server(); srv != nil {
		srv.Stop()
	}
	h0 := hostNow()
	report := st.sys.SimulatePowerFailure()
	pf.flushHost += hostNow() - h0
	if !report.Survived {
		return nil, fmt.Errorf("bench: flush of %d pages used %.3f J of %.3f J: battery did not cover it",
			report.DirtyAtFailure, report.EnergyUsedJoules, report.EnergyAvailableJoules)
	}
	if err := st.sys.VerifyDurability(); err != nil {
		return nil, fmt.Errorf("bench: after power failure: %w", err)
	}
	pf.note(report)

	h0 = hostNow()
	rec, restore, err := st.sys.Recover()
	if err != nil {
		return nil, fmt.Errorf("bench: recover: %w", err)
	}
	pf.restoreHost += hostNow() - h0
	if n := len(restore.Integrity.Quarantined); n != 0 {
		rec.Close()
		return nil, fmt.Errorf("bench: recover quarantined %d pages", n)
	}
	pf.restoreV = append(pf.restoreV, int64(restore.RestoreTime))
	pf.pagesRestored += restore.PagesRestored

	h0 = hostNow()
	next := &stack{sys: rec, tr: st.tr}
	if err := next.attach(w, false); err != nil {
		rec.Close()
		return nil, fmt.Errorf("bench: reopen: %w", err)
	}
	if next.journal != nil {
		stats, err := rec.ReplayPendingWith(next.store, next.journal, nil)
		if err != nil {
			rec.Close()
			return nil, fmt.Errorf("bench: replay: %w", err)
		}
		pf.replayed += stats.Redone
	}
	pf.reopenHost += hostNow() - h0
	return next, nil
}

// recordKey is the YCSB-style key of record rec.
func recordKey(rec int64) []byte {
	k := []byte("user000000000000")
	for p := len(k) - 1; rec > 0; p-- {
		k[p] = byte('0' + rec%10)
		rec /= 10
	}
	return k
}

// recordValue fills buf with the value of (rec, version): distinct per
// pair, so the oracle can tell which write a key holds.
func recordValue(buf []byte, rec int64, version uint64) []byte {
	binary.LittleEndian.PutUint64(buf[0:], uint64(rec))
	binary.LittleEndian.PutUint64(buf[8:], version)
	for i := 16; i < len(buf); i++ {
		buf[i] = byte(0x40 + i%32)
	}
	return buf
}

// oracle is the correctness reference: for each record, the version of
// the last acknowledged write, plus the versions of writes that were
// submitted but not acknowledged since then (shed or failed: the store
// may hold either).
type oracle struct {
	acked   []uint64
	unacked map[int64][]uint64
}

func newOracle(records int) *oracle {
	return &oracle{acked: make([]uint64, records), unacked: map[int64][]uint64{}}
}

func (o *oracle) ack(rec int64, version uint64) {
	o.acked[rec] = version
	delete(o.unacked, rec)
}

func (o *oracle) fail(rec int64, version uint64) {
	o.unacked[rec] = append(o.unacked[rec], version)
}

// check compares one record on store with the oracle.
func (o *oracle) check(store *kvstore.Store, rec int64, scratch []byte) error {
	got, ok, err := store.Get(recordKey(rec))
	if err != nil {
		return fmt.Errorf("record %d: %w", rec, err)
	}
	if !ok {
		return fmt.Errorf("record %d: missing", rec)
	}
	if bytes.Equal(got, recordValue(scratch, rec, o.acked[rec])) {
		return nil
	}
	for _, v := range o.unacked[rec] {
		if bytes.Equal(got, recordValue(scratch, rec, v)) {
			return nil
		}
	}
	if len(got) != valueSize {
		return fmt.Errorf("record %d: value of %d bytes, want %d", rec, len(got), valueSize)
	}
	return fmt.Errorf("record %d: holds version %d, last acknowledged was %d",
		rec, binary.LittleEndian.Uint64(got[8:]), o.acked[rec])
}

// checkAll compares every record, and the record count, with the oracle.
func (o *oracle) checkAll(store *kvstore.Store) error {
	n, err := store.Len()
	if err != nil {
		return err
	}
	if n != uint64(len(o.acked)) {
		return fmt.Errorf("store holds %d records, want %d", n, len(o.acked))
	}
	scratch := make([]byte, valueSize)
	for rec := int64(0); rec < int64(len(o.acked)); rec++ {
		if err := o.check(store, rec, scratch); err != nil {
			return err
		}
	}
	return nil
}
