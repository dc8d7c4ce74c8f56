package viyojit

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"viyojit/internal/sim"
)

// TestBlackBoxForensicsAcrossPowerFailure is the facade-level loop: a
// recorder-enabled system takes writes, crashes, recovers, and the
// forensic report read from the battery-backed ring names the
// crash-instant dirty level and ladder state the live system actually
// had.
func TestBlackBoxForensicsAcrossPowerFailure(t *testing.T) {
	sys := newTestSystem(t, Config{BlackBox: true})
	if sys.BlackBox() == nil {
		t.Fatal("BlackBox() nil with Config.BlackBox set")
	}
	m, err := sys.Map("heap", 4<<20)
	if err != nil {
		t.Fatal(err)
	}
	buf := []byte("forensics payload")
	for i := 0; i < 200; i++ {
		if err := m.WriteAt(buf, int64(i)*4096); err != nil {
			t.Fatal(err)
		}
	}
	sys.AdvanceTime(50 * sim.Millisecond)

	// A live walk must already see the boot record and gauge traffic.
	live, err := sys.BlackBoxReport()
	if err != nil {
		t.Fatal(err)
	}
	if len(live.Walk.Records) == 0 || live.Walk.LastSeq == 0 {
		t.Fatalf("live report empty: %+v", live.Walk)
	}

	preDirty := sys.DirtyCount()
	preLadder := int64(sys.HealthState())
	preSeq := sys.BlackBox().LastSeq()
	preDrops := sys.BlackBox().Dropped()

	report := sys.SimulatePowerFailure()
	if !report.Survived {
		t.Fatalf("flush not covered: %+v", report)
	}
	if err := sys.VerifyDurability(); err != nil {
		t.Fatal(err)
	}
	// The seal froze the recorder at the crash instant.
	if got := sys.BlackBox().LastSeq(); got != preSeq {
		t.Fatalf("recorder advanced past the seal: %d -> %d", preSeq, got)
	}

	recovered, _, err := sys.Recover()
	if err != nil {
		t.Fatal(err)
	}
	rep := recovered.Forensics()
	if rep == nil {
		t.Fatal("Forensics() nil after recovery with black box enabled")
	}
	if rep.Walk.LastSeq != preSeq {
		t.Fatalf("adopted seq %d, want crash-instant %d", rep.Walk.LastSeq, preSeq)
	}
	if rep.Walk.Torn != 0 {
		t.Fatalf("clean shutdown left %d torn slots", rep.Walk.Torn)
	}
	if preDrops == 0 {
		if rep.CrashDirty != int64(preDirty) {
			t.Fatalf("crash-instant dirty: report %d, oracle %d", rep.CrashDirty, preDirty)
		}
		// The ladder gauge tees only on transitions; on a run that stayed
		// Healthy with the boot record aged out of the window, -1
		// (unknowable) is the honest report. Anything else must match.
		if rep.FinalLadder != -1 && rep.FinalLadder != preLadder {
			t.Fatalf("final ladder: report %d, oracle %d", rep.FinalLadder, preLadder)
		}
		if rep.Complete && rep.FinalLadder == -1 {
			t.Fatal("complete history reported an unknowable ladder")
		}
	}
	if len(rep.Dirty) == 0 {
		t.Fatal("no dirty trajectory recorded")
	}
	var out bytes.Buffer
	if err := rep.WriteText(&out, 10); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "crash instant") {
		t.Fatalf("report text lacks crash instant:\n%s", out.String())
	}

	// The recovered recorder continues the sequence — post-crash records
	// sort after pre-crash ones, and the recovery itself left a record.
	if got := recovered.BlackBox().LastSeq(); got <= preSeq {
		t.Fatalf("recovered recorder seq %d, want > %d", got, preSeq)
	}
}

// TestBlackBoxFlushAllConverges: a clean shutdown with the recorder on
// must drain — the quiesce keeps the dirty-gauge tee from re-dirtying
// ring pages under FlushAll — and leave the SSD byte-equal.
func TestBlackBoxFlushAllConverges(t *testing.T) {
	sys := newTestSystem(t, Config{BlackBox: true})
	m, err := sys.Map("heap", 2<<20)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if err := m.WriteAt([]byte("drain me"), int64(i)*4096); err != nil {
			t.Fatal(err)
		}
	}
	sys.FlushAll()
	if n := sys.DirtyCount(); n != 0 {
		t.Fatalf("FlushAll left %d dirty pages", n)
	}
	if err := sys.VerifyDurability(); err != nil {
		t.Fatal(err)
	}
	// The recorder resumed: later traffic still lands in the ring.
	seq := sys.BlackBox().LastSeq()
	if err := m.WriteAt([]byte("post-flush"), 0); err != nil {
		t.Fatal(err)
	}
	if got := sys.BlackBox().LastSeq(); got <= seq {
		t.Fatalf("recorder did not resume after FlushAll: seq %d -> %d", seq, got)
	}
}

// TestBlackBoxDisabledAccessors: the default configuration pays nothing
// and the accessors say so.
func TestBlackBoxDisabledAccessors(t *testing.T) {
	sys := newTestSystem(t, Config{})
	if sys.BlackBox() != nil {
		t.Fatal("recorder present without Config.BlackBox")
	}
	if _, err := sys.BlackBoxReport(); err == nil {
		t.Fatal("BlackBoxReport succeeded with recorder disabled")
	}
	if sys.Forensics() != nil {
		t.Fatal("Forensics non-nil on a fresh system")
	}
}

// TestBlackBoxOnePageBudgetWriteReturns: with the recorder on and a
// one-page budget, an application write must return. Its admission waits
// for the ring page's clean; the recorder logs that clean's completion,
// and an append that took the last free page would re-dirty the ring
// and keep the dirty set from ever falling. The write runs on its own
// goroutine so that a hang fails the test instead of stalling it.
func TestBlackBoxOnePageBudgetWriteReturns(t *testing.T) {
	for _, size := range []int64{16 << 10, 32 << 10, 56 << 10} {
		sys := newTestSystem(t, Config{NVDRAMSize: size, BlackBox: true})
		m, err := sys.Map("heap", 4096)
		if err != nil {
			t.Fatal(err)
		}
		done := make(chan error, 1)
		go func() { done <- m.WriteAt([]byte("one"), 0) }()
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("size %d: %v", size, err)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("size %d: the first write did not return within 10 s", size)
		}
		if got, budget := sys.DirtyCount(), sys.DirtyBudget(); got > budget {
			t.Fatalf("size %d: dirty %d over budget %d", size, got, budget)
		}
	}
}
