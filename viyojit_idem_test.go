package viyojit

import (
	"bytes"
	"context"
	"errors"
	"testing"
)

// The facade's exactly-once contract end to end: idempotent mutations
// through Serve, a power failure, Recover, journal reopen, and the same
// (client, seq) pairs replayed against the recovered system — every
// retry answered from the rebuilt dedup table, nothing applied twice.
func TestExactlyOnceAcrossPowerCycle(t *testing.T) {
	sys := newTestSystem(t, Config{DisableScrubber: true, DisableHealthMonitor: true})
	store, err := sys.NewStore("store", 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	j, err := sys.NewIntentJournal("intent", 64<<10, IntentConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Serve(store, ServeConfig{Journal: j}); err != nil {
		t.Fatal(err)
	}

	ctx := context.Background()
	cl, err := sys.NewRetryingClient(7, 0xFACADE, RetryConfig{})
	if err != nil {
		t.Fatal(err)
	}
	inc := func() IdemOp {
		return IdemOp{Kind: IdemRMW, Key: []byte("ctr"), Modify: func(old []byte, ok bool) []byte {
			if !ok {
				return []byte{1}
			}
			return []byte{old[0] + 1}
		}}
	}
	var seqs []uint64
	for i := 0; i < 3; i++ {
		res, seq, err := cl.Do(ctx, inc())
		if err != nil {
			t.Fatal(err)
		}
		if res.Deduped || !bytes.Equal(res.Value, []byte{byte(i + 1)}) {
			t.Fatalf("increment %d: %+v", i, res)
		}
		seqs = append(seqs, seq)
	}
	// A live retry of an acked seq dedups server-side.
	if res, err := sys.SubmitIdempotent(ctx, 7, seqs[2], inc(), ServeRequest{}); err != nil || !res.Deduped {
		t.Fatalf("pre-crash retry: %+v err %v", res, err)
	}

	// Power cycle: stop serving, cut power, verify, reboot warm.
	sys.Server().Stop()
	report := sys.SimulatePowerFailure()
	if !report.Survived {
		t.Fatalf("provisioned battery did not cover the flush: %+v", report)
	}
	recovered, _, err := sys.Recover()
	if err != nil {
		t.Fatal(err)
	}
	defer recovered.Close()

	// Reopen in creation order so mappings re-attach to restored bytes.
	store2, err := recovered.OpenStore("store", 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	j2, err := recovered.OpenIntentJournal("intent", 64<<10)
	if err != nil {
		t.Fatal(err)
	}
	if j2.TornOpen() {
		t.Fatal("clean shutdown produced a torn journal tail")
	}
	// Nothing was in flight at this (clean-stop) failure.
	if st, err := recovered.ReplayPendingWith(store2, j2, nil); err != nil || st.Redone != 0 {
		t.Fatalf("ReplayPendingWith redid %d, %v; want 0, nil", st.Redone, err)
	}
	srv2, err := recovered.Serve(store2, ServeConfig{Journal: j2})
	if err != nil {
		t.Fatal(err)
	}

	// The client's retry stream, replayed: all acks swallowed by the
	// power cut must come back from the rebuilt dedup table.
	cl2, err := recovered.NewRetryingClient(7, 0xFACADE+1, RetryConfig{})
	if err != nil {
		t.Fatal(err)
	}
	for i, seq := range seqs {
		res, err := cl2.DoSeq(ctx, seq, inc())
		if err != nil {
			t.Fatalf("replay of seq %d: %v", seq, err)
		}
		if !res.Deduped || !bytes.Equal(res.Value, []byte{byte(i + 1)}) {
			t.Fatalf("replay of seq %d re-executed: %+v", seq, res)
		}
	}
	// New work continues the stream exactly where it left off.
	res, err := cl2.DoSeq(ctx, seqs[len(seqs)-1]+1, inc())
	if err != nil || !bytes.Equal(res.Value, []byte{4}) {
		t.Fatalf("post-recovery increment: %+v err %v", res, err)
	}
	v, err := srv2.Submit(ctx, ServeRequest{Class: ClassBackground, Priority: PriorityHigh, Op: func(e ServeExec) (any, error) {
		val, ok, err := e.Store.Get([]byte("ctr"))
		if err != nil || !ok {
			return nil, err
		}
		return append([]byte(nil), val...), nil
	}})
	if err != nil || !bytes.Equal(v.Value.([]byte), []byte{4}) {
		t.Fatalf("counter after power cycle = %v, err %v; want 4 (exactly once)", v.Value, err)
	}
}

// The facade surfaces the serving error taxonomy with its retryability
// classification intact.
func TestFacadeErrorTaxonomy(t *testing.T) {
	for _, c := range []struct {
		err       error
		retryable bool
	}{
		{ErrOverloaded, true},
		{ErrDeadlineExceeded, true},
		{ErrPowerFailure, true},
		{ErrReadOnly, false},
		{ErrServerClosed, false},
		{ErrStaleSeq, false},
		{ErrSeqReuse, false},
	} {
		if got := Retryable(c.err); got != c.retryable {
			t.Errorf("Retryable(%v) = %v, want %v", c.err, got, c.retryable)
		}
	}
	if !errors.Is(ErrRetriesExhausted, ErrRetriesExhausted) {
		t.Fatal("ErrRetriesExhausted must match itself")
	}
}
