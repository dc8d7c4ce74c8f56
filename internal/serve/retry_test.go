package serve

import (
	"bytes"
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"viyojit/internal/intent"
)

// waitFor polls cond (real-time bounded) — for coordinating with the
// retry loop's virtual-time backoffs.
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition never reached")
		}
		time.Sleep(time.Millisecond)
	}
}

func TestRetryingClientSucceedsAfterTransientOverload(t *testing.T) {
	h := newIdemHarness(t, 64, 64<<10, Config{MaxQueue: 4})
	cl, err := NewRetryingClient(h.srv, 11, 0x11, RetryConfig{MaxAttempts: 50})
	if err != nil {
		t.Fatal(err)
	}

	// Hold the stack and fill the queue, so the client's first
	// attempts shed with ErrOverloaded at admission.
	_, release, gdone := gate(t, h.srv)
	var handles []*Handle
	for i := 0; i < 4; i++ {
		hd, err := h.srv.SubmitAsync(put("fill", "x"))
		if err != nil {
			t.Fatal(err)
		}
		handles = append(handles, hd)
	}

	type out struct {
		res IdemResult
		seq uint64
		err error
	}
	doDone := make(chan out, 1)
	go func() {
		res, seq, err := cl.Do(context.Background(), IdemOp{Kind: IdemPut, Key: []byte("rk"), Value: []byte("rv")})
		doDone <- out{res, seq, err}
	}()

	// Wait until the client has drawn at least one overload rejection,
	// then unblock the queue so a later attempt lands.
	waitFor(t, func() bool { return h.srv.Stats().ShedOverload >= 1 })
	close(release)
	o := <-doDone
	if o.err != nil {
		t.Fatalf("Do failed: %v (retries %d)", o.err, cl.Retries())
	}
	if o.seq != 1 || cl.NextSeq() != 2 {
		t.Fatalf("seq accounting: used %d next %d", o.seq, cl.NextSeq())
	}
	if cl.Retries() == 0 {
		t.Fatal("expected at least one retry")
	}
	for _, hd := range handles {
		if _, err := hd.Wait(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	v, ok, err := storeGet(h, "rk")
	if err != nil || !ok || !bytes.Equal(v, []byte("rv")) {
		t.Fatalf("store state after retried put: %v %v %v", v, ok, err)
	}
	if err := <-gdone; err != nil {
		t.Fatal(err)
	}
}

func TestRetryingClientExhaustsOnPersistentRejection(t *testing.T) {
	// A minimum-size journal whose dedup table caches two fat
	// read-modify-write results — state it must hold, since a retry of an
	// RMW carries no value — has no room for a third fat intent even after
	// compaction, so every attempt draws the journal-full ErrOverloaded
	// mapping: a persistent retryable error. (Fat Puts would not do: a
	// done Put caches nothing.)
	h := newIdemHarness(t, 64, intent.MinStoreBytes, Config{})
	ctx := context.Background()
	fat := bytes.Repeat([]byte("z"), 1800)
	grow := func([]byte, bool) []byte { return fat }
	for s := uint64(1); s <= 2; s++ {
		if _, err := h.srv.SubmitIdempotent(ctx, 5, s, IdemOp{Kind: IdemRMW, Key: []byte{byte(s)}, Modify: grow, Tag: s}, Request{}); err != nil {
			t.Fatalf("setup rmw %d: %v", s, err)
		}
	}
	cl, err := NewRetryingClient(h.srv, 6, 0x22, RetryConfig{MaxAttempts: 4})
	if err != nil {
		t.Fatal(err)
	}
	_, _, derr := cl.Do(ctx, IdemOp{Kind: IdemPut, Key: []byte("big"), Value: fat})
	if derr == nil {
		t.Fatal("expected failure")
	}
	if !errors.Is(derr, ErrRetriesExhausted) || !errors.Is(derr, ErrOverloaded) {
		t.Fatalf("err = %v, want ErrRetriesExhausted wrapping ErrOverloaded", derr)
	}
	if !strings.Contains(derr.Error(), "after 4 attempts") || cl.Retries() != 3 {
		t.Fatalf("err = %v after %d retries, want 4 attempts", derr, cl.Retries())
	}
}

func TestRetryingClientDoesNotRetryNonRetryable(t *testing.T) {
	h := newIdemHarness(t, 64, 64<<10, Config{})
	ctx := context.Background()
	cl, err := NewRetryingClient(h.srv, 7, 0x33, RetryConfig{MaxAttempts: 10})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < intent.DefaultWindow+2; i++ {
		if _, _, err := cl.Do(ctx, IdemOp{Kind: IdemPut, Key: []byte("k"), Value: []byte("v")}); err != nil {
			t.Fatal(err)
		}
	}
	// Replaying a GC'd seq is a protocol violation: typed, not retried.
	before := cl.Retries()
	if _, err := cl.DoSeq(ctx, 1, IdemOp{Kind: IdemPut, Key: []byte("k"), Value: []byte("v")}); !errors.Is(err, ErrStaleSeq) {
		t.Fatalf("err = %v, want ErrStaleSeq", err)
	}
	if cl.Retries() != before {
		t.Fatalf("non-retryable error was retried: %d retries", cl.Retries()-before)
	}
}

func TestRetryableClassification(t *testing.T) {
	cases := []struct {
		err  error
		want bool
	}{
		{ErrOverloaded, true},
		{ErrDeadlineExceeded, true},
		{ErrPowerFailure, true},
		{ErrReadOnly, false},
		{ErrServerClosed, false},
		{ErrClosed, false},
		{ErrStaleSeq, false},
		{ErrSeqReuse, false},
		{errors.New("app error"), false},
	}
	for _, c := range cases {
		if got := Retryable(c.err); got != c.want {
			t.Errorf("Retryable(%v) = %v, want %v", c.err, got, c.want)
		}
	}
}
