package serve

import (
	"bytes"
	"context"
	"errors"
	"testing"

	"viyojit/internal/core"
	"viyojit/internal/intent"
	"viyojit/internal/kvstore"
	"viyojit/internal/nvdram"
	"viyojit/internal/pheap"
	"viyojit/internal/sim"
	"viyojit/internal/ssd"
)

// newIdemHarness is newHarness plus an intent journal in a second
// battery-backed mapping (so journal writes are budget-accounted like
// everything else).
func newIdemHarness(t *testing.T, budget int, journalBytes int64, cfg Config) *harness {
	t.Helper()
	clock := sim.NewClock()
	events := sim.NewQueue()
	region, err := nvdram.New(clock, nvdram.Config{Size: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	dev := ssd.New(clock, events, ssd.Config{})
	mgr, err := core.NewManager(clock, events, region, dev, core.Config{DirtyBudgetPages: budget})
	if err != nil {
		t.Fatal(err)
	}
	mapping, err := mgr.Map("heap", 256<<10)
	if err != nil {
		t.Fatal(err)
	}
	heap, err := pheap.Format(mapping)
	if err != nil {
		t.Fatal(err)
	}
	store, err := kvstore.Create(heap, 64)
	if err != nil {
		t.Fatal(err)
	}
	jm, err := mgr.Map("intent", journalBytes)
	if err != nil {
		t.Fatal(err)
	}
	j, err := intent.Create(jm, intent.Config{})
	if err != nil {
		t.Fatal(err)
	}
	cfg.Journal = j
	srv, err := New(clock, events, mgr, store, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	h := &harness{srv: srv, mgr: mgr, store: store, mapping: mapping}
	t.Cleanup(func() {
		h.srv.Stop()
		if !h.mgr.Closed() {
			h.mgr.Close()
		}
	})
	return h
}

func TestIdempotentPutDedup(t *testing.T) {
	h := newIdemHarness(t, 64, 64<<10, Config{})
	ctx := context.Background()

	res, err := h.srv.SubmitIdempotent(ctx, 1, 1, IdemOp{Kind: IdemPut, Key: []byte("k"), Value: []byte("v1")}, Request{Priority: PriorityNormal})
	if err != nil {
		t.Fatal(err)
	}
	if res.Deduped || res.Code != IdemApplied {
		t.Fatalf("fresh put: %+v", res)
	}
	// The retry of an acked request must come from cache.
	res, err = h.srv.SubmitIdempotent(ctx, 1, 1, IdemOp{Kind: IdemPut, Key: []byte("k"), Value: []byte("v1")}, Request{Priority: PriorityNormal})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Deduped {
		t.Fatalf("retry not deduped: %+v", res)
	}
	if h.srv.st.idemDedup.Value() != 1 {
		t.Fatalf("dedup counter = %d", h.srv.st.idemDedup.Value())
	}
}

// TestDedupPutEchoesRequestValue: the journal caches nothing for a done
// Put, so a retry is answered with the value it carries — which the op
// checksum proves is the one the first attempt wrote; a retry carrying a
// different value is still a reused sequence number.
func TestDedupPutEchoesRequestValue(t *testing.T) {
	h := newIdemHarness(t, 64, 64<<10, Config{})
	ctx := context.Background()
	val := bytes.Repeat([]byte("v"), 512)
	put := func(v []byte) (IdemResult, error) {
		return h.srv.SubmitIdempotent(ctx, 1, 1, IdemOp{Kind: IdemPut, Key: []byte("k"), Value: v}, Request{})
	}
	if res, err := put(val); err != nil || res.Deduped || !bytes.Equal(res.Value, val) {
		t.Fatalf("fresh put: %+v, %v", res, err)
	}
	res, err := put(bytes.Clone(val))
	if err != nil || !res.Deduped || res.Code != IdemApplied || !bytes.Equal(res.Value, val) {
		t.Fatalf("retried put: deduped %v code %d value of %d bytes, err %v", res.Deduped, res.Code, len(res.Value), err)
	}
	if _, err := put(bytes.Repeat([]byte("w"), 512)); !errors.Is(err, ErrSeqReuse) {
		t.Fatalf("retry with another value: err = %v, want ErrSeqReuse", err)
	}
	if e, st := h.srv.cfg.Journal.Lookup(1, 1); st != intent.StateDone || len(e.Result) != 0 {
		t.Fatalf("journal holds a %d-byte result for a done Put (state %v)", len(e.Result), st)
	}
	if v, ok, err := storeGet(h, "k"); err != nil || !ok || !bytes.Equal(v, val) {
		t.Fatalf("store after the retries: %d bytes, %v, %v", len(v), ok, err)
	}
}

// TestRMWResultSurvivesCompactionAndReopen: a deduped read-modify-write or
// Delete returns exactly what its first execution returned — straight
// away, after two compactions, and from a journal reopened on the same
// mapping behind a new server.
func TestRMWResultSurvivesCompactionAndReopen(t *testing.T) {
	h := newIdemHarness(t, 64, 64<<10, Config{})
	ctx := context.Background()
	image := bytes.Repeat([]byte("rmw"), 100)
	calls := 0
	rmw := IdemOp{Kind: IdemRMW, Key: []byte("ctr"), Modify: func([]byte, bool) []byte { calls++; return image }}
	del := IdemOp{Kind: IdemDelete, Key: []byte("ghost")}
	check := func(srv *Server, label string, deduped bool) {
		t.Helper()
		res, err := srv.SubmitIdempotent(ctx, 9, 1, rmw, Request{})
		if err != nil || res.Deduped != deduped || res.Code != IdemApplied || !bytes.Equal(res.Value, image) {
			t.Fatalf("%s: rmw deduped %v code %d value of %d bytes, err %v", label, res.Deduped, res.Code, len(res.Value), err)
		}
		res, err = srv.SubmitIdempotent(ctx, 9, 2, del, Request{})
		if err != nil || res.Deduped != deduped || res.Code != IdemNotFound || len(res.Value) != 0 {
			t.Fatalf("%s: delete deduped %v code %d value %q, err %v", label, res.Deduped, res.Code, res.Value, err)
		}
	}
	check(h.srv, "first execution", false)
	check(h.srv, "retry", true)
	for i := 0; i < 2; i++ {
		if _, err := h.srv.Submit(ctx, Request{Write: true, Op: func(Exec) (any, error) {
			return nil, h.srv.cfg.Journal.Compact() // the journal belongs to the stack's owner
		}}); err != nil {
			t.Fatal(err)
		}
	}
	check(h.srv, "after two compactions", true)

	h.srv.Stop()
	var jm *core.Mapping
	for _, m := range h.mgr.Mappings() {
		if m.Name() == "intent" {
			jm = m
		}
	}
	j2, err := intent.Open(jm, nil)
	if err != nil {
		t.Fatal(err)
	}
	srv2, err := New(h.srv.clock, h.srv.events, h.mgr, h.store, Config{Journal: j2})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv2.Start(); err != nil {
		t.Fatal(err)
	}
	defer srv2.Stop()
	check(srv2, "reopened", true)
	if calls != 1 {
		t.Fatalf("Modify ran %d times, want 1", calls)
	}
}

func TestIdempotentRMWRunsModifyOnce(t *testing.T) {
	h := newIdemHarness(t, 64, 64<<10, Config{})
	ctx := context.Background()
	calls := 0
	op := IdemOp{Kind: IdemRMW, Key: []byte("ctr"), Modify: func(old []byte, ok bool) []byte {
		calls++
		if !ok {
			return []byte{1}
		}
		return []byte{old[0] + 1}
	}}
	for i := 0; i < 3; i++ { // same seq, retried three times
		res, err := h.srv.SubmitIdempotent(ctx, 9, 1, op, Request{})
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(res.Value, []byte{1}) {
			t.Fatalf("attempt %d: value %v", i, res.Value)
		}
	}
	if calls != 1 {
		t.Fatalf("Modify ran %d times, want 1", calls)
	}
	v, ok, err := storeGet(h, "ctr")
	if err != nil || !ok || !bytes.Equal(v, []byte{1}) {
		t.Fatalf("store state %v %v %v", v, ok, err)
	}
	// A NEW seq increments.
	res, err := h.srv.SubmitIdempotent(ctx, 9, 2, op, Request{})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(res.Value, []byte{2}) {
		t.Fatalf("seq 2 value %v", res.Value)
	}
}

func TestIdempotentDeleteCachesNotFound(t *testing.T) {
	h := newIdemHarness(t, 64, 64<<10, Config{})
	ctx := context.Background()
	res, err := h.srv.SubmitIdempotent(ctx, 2, 1, IdemOp{Kind: IdemDelete, Key: []byte("ghost")}, Request{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Code != IdemNotFound {
		t.Fatalf("delete of absent key code %d", res.Code)
	}
	res, err = h.srv.SubmitIdempotent(ctx, 2, 1, IdemOp{Kind: IdemDelete, Key: []byte("ghost")}, Request{})
	if err != nil || !res.Deduped || res.Code != IdemNotFound {
		t.Fatalf("cached delete retry: %+v err %v", res, err)
	}
}

func TestSeqReuseAndStaleSeqTyped(t *testing.T) {
	h := newIdemHarness(t, 64, 64<<10, Config{})
	ctx := context.Background()
	if _, err := h.srv.SubmitIdempotent(ctx, 3, 1, IdemOp{Kind: IdemPut, Key: []byte("a"), Value: []byte("x")}, Request{}); err != nil {
		t.Fatal(err)
	}
	// Same seq, different op → typed reuse error.
	if _, err := h.srv.SubmitIdempotent(ctx, 3, 1, IdemOp{Kind: IdemPut, Key: []byte("b"), Value: []byte("x")}, Request{}); !errors.Is(err, ErrSeqReuse) {
		t.Fatalf("err = %v, want ErrSeqReuse", err)
	}
	// Blow past the window, then retry seq 1 → typed stale error.
	for s := uint64(2); s <= intent.DefaultWindow+6; s++ {
		if _, err := h.srv.SubmitIdempotent(ctx, 3, s, IdemOp{Kind: IdemPut, Key: []byte("a"), Value: []byte("x")}, Request{}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := h.srv.SubmitIdempotent(ctx, 3, 1, IdemOp{Kind: IdemPut, Key: []byte("a"), Value: []byte("x")}, Request{}); !errors.Is(err, ErrStaleSeq) {
		t.Fatalf("err = %v, want ErrStaleSeq", err)
	}
}

func TestIdemRequestValidation(t *testing.T) {
	h := newIdemHarness(t, 64, 64<<10, Config{})
	bad := []Request{
		{Idem: &IdemOp{Kind: IdemPut, Key: []byte("k")}},                                              // no client/seq
		{Idem: &IdemOp{Kind: IdemPut, Key: []byte("k")}, ClientID: 1},                                 // no seq
		{Idem: &IdemOp{Kind: IdemPut, Key: []byte("k")}, ClientID: 1, RequestSeq: 1},                  // not Write
		{Idem: &IdemOp{Kind: IdemPut}, ClientID: 1, RequestSeq: 1, Write: true, Op: put("a", "b").Op}, // both
	}
	for i, r := range bad {
		if _, err := h.srv.SubmitAsync(r); err == nil {
			t.Fatalf("bad request %d accepted", i)
		}
	}
	// A server without a journal rejects idempotent requests up front.
	h2 := newHarness(t, 64, ssd.Config{}, Config{}, nil)
	if _, err := h2.srv.SubmitAsync(Request{Idem: &IdemOp{Kind: IdemPut, Key: []byte("k")}, ClientID: 1, RequestSeq: 1, Write: true}); err == nil {
		t.Fatal("journal-less idempotent request accepted")
	}
}

// TestIdemPutAllocations pins a served IdemPut at zero allocations in
// steady state: the request is built once and only its seq moves, the
// journal draws its entry and redo image from what the window dropped,
// and the IdemResult comes back in Result.Idem instead of boxed in Value.
func TestIdemPutAllocations(t *testing.T) {
	h := newIdemHarness(t, 64, 64<<10, Config{})
	ctx := context.Background()
	req := Request{Priority: PriorityNormal, Write: true, ClientID: 1,
		Idem: &IdemOp{Kind: IdemPut, Key: []byte("user0001"), Value: bytes.Repeat([]byte{'v'}, 1024)}}
	put := func() {
		req.RequestSeq++
		res, err := h.srv.Submit(ctx, req)
		if err != nil {
			t.Fatal(err)
		}
		if res.Idem.Deduped || res.Idem.Code != IdemApplied || res.Value != nil {
			t.Fatalf("seq %d: Idem %+v, Value %v", req.RequestSeq, res.Idem, res.Value)
		}
	}
	j := h.srv.cfg.Journal
	for j.Stats().Compactions < 3 {
		put() // fill the window, size the buffers, reach both halves' logs
	}
	const runs = 500
	calls, before := 0, uint64(0)
	if n := mallocs(runs, func() {
		if calls == runs { // the measured pass starts
			before = j.Stats().Compactions
		}
		calls++
		put()
	}); n != 0 {
		t.Fatalf("%d served IdemPuts allocate %d objects, want 0", runs, n)
	}
	if j.Stats().Compactions == before {
		t.Fatal("no compaction inside the measured run")
	}
}

func storeGet(h *harness, key string) ([]byte, bool, error) {
	res, err := h.srv.Submit(context.Background(), Request{Class: ClassBackground, Priority: PriorityHigh, Op: func(e Exec) (any, error) {
		v, ok, err := e.Store.Get([]byte(key))
		if err != nil || !ok {
			return nil, err
		}
		return append([]byte(nil), v...), nil
	}})
	if err != nil {
		return nil, false, err
	}
	if res.Value == nil {
		return nil, false, nil
	}
	return res.Value.([]byte), true, nil
}
