package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"

	"viyojit"
	"viyojit/internal/intent"
	"viyojit/internal/kvstore"
	"viyojit/internal/pheap"
	"viyojit/internal/sim"
)

// The traced run records spans from the benchmark's own files, around
// the calls into each layer; nothing inside the system is instrumented.
// Per request, sharing the request's id:
//
//	serve.submit        around Submit (closed loop) or SubmitAsync..Wait
//	└─ op               inside the request's Op closure, on the dispatcher
//	   ├─ core.mapping_read   } every ReadAt/WriteAt the store's heap makes
//	   └─ core.mapping_write  } on its mapping, summed per request
//
// A layer's self time is its span minus its children: serve self =
// serve.submit − op, kvstore (with pheap) self = op − Σ mapping.
// Idempotent writes are executed by the server itself, so they have no
// op span; their mapping calls (store and journal) are summed per run.

// span is one request's trace record. Host times are hostNow() values,
// virtual times are the simulation clock, both in nanoseconds.
type span struct {
	id   int
	kind string // "read", "update" or "idem_update"

	genHostNs int64

	submitHost0, submitHost1 int64
	submitV0                 sim.Time
	latency, wait            sim.Duration // Result.Latency, Result.Wait

	hasOp            bool
	opHost0, opHost1 int64
	opV0, opV1       sim.Time

	reads, writes mapAgg
}

// mapAgg sums the mapping calls of one direction.
type mapAgg struct {
	n      int
	hostNs int64
	vNs    sim.Duration
}

func (a *mapAgg) merge(b mapAgg) {
	a.n += b.n
	a.hostNs += b.hostNs
	a.vNs += b.vNs
}

// tracer holds a traced run's spans in memory until the run ends.
type tracer struct {
	spans []*span
	// sys is the live system (it changes at every power cycle); on gates
	// the mapping wrapper to the timed region; cur is the request whose
	// Op closure is executing. All three are touched by the dispatch
	// goroutine only while it serves, and by the driver only while the
	// server is stopped or before the request is submitted.
	sys *viyojit.System
	on  bool
	cur *span
	// looseReads/looseWrites are mapping calls outside any Op closure.
	looseReads, looseWrites mapAgg
}

func (t *tracer) begin(o op) *span {
	sp := &span{id: len(t.spans), kind: "read"}
	if !o.read {
		sp.kind = "update"
		if o.client != 0 {
			sp.kind = "idem_update"
		}
	}
	t.spans = append(t.spans, sp)
	return sp
}

func (sp *span) submitStart(now sim.Time) {
	if sp != nil {
		sp.submitV0 = now
		sp.submitHost0 = hostNow()
	}
}

func (sp *span) submitEnd(res viyojit.ServeResult) {
	if sp != nil {
		sp.submitHost1 = hostNow()
		sp.latency, sp.wait = res.Latency, res.Wait
	}
}

// timeOp wraps a request's Op closure in its op span.
func (t *tracer) timeOp(sp *span, fn func(viyojit.ServeExec) (any, error)) func(viyojit.ServeExec) (any, error) {
	return func(e viyojit.ServeExec) (any, error) {
		sp.hasOp = true
		t.cur = sp
		sp.opV0, sp.opHost0 = e.Now, hostNow()
		v, err := fn(e)
		sp.opHost1, sp.opV1 = hostNow(), t.sys.Now()
		t.cur = nil
		return v, err
	}
}

// timedMapping is the wrapper interposed between a core.Mapping and the
// heap or journal built on it. Both pheap and intent take this shape.
type timedMapping struct {
	m  *viyojit.Mapping
	tr *tracer
}

func (t *timedMapping) Size() int64 { return t.m.Size() }

func (t *timedMapping) ReadAt(p []byte, off int64) error {
	if !t.tr.on {
		return t.m.ReadAt(p, off)
	}
	h0, v0 := hostNow(), t.tr.sys.Now()
	err := t.m.ReadAt(p, off)
	t.tr.note(false, h0, v0)
	return err
}

func (t *timedMapping) WriteAt(p []byte, off int64) error {
	if !t.tr.on {
		return t.m.WriteAt(p, off)
	}
	h0, v0 := hostNow(), t.tr.sys.Now()
	err := t.m.WriteAt(p, off)
	t.tr.note(true, h0, v0)
	return err
}

// note books a mapping call that began at (h0, v0) and has just returned:
// to the request whose Op closure is executing, or to the run.
func (t *tracer) note(write bool, h0 int64, v0 sim.Time) {
	call := mapAgg{n: 1, hostNs: hostNow() - h0, vNs: t.sys.Now().Sub(v0)}
	switch sp := t.cur; {
	case sp != nil && write:
		sp.writes.merge(call)
	case sp != nil:
		sp.reads.merge(call)
	case write:
		t.looseWrites.merge(call)
	default:
		t.looseReads.merge(call)
	}
}

// tracedStore formats or reopens the KV store over a timed mapping: the
// three calls System.NewStore/OpenStore make, sized the same way.
func tracedStore(sys *viyojit.System, tr *tracer, size int64, fresh bool) (*kvstore.Store, error) {
	m, err := sys.Map(storeName, size)
	if err != nil {
		return nil, err
	}
	tm := &timedMapping{m: m, tr: tr}
	if !fresh {
		heap, err := pheap.Open(tm)
		if err != nil {
			return nil, err
		}
		return kvstore.Open(heap)
	}
	heap, err := pheap.Format(tm)
	if err != nil {
		return nil, err
	}
	return kvstore.Create(heap, max(int(size/8192), 64))
}

// tracedJournal is System.NewIntentJournal/OpenIntentJournal over a
// timed mapping.
func tracedJournal(sys *viyojit.System, tr *tracer, fresh bool) (*viyojit.IntentJournal, error) {
	m, err := sys.Map(journalName, journalBytes)
	if err != nil {
		return nil, err
	}
	tm := &timedMapping{m: m, tr: tr}
	if !fresh {
		return intent.Open(tm, sys.Metrics())
	}
	return intent.Create(tm, viyojit.IntentConfig{Obs: sys.Metrics()})
}

// traceSums is what the spans add up to.
type traceSums struct {
	withOp, idem int // requests with an op span; idempotent writes

	submitHost, opHost      int64        // over requests with an op span
	opV                     sim.Duration // likewise
	mapReads, mapWrites     mapAgg       // children of op spans
	idemSubmitHost, genHost int64
}

// sums adds the spans up and checks that they nest: an op inside its
// serve.submit, the mapping calls inside their op, in host time and to
// the nanosecond in virtual time. A violation means the trace is wrong,
// not the system, and fails the run.
func (t *tracer) sums() (traceSums, error) {
	var s traceSums
	for _, sp := range t.spans {
		s.genHost += sp.genHostNs
		if sp.submitHost1 == 0 {
			continue // rejected at admission: never ran
		}
		submit := sp.submitHost1 - sp.submitHost0
		if !sp.hasOp {
			if sp.kind == "idem_update" {
				s.idem++
				s.idemSubmitHost += submit
			}
			continue
		}
		op, opV := sp.opHost1-sp.opHost0, sp.opV1.Sub(sp.opV0)
		mapHost, mapV := sp.reads.hostNs+sp.writes.hostNs, sp.reads.vNs+sp.writes.vNs
		switch {
		case sp.opHost0 < sp.submitHost0 || sp.opHost1 > sp.submitHost1:
			return s, fmt.Errorf("trace: request %d: op span [%d,%d] outside serve.submit [%d,%d]",
				sp.id, sp.opHost0, sp.opHost1, sp.submitHost0, sp.submitHost1)
		case opV > sp.latency:
			return s, fmt.Errorf("trace: request %d: op took %v of virtual time, the request %v", sp.id, opV, sp.latency)
		case mapHost > op || mapV > opV:
			return s, fmt.Errorf("trace: request %d: mapping calls (%d ns host, %v virtual) exceed their op (%d ns, %v)",
				sp.id, mapHost, mapV, op, opV)
		}
		s.withOp++
		s.submitHost += submit
		s.opHost += op
		s.opV += opV
		s.mapReads.merge(sp.reads)
		s.mapWrites.merge(sp.writes)
	}
	return s, nil
}

// write puts the spans out as JSON lines, one span per line, the spans
// of one request sharing "req".
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	for _, sp := range t.spans {
		if sp.submitHost1 == 0 {
			continue
		}
		fmt.Fprintf(w, `{"req":%d,"kind":%q,"span":"serve.submit","parent":"","host_start":%d,"host_end":%d,"v_start":%d,"v_end":%d,"queue_wait_vns":%d,"gen_host_ns":%d}`+"\n",
			sp.id, sp.kind, sp.submitHost0, sp.submitHost1, sp.submitV0, sp.submitV0.Add(sp.latency), sp.wait, sp.genHostNs)
		if !sp.hasOp {
			continue
		}
		fmt.Fprintf(w, `{"req":%d,"span":"op","parent":"serve.submit","host_start":%d,"host_end":%d,"v_start":%d,"v_end":%d}`+"\n",
			sp.id, sp.opHost0, sp.opHost1, sp.opV0, sp.opV1)
		for _, c := range []struct {
			name string
			a    mapAgg
		}{{"core.mapping_read", sp.reads}, {"core.mapping_write", sp.writes}} {
			if c.a.n > 0 {
				fmt.Fprintf(w, `{"req":%d,"span":%q,"parent":"op","calls":%d,"host_ns":%d,"v_ns":%d}`+"\n",
					sp.id, c.name, c.a.n, c.a.hostNs, c.a.vNs)
			}
		}
	}
	fmt.Fprintf(w, `{"req":-1,"span":"core.mapping_read","parent":"serve.submit","note":"idempotent writes, summed over the run","calls":%d,"host_ns":%d,"v_ns":%d}`+"\n",
		t.looseReads.n, t.looseReads.hostNs, t.looseReads.vNs)
	fmt.Fprintf(w, `{"req":-1,"span":"core.mapping_write","parent":"serve.submit","note":"idempotent writes, summed over the run","calls":%d,"host_ns":%d,"v_ns":%d}`+"\n",
		t.looseWrites.n, t.looseWrites.hostNs, t.looseWrites.vNs)
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
