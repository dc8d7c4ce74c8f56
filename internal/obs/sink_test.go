package obs_test

import (
	"bytes"
	"runtime"
	"runtime/debug"
	"strings"
	"testing"

	"viyojit/internal/obs"
	"viyojit/internal/sim"
)

// recordingSink captures every tee event for assertions.
type recordingSink struct {
	counters []string
	gauges   []string
	gaugeVal map[string]int64
	spans    []obs.SpanRecord
}

func newRecordingSink() *recordingSink {
	return &recordingSink{gaugeVal: map[string]int64{}}
}

func (s *recordingSink) CounterAdd(name string, delta, total uint64) {
	s.counters = append(s.counters, name)
}

func (s *recordingSink) GaugeSet(name string, v int64) {
	s.gauges = append(s.gauges, name)
	s.gaugeVal[name] = v
}

func (s *recordingSink) SpanFinished(rec obs.SpanRecord) {
	s.spans = append(s.spans, rec)
}

func (s *recordingSink) Keeps(string) bool { return true }

func TestSinkSeesExistingAndFutureInstruments(t *testing.T) {
	reg := obs.NewRegistry()
	pre := reg.Counter("pre_total")
	preG := reg.Gauge("pre_gauge")

	sink := newRecordingSink()
	reg.SetSink(sink)

	pre.Inc()
	preG.Set(4)
	reg.Counter("post_total").Add(3)
	reg.Gauge("post_gauge").Set(-2)

	if want := []string{"pre_total", "post_total"}; strings.Join(sink.counters, ",") != strings.Join(want, ",") {
		t.Fatalf("counter tee order: %v", sink.counters)
	}
	if want := []string{"pre_gauge", "post_gauge"}; strings.Join(sink.gauges, ",") != strings.Join(want, ",") {
		t.Fatalf("gauge tee order: %v", sink.gauges)
	}
	if sink.gaugeVal["post_gauge"] != -2 {
		t.Fatalf("gauge value teed: %v", sink.gaugeVal)
	}
}

func TestSinkGaugeTeeFiresOnlyOnChange(t *testing.T) {
	reg := obs.NewRegistry()
	sink := newRecordingSink()
	reg.SetSink(sink)
	g := reg.Gauge("level")
	g.Set(5)
	g.Set(5) // no change: silent
	g.Set(6)
	g.SetMax(4) // below current: silent
	g.SetMax(9)
	if len(sink.gauges) != 3 {
		t.Fatalf("gauge tee fired %d times, want 3: %v", len(sink.gauges), sink.gauges)
	}
	if sink.gaugeVal["level"] != 9 {
		t.Fatalf("final teed value %d", sink.gaugeVal["level"])
	}
}

func TestSinkSpanTee(t *testing.T) {
	reg := obs.NewRegistry()
	sink := newRecordingSink()
	reg.SetSink(sink)
	tr := reg.Tracer()
	sp := tr.Begin("op", 10)
	tr.Finish(sp, 30, "ok")
	if len(sink.spans) != 1 || sink.spans[0].Name != "op" || sink.spans[0].End != 30 {
		t.Fatalf("span tee: %+v", sink.spans)
	}
}

func TestSinkDetach(t *testing.T) {
	reg := obs.NewRegistry()
	sink := newRecordingSink()
	reg.SetSink(sink)
	reg.Counter("c").Inc()
	reg.SetSink(nil)
	reg.Counter("c").Inc()
	reg.Gauge("g").Set(1)
	if len(sink.counters) != 1 || len(sink.gauges) != 0 {
		t.Fatalf("detached sink still fed: %v %v", sink.counters, sink.gauges)
	}
}

// keepingSink is a recordingSink that keeps only the names in keep.
type keepingSink struct {
	*recordingSink
	keep map[string]bool
}

func (s keepingSink) Keeps(name string) bool { return s.keep[name] }

// A sink is attached only to the counters and gauges it keeps: an
// unkept one, made before SetSink or after, never reaches it, while every
// span does. A reboot's registry (Recycle), given the sink again as the
// facade gives it the reboot's recorder, splits its instruments the same
// way, those made before SetSink and after.
func TestSinkSeesOnlyKeptInstruments(t *testing.T) {
	sink := keepingSink{newRecordingSink(), map[string]bool{"kept_total": true, "kept_gauge": true}}
	donor := obs.NewRegistry()
	for round, reg := range []func() *obs.Registry{
		func() *obs.Registry { return donor },
		donor.Recycle,
	} {
		r := reg()
		r.Counter("kept_total")
		r.Gauge("unkept_gauge")
		r.SetSink(sink)
		for _, name := range []string{"kept_total", "unkept_total", "unkept2_total"} {
			r.Counter(name).Add(2)
		}
		for _, name := range []string{"kept_gauge", "unkept_gauge"} {
			r.Gauge(name).Set(int64(round + 1))
			r.Gauge(name).SetMax(int64(round + 5))
		}
		tr := r.Tracer()
		tr.Finish(tr.Begin("unkept.span", 1), 2, "ok")
		if got := strings.Join(sink.counters, ","); got != "kept_total" {
			t.Fatalf("round %d: counters teed %q, want only kept_total", round, got)
		}
		if got := strings.Join(sink.gauges, ","); got != "kept_gauge,kept_gauge" || sink.gaugeVal["kept_gauge"] != int64(round+5) {
			t.Fatalf("round %d: gauges teed %q (%v), want kept_gauge twice", round, got, sink.gaugeVal)
		}
		if len(sink.spans) != 1 {
			t.Fatalf("round %d: %d spans teed, want 1", round, len(sink.spans))
		}
		if got := r.Counter("unkept_total").Value(); got != 2 {
			t.Fatalf("round %d: an unkept counter reads %d, want 2", round, got)
		}
		*sink.recordingSink = *newRecordingSink()
	}
}

func TestNilRegistrySetSink(t *testing.T) {
	var reg *obs.Registry
	reg.SetSink(newRecordingSink()) // must not panic
	reg.Counter("x").Inc()
}

// TestOpenSpansExported is the regression test for the dropped
// in-flight-span fix: a span begun but not finished must appear in the
// export, marked unfinished, and disappear once finished.
func TestOpenSpansExported(t *testing.T) {
	reg := obs.NewRegistry()
	tr := reg.Tracer()
	done := tr.Begin("finished.op", 5)
	tr.Finish(done, 9, "ok")
	open := tr.Begin("inflight.op", 10)

	exp := reg.Export()
	if len(exp.Trace.Open) != 1 {
		t.Fatalf("open spans in export: %d, want 1", len(exp.Trace.Open))
	}
	rec := exp.Trace.Open[0]
	if rec.Name != "inflight.op" || rec.Start != 10 || rec.End != 0 || rec.Code != "" {
		t.Fatalf("open span record: %+v", rec)
	}
	var buf bytes.Buffer
	if err := exp.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "span_open") || !strings.Contains(buf.String(), "inflight.op") {
		t.Fatalf("text export lacks the open span:\n%s", buf.String())
	}

	// Finishing clears it from the open set and lands it in the log.
	tr.Finish(open, 20, "ok")
	exp = reg.Export()
	if len(exp.Trace.Open) != 0 {
		t.Fatalf("open set after finish: %d", len(exp.Trace.Open))
	}
	if len(exp.Trace.Spans) != 2 {
		t.Fatalf("finished spans: %d", len(exp.Trace.Spans))
	}
}

func TestOpenSpansNestedOrder(t *testing.T) {
	reg := obs.NewRegistry()
	tr := reg.Tracer()
	outer := tr.Begin("outer", 1)
	prev := tr.SetScope(outer.ID)
	inner := tr.Begin("inner", 2)
	tr.SetScope(prev)

	exp := reg.Export()
	if len(exp.Trace.Open) != 2 ||
		exp.Trace.Open[0].Name != "outer" || exp.Trace.Open[1].Name != "inner" {
		t.Fatalf("open spans: %+v", exp.Trace.Open)
	}
	if exp.Trace.Open[1].Parent != outer.ID {
		t.Fatalf("inner's parent: %d, want %d", exp.Trace.Open[1].Parent, outer.ID)
	}
	// Finish out of order: the compaction must keep the survivor.
	tr.Finish(outer, 3, "ok")
	exp = reg.Export()
	if len(exp.Trace.Open) != 1 || exp.Trace.Open[0].Name != "inner" {
		t.Fatalf("open spans after outer finish: %+v", exp.Trace.Open)
	}
	tr.Finish(inner, 4, "ok")
}

// TestOpenSpanTableBounded: spans begun past the fixed table are still
// valid, still Finish into the log, and are counted as OpenDropped.
func TestOpenSpanTableBounded(t *testing.T) {
	reg := obs.NewRegistry()
	tr := reg.Tracer()
	var spans []obs.Span
	for i := 0; i < 70; i++ {
		spans = append(spans, tr.Begin("burst", sim.Time(i)))
	}
	exp := reg.Export()
	if len(exp.Trace.Open) != 64 {
		t.Fatalf("open table size: %d, want 64", len(exp.Trace.Open))
	}
	if exp.Trace.OpenDropped != 6 {
		t.Fatalf("OpenDropped = %d, want 6", exp.Trace.OpenDropped)
	}
	for _, sp := range spans {
		tr.Finish(sp, 100, "ok")
	}
	exp = reg.Export()
	if len(exp.Trace.Open) != 0 || len(exp.Trace.Spans) != 70 {
		t.Fatalf("after finishing all: open=%d finished=%d", len(exp.Trace.Open), len(exp.Trace.Spans))
	}
}

// TestSinkedRecordPathZeroAlloc extends the hot-path allocation guard:
// the instruments stay allocation-free with a sink attached.
func TestSinkedRecordPathZeroAlloc(t *testing.T) {
	reg := obs.NewRegistry()
	reg.SetSink(noopSink{})
	c := reg.Counter("zero_alloc_total")
	g := reg.Gauge("zero_alloc_gauge")
	h := reg.Histogram("zero_alloc_hist")
	tr := reg.Tracer()
	var lvl int64
	record := func() {
		c.Inc()
		lvl++
		g.Set(lvl)
		g.SetMax(lvl)
		h.Record(sim.Duration(lvl))
		sp := tr.Begin("zero.alloc", sim.Time(lvl))
		tr.Finish(sp, sim.Time(lvl+1), "ok")
	}
	// Counted in total after as many warm-up passes as measured ones:
	// testing.AllocsPerRun's integer average would hide up to 199. The
	// count is process-wide, so the runtime is kept from allocating
	// inside it: with one P, restarting the world after ReadMemStats finds
	// no idle P to start a new thread for (five objects), and with the
	// collector off no cycle starts mark workers.
	for i := 0; i < 200; i++ {
		record()
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < 200; i++ {
		record()
	}
	runtime.ReadMemStats(&after)
	if n := after.Mallocs - before.Mallocs; n != 0 {
		t.Fatalf("200 passes over the record path with a sink attached allocate %d times", n)
	}
}

// noopSink is the cheapest possible sink: the guard above measures the
// tee machinery itself, not a particular consumer.
type noopSink struct{}

func (noopSink) CounterAdd(string, uint64, uint64) {}
func (noopSink) GaugeSet(string, int64)            {}
func (noopSink) SpanFinished(obs.SpanRecord)       {}
func (noopSink) Keeps(string) bool                 { return true }
