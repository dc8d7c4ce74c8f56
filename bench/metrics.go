package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"io"
	"math"
	"slices"

	"viyojit"
	"viyojit/internal/sim"
)

// metric is one reported number. Names and units are the contract with
// BENCHMARK.json; bench_test.go checks the two agree.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metrics map[string]metric

// nameUnit fixes a metric's unit and its place in the printed table.
type nameUnit struct{ name, unit string }

// endToEndMetrics are what a user of the system sees. Units with a "v"
// are on the virtual clock (the modelled design); "host" metrics are the
// simulator's own cost.
var endToEndMetrics = []nameUnit{
	{"goodput_vops", "1/vs"},
	{"lat_p50_vus", "vus"},
	{"lat_p99_vus", "vus"},
	{"flush_energy_frac_max", "ratio"},
	{"recover_vms", "vms"},
	{"host_ops_per_s", "1/s"},
	{"host_allocs_per_op", "count"},
	{"host_bytes_per_op", "B"},
	{"setup_s", "s"},
}

// perLayerMetrics are single layers' counts and times, layer = module
// name. README.md has the table of which end-to-end metric each should
// move, on which workload.
var perLayerMetrics = []nameUnit{
	{"serve.submit_self_host_ns", "ns"},
	{"serve.queue_wait_vus_p99", "vus"},
	{"serve.max_queue", "count"},
	{"serve.shed_overload", "count"},
	{"serve.shed_deadline", "count"},
	{"serve.shed_readonly", "count"},
	{"serve.stall_predicted", "count"},
	{"kvstore.op_self_host_ns", "ns"},
	{"kvstore.op_self_vns", "vns"},
	{"kvstore.mapping_calls_per_op", "count"},
	{"core.mapping_write_host_ns", "ns"},
	{"core.mapping_read_host_ns", "ns"},
	{"core.mapping_write_vns", "vns"},
	{"core.faults", "count"},
	{"core.forced_cleans", "count"},
	{"core.proactive_cleans", "count"},
	{"core.forced_clean_ratio", "ratio"},
	{"core.cleans_completed", "count"},
	{"core.clean_retries", "count"},
	{"core.fault_wait_vus_total", "vus"},
	{"core.epochs", "count"},
	{"core.skipped_epochs", "count"},
	{"core.max_dirty_pages", "count"},
	{"core.budget_pages_min", "count"},
	{"core.budget_pages_max", "count"},
	{"mmu.faults", "count"},
	{"mmu.tlb_misses", "count"},
	{"mmu.tlb_flushes", "count"},
	{"mmu.pte_updates", "count"},
	{"mmu.walks", "count"},
	{"ssd.writes", "count"},
	{"ssd.bytes_written", "B"},
	{"ssd.bytes_per_op", "B"},
	{"ssd.submit_stalls", "count"},
	{"ssd.max_queue_depth", "count"},
	{"ssd.avg_write_lat_vus", "vus"},
	{"ssd.busy_frac", "ratio"},
	{"intent.begins", "count"},
	{"intent.completes", "count"},
	{"intent.append_bytes", "B"},
	{"intent.compactions", "count"},
	{"intent.journal_write_amp", "ratio"},
	{"intent.idem_self_host_ns", "ns"},
	{"blackbox.appends", "count"},
	{"blackbox.drops", "count"},
	{"powerfail.dirty_at_failure_max", "count"},
	{"powerfail.flush_vus_p50", "vus"},
	{"powerfail.flush_vus_per_page", "vus"},
	{"powerfail.flush_host_us", "us"},
	{"recovery.pages_restored", "count"},
	{"recovery.restore_host_ms", "ms"},
	{"recovery.reopen_host_ms", "ms"},
	{"recovery.replayed_intents", "count"},
	{"driver.gen_host_ns", "ns"},
	{"driver.lateness_vus_max", "vus"},
	{"driver.lat_p999_vus", "vus"},
	{"driver.failed_frac", "ratio"},
	{"trace.overhead_frac", "ratio"},
}

func init() {
	for _, r := range rungs {
		perLayerMetrics = append(perLayerMetrics,
			nameUnit{"rung." + r.name + "_host_ns", "ns"},
			nameUnit{"rung." + r.name + "_vns", "vns"},
			nameUnit{"rung." + r.name + "_allocs", "count"})
	}
}

// snapshot is every layer's public counters at one instant. It is taken
// with the server stopped: most of these are plain structs owned by the
// simulation goroutine.
type snapshot struct {
	core      viyojit.ManagerStats
	ssdWrites uint64
	ssdBytes  uint64
	ssdStalls uint64
	ssdDepth  int
	ssdLag    sim.Duration
	ssdDone   uint64

	mmuFaults, tlbMisses, tlbFlushes, pteUpdates, walks uint64

	intent    viyojit.IntentStats
	bbAppends uint64
	bbDrops   uint32
}

func (st *stack) snapshot() snapshot {
	dev := st.sys.SSD().Stats()
	pt := st.sys.Manager().Region().PageTable().Stats()
	s := snapshot{
		core:      st.sys.Stats(),
		ssdWrites: dev.WritesSubmitted, ssdBytes: dev.BytesWritten, ssdStalls: dev.SubmitStalls,
		ssdDepth: dev.MaxQueueDepth, ssdLag: dev.TotalWriteLag, ssdDone: dev.WritesCompleted,
		mmuFaults: pt.Faults, tlbMisses: pt.TLBMisses, tlbFlushes: pt.TLBFlushes,
		pteUpdates: pt.PTEUpdates, walks: pt.Walks,
		bbAppends: st.sys.BlackBox().LastSeq(), bbDrops: st.sys.BlackBox().Dropped(),
	}
	if st.journal != nil {
		s.intent = st.journal.Stats()
	}
	return s
}

// layerCounters accumulates the timed region's share of each layer's
// counters, across incarnations on powerfail_cycle.
type layerCounters struct {
	faults, forced, proactive, cleans, retries, epochs, skipped uint64
	faultWait                                                   sim.Duration
	maxDirty                                                    int

	ssdWrites, ssdBytes, ssdStalls, ssdDone uint64
	ssdDepth                                int
	ssdLag                                  sim.Duration

	mmuFaults, tlbMisses, tlbFlushes, pteUpdates, walks uint64

	begins, completes, appendBytes, compactions uint64
	bbAppends, bbDrops                          uint64

	serve viyojit.ServeStats
}

func (c *layerCounters) add(a, b snapshot, srv viyojit.ServeStats) {
	c.faults += b.core.Faults - a.core.Faults
	c.forced += b.core.ForcedCleans - a.core.ForcedCleans
	c.proactive += b.core.ProactiveCleans - a.core.ProactiveCleans
	c.cleans += b.core.CleansCompleted - a.core.CleansCompleted
	c.retries += b.core.CleanRetries - a.core.CleanRetries
	c.epochs += b.core.Epochs - a.core.Epochs
	c.skipped += b.core.SkippedEpochs - a.core.SkippedEpochs
	c.faultWait += b.core.FaultWaitTotal - a.core.FaultWaitTotal
	c.maxDirty = max(c.maxDirty, b.core.MaxDirtyObserved)

	c.ssdWrites += b.ssdWrites - a.ssdWrites
	c.ssdBytes += b.ssdBytes - a.ssdBytes
	c.ssdStalls += b.ssdStalls - a.ssdStalls
	c.ssdDone += b.ssdDone - a.ssdDone
	c.ssdLag += b.ssdLag - a.ssdLag
	c.ssdDepth = max(c.ssdDepth, b.ssdDepth)

	c.mmuFaults += b.mmuFaults - a.mmuFaults
	c.tlbMisses += b.tlbMisses - a.tlbMisses
	c.tlbFlushes += b.tlbFlushes - a.tlbFlushes
	c.pteUpdates += b.pteUpdates - a.pteUpdates
	c.walks += b.walks - a.walks

	c.begins += b.intent.Begins - a.intent.Begins
	c.completes += b.intent.Completes - a.intent.Completes
	c.appendBytes += b.intent.AppendBytes - a.intent.AppendBytes
	c.compactions += b.intent.Compactions - a.intent.Compactions
	c.bbAppends += b.bbAppends - a.bbAppends
	c.bbDrops += uint64(b.bbDrops - a.bbDrops)

	c.serve.ShedOverload += srv.ShedOverload
	c.serve.ShedDeadline += srv.ShedDeadline
	c.serve.ShedReadOnly += srv.ShedReadOnly
	c.serve.StallPredicted += srv.StallPredicted
	c.serve.MaxQueueObserved = max(c.serve.MaxQueueObserved, srv.MaxQueueObserved)
}

// powerfailStats accumulates a pass's power failures and recoveries.
type powerfailStats struct {
	failures      int
	dirtyMax      int
	pagesFlushed  int
	flushBytes    uint64
	flushV        []int64 // virtual ns per flush
	energyFracMax float64
	restoreV      []int64 // virtual ns per restore
	pagesRestored int
	replayed      int
	flushHost     int64
	restoreHost   int64
	reopenHost    int64
}

func (p *powerfailStats) note(r viyojit.PowerFailReport) {
	p.failures++
	p.dirtyMax = max(p.dirtyMax, r.DirtyAtFailure)
	p.pagesFlushed += r.PagesFlushed
	p.flushV = append(p.flushV, int64(r.FlushTime))
	p.energyFracMax = max(p.energyFracMax, r.EnergyUsedJoules/r.EnergyAvailableJoules)
}

// quantile is the exact order statistic: the smallest sample with at
// least a fraction q of the samples at or below it. sorted must be.
func quantile(sorted []int64, q float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[max(int(math.Ceil(q*float64(len(sorted))))-1, 0)]
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := slices.Clone(v)
	slices.Sort(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func sortedCopy(v []int64) []int64 {
	s := slices.Clone(v)
	slices.Sort(s)
	return s
}

func micros(ns int64) float64 { return float64(ns) / 1e3 }

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// hostOpsPerSec is the median rate over the timed region's slices, or
// the overall rate when the region was shorter than one slice.
func (m *measurement) hostOpsPerSec() float64 {
	if len(m.chunkRates) >= 3 {
		return median(m.chunkRates)
	}
	return ratio(float64(m.attempted), float64(m.hostElapsed)/1e9)
}

// endToEnd computes the end-to-end metrics of an untraced pass.
func (m *measurement) endToEnd(setupSeconds float64) metrics {
	lat := sortedCopy(m.lat)
	ops := float64(m.attempted)
	v := map[string]float64{
		"goodput_vops":          ratio(float64(len(m.lat)), m.vElapsed.Seconds()),
		"lat_p50_vus":           micros(quantile(lat, 0.50)),
		"lat_p99_vus":           micros(quantile(lat, 0.99)),
		"flush_energy_frac_max": m.pf.energyFracMax,
		"recover_vms":           float64(quantile(sortedCopy(m.pf.restoreV), 0.5)) / 1e6,
		"host_ops_per_s":        m.hostOpsPerSec(),
		"host_allocs_per_op":    ratio(float64(m.mallocs), ops),
		"host_bytes_per_op":     ratio(float64(m.allocBytes), ops),
		"setup_s":               setupSeconds,
	}
	return named(endToEndMetrics, v)
}

// perLayer computes the per-layer metrics of a traced pass. untraced is
// the same workload's untraced pass in the same process, for the
// tracing overhead; rung holds the rung results.
func (m *measurement) perLayer(untraced *measurement, sums traceSums, rung map[string]float64) metrics {
	c, pf := m.layers, m.pf
	ops := float64(m.attempted)
	withOp, idem := float64(sums.withOp), float64(sums.idem)
	mapHost := sums.mapReads.hostNs + sums.mapWrites.hostNs
	mapV := sums.mapReads.vNs + sums.mapWrites.vNs
	loose := m.tr.looseReads.hostNs + m.tr.looseWrites.hostNs
	// Mapping calls of every request, idempotent writes' included.
	reads, writes := sums.mapReads, sums.mapWrites
	reads.merge(m.tr.looseReads)
	writes.merge(m.tr.looseWrites)
	userBytes := float64(c.begins) * valueSize
	failures := float64(pf.failures)
	v := map[string]float64{
		"serve.submit_self_host_ns": ratio(float64(sums.submitHost-sums.opHost), withOp),
		"serve.queue_wait_vus_p99":  micros(quantile(sortedCopy(m.wait), 0.99)),
		"serve.max_queue":           float64(c.serve.MaxQueueObserved),
		"serve.shed_overload":       float64(c.serve.ShedOverload),
		"serve.shed_deadline":       float64(c.serve.ShedDeadline),
		"serve.shed_readonly":       float64(c.serve.ShedReadOnly),
		"serve.stall_predicted":     float64(c.serve.StallPredicted),

		"kvstore.op_self_host_ns":      ratio(float64(sums.opHost-mapHost), withOp),
		"kvstore.op_self_vns":          ratio(float64(sums.opV-mapV), withOp),
		"kvstore.mapping_calls_per_op": ratio(float64(sums.mapReads.n+sums.mapWrites.n), withOp),

		"core.mapping_write_host_ns": ratio(float64(writes.hostNs), float64(writes.n)),
		"core.mapping_read_host_ns":  ratio(float64(reads.hostNs), float64(reads.n)),
		"core.mapping_write_vns":     ratio(float64(writes.vNs), float64(writes.n)),
		"core.faults":                float64(c.faults),
		"core.forced_cleans":         float64(c.forced),
		"core.proactive_cleans":      float64(c.proactive),
		"core.forced_clean_ratio":    ratio(float64(c.forced), float64(c.forced+c.proactive)),
		"core.cleans_completed":      float64(c.cleans),
		"core.clean_retries":         float64(c.retries),
		"core.fault_wait_vus_total":  micros(int64(c.faultWait)),
		"core.epochs":                float64(c.epochs),
		"core.skipped_epochs":        float64(c.skipped),
		"core.max_dirty_pages":       float64(c.maxDirty),
		"core.budget_pages_min":      float64(m.budgetMin),
		"core.budget_pages_max":      float64(m.budgetMax),

		"mmu.faults":      float64(c.mmuFaults),
		"mmu.tlb_misses":  float64(c.tlbMisses),
		"mmu.tlb_flushes": float64(c.tlbFlushes),
		"mmu.pte_updates": float64(c.pteUpdates),
		"mmu.walks":       float64(c.walks),

		"ssd.writes":            float64(c.ssdWrites),
		"ssd.bytes_written":     float64(c.ssdBytes),
		"ssd.bytes_per_op":      ratio(float64(c.ssdBytes), ops),
		"ssd.submit_stalls":     float64(c.ssdStalls),
		"ssd.max_queue_depth":   float64(c.ssdDepth),
		"ssd.avg_write_lat_vus": ratio(micros(int64(c.ssdLag)), float64(c.ssdDone)),
		// Channel occupancy: bytes moved at the device's bandwidth, over
		// the virtual time served.
		"ssd.busy_frac": ratio(float64(c.ssdBytes)/ssdWriteBW, m.vElapsed.Seconds()),

		"intent.begins":            float64(c.begins),
		"intent.completes":         float64(c.completes),
		"intent.append_bytes":      float64(c.appendBytes),
		"intent.compactions":       float64(c.compactions),
		"intent.journal_write_amp": ratio(float64(c.appendBytes), userBytes),
		// An idempotent write has no op span, so what is left of its
		// serve.submit after the mapping calls is serve, intent and
		// kvstore together.
		"intent.idem_self_host_ns": ratio(float64(sums.idemSubmitHost-loose), idem),

		"blackbox.appends": float64(c.bbAppends),
		"blackbox.drops":   float64(c.bbDrops),

		"powerfail.dirty_at_failure_max": float64(pf.dirtyMax),
		"powerfail.flush_vus_p50":        micros(quantile(sortedCopy(pf.flushV), 0.5)),
		"powerfail.flush_vus_per_page":   ratio(micros(sum(pf.flushV)), float64(pf.pagesFlushed)),
		"powerfail.flush_host_us":        ratio(float64(pf.flushHost)/1e3, failures),
		"recovery.pages_restored":        ratio(float64(pf.pagesRestored), failures),
		"recovery.restore_host_ms":       ratio(float64(pf.restoreHost)/1e6, failures),
		"recovery.reopen_host_ms":        ratio(float64(pf.reopenHost)/1e6, failures),
		"recovery.replayed_intents":      float64(pf.replayed),

		"driver.gen_host_ns":      ratio(float64(sums.genHost), float64(len(m.tr.spans))),
		"driver.lateness_vus_max": micros(int64(m.lateMax)),
		"driver.lat_p999_vus":     micros(quantile(sortedCopy(m.lat), 0.999)),
		"driver.failed_frac":      ratio(float64(m.failed), ops),

		"trace.overhead_frac": ratio(float64(m.hostElapsed)/ops, float64(untraced.hostElapsed)/float64(untraced.attempted)) - 1,
	}
	for k, x := range rung {
		v[k] = x
	}
	return named(perLayerMetrics, v)
}

func sum(v []int64) int64 {
	var s int64
	for _, x := range v {
		s += x
	}
	return s
}

// named attaches units, and insists every listed metric was computed.
func named(list []nameUnit, v map[string]float64) metrics {
	out := make(metrics, len(list))
	for _, nu := range list {
		x, ok := v[nu.name]
		if !ok {
			panic("bench: metric " + nu.name + " was not computed")
		}
		out[nu.name] = metric{Value: x, Unit: nu.unit}
	}
	return out
}

// digest is the SHA-256 of everything the simulation decided: the sorted
// latency list, the final virtual clock, and the core, ssd, mmu and
// intent counters. Host time is not in it. A change meant only to speed
// up the simulator must leave it identical on the closed-loop workloads
// (at a fixed operation count; see -compare).
func (m *measurement) digest() string {
	h := sha256.New()
	put := func(vs ...int64) {
		var b [8]byte
		for _, v := range vs {
			binary.LittleEndian.PutUint64(b[:], uint64(v))
			h.Write(b[:])
		}
	}
	put(int64(len(m.lat)))
	put(sortedCopy(m.lat)...)
	c := m.layers
	put(int64(m.finalV), int64(m.vElapsed), int64(m.attempted), int64(m.failed),
		int64(c.faults), int64(c.forced), int64(c.proactive), int64(c.cleans), int64(c.retries),
		int64(c.epochs), int64(c.skipped), int64(c.faultWait), int64(c.maxDirty),
		int64(c.ssdWrites), int64(c.ssdBytes), int64(c.ssdStalls), int64(c.ssdDepth), int64(c.ssdLag),
		int64(c.mmuFaults), int64(c.tlbMisses), int64(c.tlbFlushes), int64(c.pteUpdates), int64(c.walks),
		int64(c.begins), int64(c.completes), int64(c.appendBytes), int64(c.compactions))
	put(m.pf.flushV...)
	put(m.pf.restoreV...)
	return hex.EncodeToString(h.Sum(nil))
}

// print writes a metric table, one "name value unit" line per metric, in
// the declared order.
func (ms metrics) print(w io.Writer, list []nameUnit) {
	for _, nu := range list {
		if x, ok := ms[nu.name]; ok {
			fmt.Fprintf(w, "  %-36s %16.4f %s\n", nu.name, x.Value, x.Unit)
		}
	}
}
