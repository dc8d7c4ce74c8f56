// Package scrub is the background integrity scrubber for the durable
// store. Viyojit's guarantee — everything outside the dirty budget is
// already durable on the SSD — is only as good as the SSD's bytes, and
// silent corruption (bit rot at rest, lost and misdirected writes)
// degrades them without any error ever reaching the host. The scrubber
// closes that gap: it walks the durable page set on the simulation
// clock at a configurable share of the device's read bandwidth,
// verifies every page against its recorded checksum, and acts on what
// it finds.
//
//   - Repairable: the page's authoritative copy lives in NV-DRAM (the
//     region is the source of truth for every page it covers). The
//     scrubber asks the core manager for a forced re-clean
//     (Manager.RepairPage) — a budget-enforced re-dirty plus immediate
//     clean, so `dirty ≤ budget` holds even mid-repair and the rewrite
//     flows through the normal clean path with all its retry and
//     accounting machinery.
//   - Unrepairable: the manager is closed, writes are blocked by the
//     degradation ladder, or the page lies outside the region. The page
//     is quarantined and reported — never silently left to be restored
//     as good data.
//
// Detection feeds internal/health: fresh scrub detections are a ladder
// escalation signal alongside clean-error streaks and budget shortfall.
//
// The scrubber charges no global clock time for verification itself (a
// real scrubber's reads compete for device bandwidth, not for the
// host's CPU); its bandwidth share is modelled purely by pacing — each
// burst of pages is followed by the idle gap that pins the scan rate to
// share × read bandwidth.
package scrub

import (
	"sort"

	"viyojit/internal/core"
	"viyojit/internal/mmu"
	"viyojit/internal/obs"
	"viyojit/internal/sim"
	"viyojit/internal/ssd"
)

// Config parameterises the scrubber.
type Config struct {
	// BandwidthShare is the fraction of the device's read bandwidth the
	// background scan may consume, modelled by pacing. 0 selects 0.05;
	// viyojit.New rejects a share that is negative, NaN or above 1.
	BandwidthShare float64
	// Obs is the observability registry the scrubber mirrors its
	// counters onto and records burst spans through. nil disables the
	// mirror (Stats still works).
	Obs *obs.Registry
}

func (c Config) withDefaults() Config {
	if c.BandwidthShare == 0 {
		c.BandwidthShare = 0.05
	}
	return c
}

// burstPages is the number of pages verified per scan burst.
const burstPages = 8

// Quarantined records one page the scrubber detected as corrupt and
// could not repair.
type Quarantined struct {
	Page   mmu.PageID
	At     sim.Time // detection time
	Reason string   // why repair was not possible
}

// Stats counts scrubber activity since construction.
type Stats struct {
	Bursts       uint64
	PagesScanned uint64
	Passes       uint64 // complete walks of the durable set
	Detections   uint64 // checksum failures found
	Repairs      uint64 // clean pages re-dirtied and resubmitted
	RepairKicks  uint64 // dirty pages whose pending clean was kicked early
	Quarantines  uint64 // detections with no repair path
	Requarantine uint64 // re-detections of already-quarantined pages
	Cleared      uint64 // quarantined pages found intact again (overwritten)

	// TotalDetectLatency sums, over detections with a known corruption
	// time, the gap between corruption and detection — the numerator of
	// mean time to detect.
	TotalDetectLatency sim.Duration
	timedDetections    uint64
}

// MTTD returns the mean time from corruption to detection over the
// detections whose corruption time the oracle knew (0 with none).
func (s Stats) MTTD() sim.Duration {
	if s.timedDetections == 0 {
		return 0
	}
	return s.TotalDetectLatency / sim.Duration(s.timedDetections)
}

// Scrubber walks the durable set verifying checksums. It is not safe
// for concurrent use; everything runs on the owning simulation's
// goroutine.
type Scrubber struct {
	clock  *sim.Clock
	events *sim.Queue
	dev    *ssd.SSD
	mgr    *core.Manager // nil = verify/quarantine only
	cfg    Config

	cursor     mmu.PageID             // walk position: next burst starts above this page
	started    bool                   // cursor is meaningful (mid-pass)
	passDone   bool                   // the walk reached the end of the set (pass counted) and has not wrapped yet
	burst      [burstPages]mmu.PageID // the pages of the burst in progress
	running    bool
	inBurst    bool // re-entrancy guard: RepairPage pumps events
	next       *sim.Event
	burstFn    func(sim.Time) // s.burstEvent, bound once
	quarantine map[mmu.PageID]Quarantined
	stats      Stats

	// Registry mirror (nil-safe: a scrubber without Config.Obs records
	// into nil instruments, which no-op). The Stats struct stays the
	// source of truth; the instruments expose the same counts on the
	// system-wide registry plus the quarantine level as a gauge.
	st instruments
	tr *obs.Tracer
}

type instruments struct {
	bursts       *obs.Counter
	pagesScanned *obs.Counter
	passes       *obs.Counter
	detections   *obs.Counter
	repairs      *obs.Counter
	repairKicks  *obs.Counter
	quarantines  *obs.Counter
	cleared      *obs.Counter
	quarantined  *obs.Gauge
}

func newInstruments(r *obs.Registry) instruments {
	if r == nil {
		return instruments{}
	}
	return instruments{
		bursts:       r.Counter("scrub_bursts_total"),
		pagesScanned: r.Counter("scrub_pages_scanned_total"),
		passes:       r.Counter("scrub_passes_total"),
		detections:   r.Counter("scrub_detections_total"),
		repairs:      r.Counter("scrub_repairs_total"),
		repairKicks:  r.Counter("scrub_repair_kicks_total"),
		quarantines:  r.Counter("scrub_quarantines_total"),
		cleared:      r.Counter("scrub_cleared_total"),
		quarantined:  r.Gauge("scrub_quarantined_pages"),
	}
}

// New creates a scrubber over dev, repairing through mgr (nil for a
// verify-only scrubber). It does not start scanning; call Start.
func New(clock *sim.Clock, events *sim.Queue, dev *ssd.SSD, mgr *core.Manager, cfg Config) *Scrubber {
	cfg = cfg.withDefaults()
	s := &Scrubber{
		clock:  clock,
		events: events,
		dev:    dev,
		mgr:    mgr,
		cfg:    cfg,
		st:     newInstruments(cfg.Obs),
		tr:     cfg.Obs.Tracer(),
	}
	s.burstFn = s.burstEvent
	return s
}

// Stats returns a snapshot of the counters.
func (s *Scrubber) Stats() Stats { return s.stats }

// Quarantine returns the currently quarantined pages, sorted.
func (s *Scrubber) Quarantine() []Quarantined {
	out := make([]Quarantined, 0, len(s.quarantine))
	for _, q := range s.quarantine {
		out = append(out, q)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Page < out[j].Page })
	return out
}

// burstGap is the pacing interval that pins the scan rate to
// share × read bandwidth: the virtual time a burst's reads would occupy
// on the device, stretched by 1/share.
func (s *Scrubber) burstGap() sim.Duration {
	bytes := int64(burstPages) * int64(s.dev.Config().PageSize)
	seconds := float64(bytes) / (s.cfg.BandwidthShare * float64(s.dev.Config().ReadBandwidth))
	return sim.Duration(seconds * float64(sim.Second))
}

// Start arms the background scan; the first burst fires one pacing gap
// from now. Starting a running scrubber is a no-op.
func (s *Scrubber) Start() {
	if s.running {
		return
	}
	s.running = true
	s.scheduleNext()
}

// Stop cancels the background scan (a synchronous ScrubAll still works).
func (s *Scrubber) Stop() {
	if !s.running {
		return
	}
	s.running = false
	if s.next != nil {
		s.events.Cancel(s.next)
		s.next = nil
	}
}

// scheduleNext arms the next burst one pacing gap from now, on the
// scrubber's one event: re-armed once it exists, so a burst allocates no
// timer state.
func (s *Scrubber) scheduleNext() {
	at := s.clock.Now().Add(s.burstGap())
	if s.next == nil {
		s.next = s.events.Schedule(at, s.burstFn)
		return
	}
	s.events.Rearm(s.next, at, s.burstFn)
}

// burstEvent is one paced scan step. It skips (but keeps the cadence)
// while writes are blocked — during an emergency drain or power-fail
// flush every divergence is about to be overwritten, and quarantining
// mid-flush would report pages the flush is busy fixing — and while a
// nested burst is already on the stack (RepairPage pumps the event
// queue, which can fire the next scheduled burst).
func (s *Scrubber) burstEvent(sim.Time) {
	if !s.running {
		return
	}
	if s.mgr != nil && s.mgr.Closed() {
		// Detached manager: the system is shutting down or crashed;
		// stop rather than quarantine everything the flush wrote.
		s.running = false
		s.next = nil
		return
	}
	if s.inBurst || (s.mgr != nil && s.mgr.WritesBlocked()) {
		s.scheduleNext()
		return
	}
	s.inBurst = true
	s.stats.Bursts++
	s.st.bursts.Inc()
	sp := s.tr.Begin("scrub.burst", s.clock.Now())
	detBefore := s.stats.Detections
	s.scanBurst()
	code := "ok"
	if s.stats.Detections > detBefore {
		code = "detect"
	}
	s.tr.Finish(sp, s.clock.Now(), code)
	s.inBurst = false
	s.scheduleNext()
}

// scanBurst verifies the next burstPages pages of the walk: the durable
// pages above the cursor, or, when none is left there, the walk wraps
// and the burst starts again from the lowest page. The pages are taken
// once, before the first check — a repair pumps the event queue, and
// pages that turn durable meanwhile wait for a later burst. A burst
// never crosses the end of the set, so it visits no page twice; reaching
// the end completes a pass, counted there, or at the wrap when the last
// burst stopped exactly on the last page.
func (s *Scrubber) scanBurst() {
	pages := s.burst[:0]
	if s.started {
		pages = s.dev.DurablePagesFrom(s.cursor+1, burstPages, pages)
	}
	if len(pages) == 0 {
		pages = s.dev.DurablePagesFrom(0, burstPages, pages)
		if len(pages) == 0 {
			return
		}
		if s.started && !s.passDone {
			s.notePass()
		}
		s.passDone = false
	}
	s.started = true
	for _, p := range pages {
		s.cursor = p
		s.checkPage(p)
	}
	if len(pages) < burstPages && !s.passDone {
		s.notePass()
		s.passDone = true
	}
}

func (s *Scrubber) notePass() {
	s.stats.Passes++
	s.st.passes.Inc()
}

// ScrubAll runs one full synchronous pass over the durable set,
// ignoring pacing — the on-demand scrub viyojit.Scrub exposes. It
// returns the number of detections this pass.
func (s *Scrubber) ScrubAll() uint64 {
	if s.inBurst {
		return 0
	}
	s.inBurst = true
	defer func() { s.inBurst = false }()
	before := s.stats.Detections
	for _, p := range s.dev.DurablePageList() {
		s.checkPage(p)
	}
	s.notePass()
	return s.stats.Detections - before
}

// checkPage verifies one page and repairs or quarantines on mismatch.
func (s *Scrubber) checkPage(page mmu.PageID) {
	s.stats.PagesScanned++
	s.st.pagesScanned.Inc()
	if err := s.dev.VerifyPage(page); err == nil {
		if _, wasQ := s.quarantine[page]; wasQ {
			// A later application write re-cleaned the page; the durable
			// copy is good again.
			delete(s.quarantine, page)
			s.stats.Cleared++
			s.st.cleared.Inc()
			s.st.quarantined.Set(int64(len(s.quarantine)))
		}
		return
	}
	if _, wasQ := s.quarantine[page]; wasQ {
		s.stats.Requarantine++
		return
	}
	s.stats.Detections++
	s.st.detections.Inc()
	if at, known := s.dev.CorruptedSince(page); known {
		s.stats.TotalDetectLatency += s.clock.Now().Sub(at)
		s.stats.timedDetections++
	}

	if s.mgr == nil {
		s.quarantinePage(page, "no manager to repair through")
		return
	}
	dirtyBefore := s.mgr.IsDirty(page)
	if err := s.mgr.RepairPage(page); err != nil {
		s.quarantinePage(page, err.Error())
		return
	}
	if dirtyBefore {
		s.stats.RepairKicks++
		s.st.repairKicks.Inc()
	} else {
		s.stats.Repairs++
		s.st.repairs.Inc()
	}
}

func (s *Scrubber) quarantinePage(page mmu.PageID, reason string) {
	s.stats.Quarantines++
	s.st.quarantines.Inc()
	if s.quarantine == nil {
		s.quarantine = make(map[mmu.PageID]Quarantined)
	}
	s.quarantine[page] = Quarantined{Page: page, At: s.clock.Now(), Reason: reason}
	s.st.quarantined.Set(int64(len(s.quarantine)))
}

// ScrubErrors implements the health monitor's scrub-signal interface:
// cumulative detections and the current quarantine size.
func (s *Scrubber) ScrubErrors() (detections uint64, quarantined int) {
	return s.stats.Detections, len(s.quarantine)
}
