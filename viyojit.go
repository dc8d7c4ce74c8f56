// Package viyojit is the public facade of the Viyojit reproduction: a
// battery-backed DRAM (NV-DRAM) manager that decouples battery capacity
// from DRAM capacity by bounding the number of dirty pages to what the
// provisioned battery can flush on power failure (Kateja et al., ISCA
// 2017).
//
// A System bundles the full simulated stack — virtual clock, software
// MMU, NV-DRAM region, SSD, battery, and the dirty-budget manager — and
// exposes the paper's mmap-like API:
//
//	sys, _ := viyojit.New(viyojit.Config{
//		NVDRAMSize: 64 << 20,
//		Battery:    viyojit.BatteryConfig{CapacityJoules: 40},
//	})
//	m, _ := sys.Map("heap", 16<<20)
//	_ = m.WriteAt([]byte("durable at DRAM speed"), 0)
//	sys.Pump()
//	report := sys.SimulatePowerFailure()   // flushes the dirty set
//	recovered, _ := sys.Recover()          // reboot, warm from the SSD
//
// Writes to clean pages trap into the manager, which tracks and bounds
// the dirty set; a background epoch task proactively copies the least
// recently updated pages to the SSD so bursts don't block. Durability
// holds for the entire NV-DRAM even though the battery only covers the
// dirty budget.
package viyojit

import (
	"context"
	"errors"
	"fmt"
	"io"
	"slices"
	"sync"

	"viyojit/internal/battery"
	"viyojit/internal/blackbox"
	"viyojit/internal/core"
	"viyojit/internal/health"
	"viyojit/internal/intent"
	"viyojit/internal/kvstore"
	"viyojit/internal/nvdram"
	"viyojit/internal/obs"
	"viyojit/internal/pheap"
	"viyojit/internal/power"
	"viyojit/internal/recovery"
	"viyojit/internal/scrub"
	"viyojit/internal/sensor"
	"viyojit/internal/serve"
	"viyojit/internal/sim"
	"viyojit/internal/ssd"
)

// Re-exported types, so downstream code speaks one package.
type (
	// Mapping is a named NV-DRAM range returned by System.Map.
	Mapping = core.Mapping
	// ManagerStats are the dirty-budget manager's counters.
	ManagerStats = core.Stats
	// PowerFailReport describes a simulated power-loss flush.
	PowerFailReport = core.PowerFailReport
	// BatteryConfig describes the provisioned battery.
	BatteryConfig = battery.Config
	// SSDConfig describes the backing device.
	SSDConfig = ssd.Config
	// Duration is virtual time in nanoseconds.
	Duration = sim.Duration
	// HealthConfig tunes the runtime health monitor.
	HealthConfig = health.Config
	// HealthState is the manager's rung on the degradation ladder.
	HealthState = core.HealthState
	// ScrubConfig tunes the background integrity scrubber.
	ScrubConfig = scrub.Config
	// SensorConfig tunes the fault-tolerant energy-telemetry fusion
	// the dirty budget is derived from (see internal/sensor).
	SensorConfig = sensor.Config
	// ScrubStats are the scrubber's counters.
	ScrubStats = scrub.Stats
	// QuarantinedPage is one corrupt durable page with no repair path.
	QuarantinedPage = scrub.Quarantined
	// IntegrityReport is the per-page repair/quarantine accounting of a
	// verified restore (System.Recover).
	IntegrityReport = recovery.IntegrityReport
	// ServeConfig tunes the concurrent serving front-end (System.Serve).
	ServeConfig = serve.Config
	// ServeRequest is one unit of admission for the serving front-end.
	ServeRequest = serve.Request
	// ServeResult is a completed request's outcome: Value is whatever the
	// request's Op returned (nil for an idempotent request, which has no
	// Op), and Idem is an idempotent request's IdemResult.
	ServeResult = serve.Result
	// ServeStats are the front-end's admission/shedding counters.
	ServeStats = serve.Stats
	// ServeExec is the execution context a request's Op receives.
	ServeExec = serve.Exec
	// IdemOp is an idempotently-executed mutation (exactly-once across
	// retries and power failures; see System.SubmitIdempotent).
	IdemOp = serve.IdemOp
	// IdemResult is an idempotent request's outcome, including whether
	// it was answered from the intent journal's result cache.
	IdemResult = serve.IdemResult
	// RetryingClient drives idempotent ops with typed-error-aware
	// retries and jittered backoff (see System.NewRetryingClient).
	RetryingClient = serve.RetryingClient
	// RetryConfig tunes a RetryingClient.
	RetryConfig = serve.RetryConfig
	// IntentJournal is the battery-backed request intent journal that
	// makes serving exactly-once across power failure.
	IntentJournal = intent.Journal
	// IntentConfig tunes an intent journal (dedup window, metrics).
	IntentConfig = intent.Config
	// IntentStats are a journal's counters (append traffic, live
	// entries, compaction generation).
	IntentStats = intent.Stats
	// RecoveryCursor is the persistent, battery-backed recovery
	// progress cursor: which phase and record recovery has durably
	// completed, so a re-crash during replay resumes instead of
	// re-running (see System.NewRecoveryCursor).
	RecoveryCursor = recovery.Cursor
	// ReplayStats reports what a restartable replay did.
	ReplayStats = serve.ReplayStats
	// MetricsRegistry is the system-wide observability registry
	// returned by System.Metrics.
	MetricsRegistry = obs.Registry
	// BlackBoxRecorder is the crash-surviving flight recorder (enabled
	// by Config.BlackBox; see internal/blackbox).
	BlackBoxRecorder = blackbox.Recorder
	// ForensicReport is the post-failure reconstruction walked out of
	// the flight recorder's battery-backed ring (System.Forensics).
	ForensicReport = blackbox.Report
)

// Serving-layer request classes and priorities (see internal/serve).
const (
	ClassClient     = serve.ClassClient
	ClassBackground = serve.ClassBackground
	PriorityLow     = serve.PriorityLow
	PriorityNormal  = serve.PriorityNormal
	PriorityHigh    = serve.PriorityHigh
)

// Idempotent mutation kinds (see serve.IdemOp).
const (
	IdemPut    = serve.IdemPut
	IdemDelete = serve.IdemDelete
	IdemRMW    = serve.IdemRMW
)

// The serving front-end's typed rejections; match with errors.Is.
var (
	// ErrOverloaded: admission control shed the request (queue full,
	// watermark, or ladder-driven shedding).
	ErrOverloaded = serve.ErrOverloaded
	// ErrDeadlineExceeded: the virtual-time deadline passed in queue or
	// a predicted clean-stall would miss it.
	ErrDeadlineExceeded = serve.ErrDeadlineExceeded
	// ErrReadOnly: the degradation ladder has writes blocked.
	ErrReadOnly = serve.ErrReadOnly
	// ErrServerClosed: the front-end was stopped by Stop/Close.
	ErrServerClosed = serve.ErrServerClosed
	// ErrPowerFailure: a power failure severed this server; queued and
	// in-flight requests fail with it. Retryable — replay the same
	// (client, seq) against the recovered system to learn the outcome
	// exactly once.
	ErrPowerFailure = serve.ErrPowerFailure
	// ErrRetriesExhausted wraps the last error after a RetryingClient
	// runs out of attempts or deadline.
	ErrRetriesExhausted = serve.ErrRetriesExhausted
	// ErrStaleSeq: an idempotent retry fell below the journal's dedup
	// window; its outcome is no longer known.
	ErrStaleSeq = serve.ErrStaleSeq
	// ErrSeqReuse: a client reused a sequence number for a different op.
	ErrSeqReuse = serve.ErrSeqReuse
)

// ErrRetired is what Recover and RecoverWith return on a retired System:
// one a later reboot retired, because a System recovered from it was
// itself recovered from, or because it was closed beside the source of a
// reboot or beside the reboot itself (see Recover). Its device object has handed its page
// buffers on, so it has nothing left to restore from.
var ErrRetired = errors.New("viyojit: system retired by a later reboot")

// Retryable reports whether a serving-layer error is safe to retry:
// the request was never executed (overload/deadline shed) or its
// execution state is knowable through the intent journal (power
// failure). See serve.Retryable.
func Retryable(err error) bool { return serve.Retryable(err) }

// Degradation-ladder rungs (see core.HealthState).
const (
	StateHealthy        = core.StateHealthy
	StateDegraded       = core.StateDegraded
	StateEmergencyFlush = core.StateEmergencyFlush
	StateReadOnly       = core.StateReadOnly
)

// Config assembles a System. Zero values select the calibrated defaults
// documented on each field's type. What is not configurable is fixed:
// 4 KiB pages, the server power model power.Default(), least recently
// updated victims (§5.2), software write-protection traps, and §5.1's
// budget inputs health.Derating and health.FlushReserve.
type Config struct {
	// NVDRAMSize is the battery-backed region size in bytes (required,
	// a positive multiple of the page size).
	NVDRAMSize int64
	// Battery is the provisioned battery. If CapacityJoules is 0, the
	// battery is provisioned for ~12.5 % of the region (the paper's
	// "11 % battery" configuration, with conservative-bandwidth margin).
	Battery BatteryConfig
	// SSD is the backing device; the zero value selects ssd defaults.
	SSD SSDConfig
	// Epoch is the dirty-bit scan period; 0 selects 1 ms.
	Epoch Duration
	// Health tunes the runtime health monitor that re-derives the
	// budget from the live battery and SSD and operates the degradation
	// ladder. Zero values select the monitor's defaults.
	Health HealthConfig
	// DisableHealthMonitor turns the monitor off; budget retuning then
	// happens only through the battery's change hooks.
	DisableHealthMonitor bool
	// Scrub tunes the background integrity scrubber. Zero values select
	// the scrubber's defaults (5 % read-bandwidth share, 8-page bursts).
	Scrub ScrubConfig
	// DisableScrubber turns the background scan off. The scrubber still
	// exists for on-demand System.Scrub calls.
	DisableScrubber bool
	// Sensor tunes the fault-tolerant energy-telemetry layer: two
	// redundant battery estimators (coulomb counter + voltage-curve
	// SoC) fused with plausibility gating, staleness watchdog, and
	// conservative-lower-bound disagreement handling. The health
	// monitor and recovery budgeting consume the fused estimate, never
	// a single raw gauge. Zero values select the sensor's defaults,
	// with StaleAfter derived from the monitor interval. With healthy
	// gauges the fused estimate equals the battery model exactly, so
	// the layer is numerically neutral.
	Sensor SensorConfig
	// BlackBox enables the crash-surviving flight recorder: a
	// checksummed ring of binary event records in battery-backed pages,
	// Map'd before any application mapping and charged against the same
	// dirty budget as the heap. The registry tees budget, ladder,
	// sensor, serve, and recovery decisions into it (obs.Sink), and
	// after Recover the ring is walked into System.Forensics(). The
	// recorder degrades to sampling — never blocks — when the budget is
	// tight. Its ring is BlackBoxPages pages.
	BlackBox bool
}

// BlackBoxPages is the flight recorder's ring size in pages (128 records
// at 4 KiB pages).
const BlackBoxPages = 2

// System is a fully wired Viyojit stack. It is not safe for concurrent
// use: the simulation is single-goroutine (DESIGN.md §5). The lifecycle
// entry points — Close, Recover, RecoverWith — are the one exception:
// they serialise on a mutex the System shares with every System of its
// lineage and are idempotent, so shutdown paths that race (a defer
// against an explicit Close, a crash handler against a recovery loop)
// cannot double-stop the stack.
type System struct {
	clock    *sim.Clock
	events   *sim.Queue
	region   *nvdram.Region
	dev      *ssd.SSD
	batt     *battery.Battery
	manager  *core.Manager
	monitor  *health.Monitor
	fused    *sensor.Fused
	scrubber *scrub.Scrubber
	server   *serve.Server
	reg      *obs.Registry
	cfg      Config

	// recorder and bbMap exist when Config.BlackBox is set; forensics
	// is populated on a recovered System (RecoverWith walks the
	// restored ring).
	recorder  *blackbox.Recorder
	bbMap     *core.Mapping
	forensics *blackbox.Report

	// heaps and journals are the heaps and intent journals this System
	// opened, by mapping name. A reboot built on this System's tables
	// takes both maps (build), and its OpenStore and OpenIntentJournal
	// reopen on the entry of the same name and replace it.
	heaps    map[string]*pheap.Heap
	journals map[string]*intent.Journal

	// lin is the lineage this System belongs to and parent the System
	// it was recovered from (nil for one New built). lin.mu, the
	// lifecycle lock, guards parent, closed and retired.
	lin     *lineage
	parent  *System
	closed  bool
	retired bool
}

// lineage is one machine's succession of Systems: one New built and every
// System recovered from it, directly or not. They stand for the same
// NV-DRAM and the same SSD, and their device objects share page buffers
// (ssd.SSD.AdoptVerified), so one mutex orders their lifecycles and live
// lists the members not retired: the ones whose device objects and
// regions may still read a buffer.
type lineage struct {
	mu   sync.Mutex
	live []*System
}

// New builds a System: region, device, battery, and manager, with the
// dirty budget derived from the battery and auto-retuned whenever the
// battery's capacity changes (§8).
func New(cfg Config) (*System, error) { return build(cfg, nil, nil) }

// build is New, or a reboot in lin that retires gone (lineage.retire):
// that is built on the first retiree's span ring, page table, TLB and
// dirty set, so it allocates nothing sized by the region, takes its heaps
// and journals for OpenStore and OpenIntentJournal to reopen on, and last
// takes over what every retiree leaves (takeOver).
func build(cfg Config, lin *lineage, gone []*System) (*System, error) {
	if cfg.NVDRAMSize <= 0 {
		return nil, fmt.Errorf("viyojit: NVDRAMSize %d must be positive", cfg.NVDRAMSize)
	}
	if share := cfg.Scrub.BandwidthShare; !(share >= 0 && share <= 1) {
		return nil, fmt.Errorf("viyojit: Scrub.BandwidthShare %v must be in (0, 1], or 0 for the default", share)
	}
	pm := power.Default()

	clock := sim.NewClock()
	regionCfg := nvdram.Config{Size: cfg.NVDRAMSize}
	var events *sim.Queue
	var reg *obs.Registry
	var oldMgr *core.Manager
	if len(gone) > 0 {
		events, reg = gone[0].events.Recycle(), gone[0].reg.Recycle()
		regionCfg.Retired, oldMgr = gone[0].region, gone[0].manager
	} else {
		events, reg = sim.NewQueue(), obs.NewRegistry()
	}
	region, err := nvdram.New(clock, regionCfg)
	if err != nil {
		return nil, err
	}
	devCfg := cfg.SSD
	if devCfg.PageSize == 0 {
		devCfg.PageSize = region.PageSize()
	}
	dev := ssd.New(clock, events, devCfg)
	dev.AttachObs(reg)

	conservativeBW := int64(float64(dev.Config().WriteBandwidth) * health.Derating)
	battCfg := cfg.Battery
	if battCfg.CapacityJoules == 0 {
		// Default provisioning: an effective budget of 12.5 % of the
		// region.
		needed := health.JoulesForBudget(pm, max(region.NumPages()/8, 1), conservativeBW,
			region.Size(), region.PageSize(), health.FlushReserve)
		battCfg = battery.Provision(needed, battCfg.DepthOfDischarge, battCfg.Derating)
	}
	batt, err := battery.New(battCfg)
	if err != nil {
		return nil, err
	}

	// Reserve fixed flush overhead (per-IO latency, fault-window slack)
	// before converting the remaining energy into pages, so small
	// budgets survive their own flushes. health.BudgetPages is the same
	// derivation the runtime monitor applies each tick.
	budgetForJoules := func(j float64) int {
		return health.BudgetPages(pm, j, conservativeBW, region.Size(), region.PageSize(), health.FlushReserve)
	}
	budget := budgetForJoules(batt.EffectiveJoules())
	if budget < 1 {
		return nil, fmt.Errorf("viyojit: battery of %.1f J effective cannot back even one page", batt.EffectiveJoules())
	}
	mgr, err := core.NewManager(clock, events, region, dev, core.Config{
		DirtyBudgetPages: budget,
		Epoch:            cfg.Epoch,
		Obs:              reg,
		Retired:          oldMgr,
	})
	if err != nil {
		return nil, err
	}

	// The flight recorder maps FIRST — before any application mapping —
	// so its ring lands at the same region offset on every boot and the
	// first-fit recovery contract re-attaches it for free. Its pages
	// are ordinary budget-accounted pages; the TelemetryWritable gate
	// makes every append that cannot be afforded a counted drop instead
	// of a stall.
	var recorder *blackbox.Recorder
	var bbMap *core.Mapping
	if cfg.BlackBox {
		bbMap, err = mgr.Map("__blackbox", BlackBoxPages*int64(region.PageSize()))
		if err != nil {
			return nil, err
		}
		recorder, err = blackbox.New(bbMap, blackbox.Options{
			Now:  clock.Now,
			Gate: bbMap.TelemetryWritable,
		})
		if err != nil {
			return nil, err
		}
		reg.SetSink(recorder)
		recorder.Boot(int64(budget))
	}
	// The budget follows the battery (§8): a shrink drains to what the
	// projected energy covers before the charge goes, and the health
	// monitor's ticks read that projection too.
	health.FollowBattery(batt, mgr, reg, budgetForJoules)
	reg.Gauge("battery_nameplate_millijoules").Set(int64(batt.NameplateJoules() * 1000))

	// The fused telemetry layer sits between the battery model and
	// every budget consumer. Both estimators read the same simulated
	// battery (exactly, until a fault injector corrupts one), gated
	// against the nameplate as the physical bound, so a healthy sensor
	// is numerically identical to reading the battery directly.
	scfg := cfg.Sensor
	if scfg.Obs == nil {
		scfg.Obs = reg
	}
	if scfg.StaleAfter == 0 && cfg.Health.Interval != 0 {
		// The watchdog must outlast a few sampling periods or every
		// monitor tick would declare the gauges stale.
		scfg.StaleAfter = cfg.Health.Interval * 5 / 2
	}
	fused, err := sensor.New(scfg, batt.NameplateJoules,
		sensor.NewCoulombCounter("coulomb", batt.EffectiveJoules),
		sensor.NewVoltageSoC("voltage", batt.EffectiveJoules, 0))
	if err != nil {
		return nil, err
	}
	fused.Sample(clock.Now())

	var mon *health.Monitor
	if !cfg.DisableHealthMonitor {
		hcfg := cfg.Health
		if hcfg.Obs == nil {
			hcfg.Obs = reg
		}
		if hcfg.Energy == nil {
			hcfg.Energy = fused
		}
		mon, err = health.NewMonitor(events, clock, batt, mgr, pm, hcfg)
		if err != nil {
			return nil, err
		}
	}

	// The scrubber always exists (on-demand Scrub calls work regardless);
	// only the paced background scan is optional. Its detections feed the
	// health monitor's ladder decisions.
	scrCfg := cfg.Scrub
	if scrCfg.Obs == nil {
		scrCfg.Obs = reg
	}
	scr := scrub.New(clock, events, dev, mgr, scrCfg)
	if !cfg.DisableScrubber {
		scr.Start()
	}
	if mon != nil {
		mon.AttachScrub(scr)
	}

	s := &System{
		clock:    clock,
		events:   events,
		region:   region,
		dev:      dev,
		batt:     batt,
		manager:  mgr,
		monitor:  mon,
		fused:    fused,
		scrubber: scr,
		reg:      reg,
		cfg:      cfg,
		recorder: recorder,
		bbMap:    bbMap,
	}
	if lin == nil {
		s.lin = &lineage{live: []*System{s}}
	} else {
		s.lin = lin // a member once RecoverWith's restore succeeds
	}
	if len(gone) > 0 {
		s.heaps, s.journals = gone[0].heaps, gone[0].journals
		gone[0].heaps, gone[0].journals = nil, nil
		if mon != nil && gone[0].monitor != nil {
			mon.Retire(gone[0].monitor)
		}
		s.takeOver(lin, gone)
	}
	return s, nil
}

// Map allocates a named NV-DRAM mapping (the paper's mmap-like API).
func (s *System) Map(name string, size int64) (*Mapping, error) {
	return s.manager.Map(name, size)
}

// Unmap persists and releases a mapping.
func (s *System) Unmap(m *Mapping) error { return s.manager.Unmap(m) }

// Pump delivers pending background events (epoch ticks, IO completions).
// Call it between batches of work, as a real application yields the CPU.
func (s *System) Pump() { s.manager.Pump() }

// Now returns the current virtual time.
func (s *System) Now() sim.Time { return s.clock.Now() }

// AdvanceTime moves virtual time forward, firing every event that falls
// due on the way at its own time — "the application sleeps" while the
// epoch task and the other background timers keep running.
func (s *System) AdvanceTime(d Duration) {
	s.events.RunUntil(s.clock, s.clock.Now().Add(d))
}

// DirtyBudget returns the current budget in pages.
func (s *System) DirtyBudget() int { return s.manager.DirtyBudget() }

// DirtyCount returns the pages currently dirty (not yet durable).
func (s *System) DirtyCount() int { return s.manager.DirtyCount() }

// Stats returns the manager's counters.
func (s *System) Stats() ManagerStats { return s.manager.Stats() }

// Metrics returns the system-wide observability registry: every
// subsystem (core, serve, scrub, health, ssd, battery) records onto it,
// and Snapshot/Export are safe to call concurrently with serving.
func (s *System) Metrics() *MetricsRegistry { return s.reg }

// WriteMetricsText writes the line-oriented text exposition of the
// current metrics and trace to w.
func (s *System) WriteMetricsText(w io.Writer) error {
	return s.reg.Export().WriteText(w)
}

// WriteMetricsJSON writes the indented JSON exposition of the current
// metrics and trace to w.
func (s *System) WriteMetricsJSON(w io.Writer) error {
	return s.reg.Export().WriteJSON(w)
}

// Battery returns the battery, e.g. to simulate capacity changes; the
// dirty budget retunes automatically on change.
func (s *System) Battery() *battery.Battery { return s.batt }

// SSD returns the backing device, e.g. to attach a fault injector
// (ssd.SetFaultInjector) or read device stats.
func (s *System) SSD() *ssd.SSD { return s.dev }

// Events returns the simulation's event queue, e.g. to schedule battery
// sag or install a crash-point hook (faultinject package).
func (s *System) Events() *sim.Queue { return s.events }

// Health returns the runtime health monitor (nil when
// Config.DisableHealthMonitor was set).
func (s *System) Health() *health.Monitor { return s.monitor }

// Sensor returns the fused energy-telemetry layer the budget is
// derived from. Fault injectors attach to its estimators:
//
//	inj := faultinject.NewSensorInjector(faultinject.SensorConfig{Seed: 1, LieProb: 0.01})
//	sys.Sensor().Estimator(1).SetCorruptor(inj)
func (s *System) Sensor() *sensor.Fused { return s.fused }

// HealthState returns the manager's rung on the degradation ladder.
func (s *System) HealthState() HealthState { return s.manager.HealthState() }

// Manager exposes the dirty-budget manager, e.g. for ladder operations
// (Resume after an SSD replacement) or budget inspection.
func (s *System) Manager() *core.Manager { return s.manager }

// Scrub runs one full synchronous integrity pass over the durable set —
// every page checked against its checksum, corrupt pages repaired
// through the budget-enforced re-clean path or quarantined. It returns
// the number of corruptions detected this pass.
func (s *System) Scrub() uint64 { return s.scrubber.ScrubAll() }

// IntegrityStatus is System.IntegrityReport's summary of end-to-end
// data-integrity state: what the scrubber found and fixed, and what the
// device-level verification counters saw.
type IntegrityStatus struct {
	// Scrub are the scrubber's counters (detections, repairs, MTTD).
	Scrub ScrubStats
	// Quarantined lists corrupt durable pages with no repair path.
	Quarantined []QuarantinedPage
	// VerifyChecks and VerifyFailures are the device's cumulative
	// checksum verifications and failures (scrub, restore, and direct
	// verified reads combined).
	VerifyChecks   uint64
	VerifyFailures uint64
}

// IntegrityReport summarises the system's integrity state.
func (s *System) IntegrityReport() IntegrityStatus {
	devStats := s.dev.Stats()
	return IntegrityStatus{
		Scrub:          s.scrubber.Stats(),
		Quarantined:    s.scrubber.Quarantine(),
		VerifyChecks:   devStats.VerifyChecks,
		VerifyFailures: devStats.VerifyFailures,
	}
}

// BlackBox returns the flight recorder, or nil when Config.BlackBox
// was not set. Most callers never need it — the obs tee feeds it
// automatically — but tests and tools can Mark milestones or read
// LastSeq/Dropped through it.
func (s *System) BlackBox() *BlackBoxRecorder { return s.recorder }

// BlackBoxReport walks the recorder's ring as it stands right now and
// returns the forensic report — the same view a post-crash Recover
// would adopt if power failed at this instant. It errors when the
// recorder is disabled.
func (s *System) BlackBoxReport() (ForensicReport, error) {
	if s.recorder == nil {
		return ForensicReport{}, fmt.Errorf("viyojit: black box not enabled (set Config.BlackBox)")
	}
	w, err := blackbox.ReadAndWalk(s.bbMap)
	if err != nil {
		return ForensicReport{}, err
	}
	return blackbox.BuildReport(w), nil
}

// BlackBoxImage returns a copy of the raw ring bytes as they stand
// right now — the image an operator would pull off the battery-backed
// region for offline analysis (cmd/blackbox -in). It errors when the
// recorder is disabled.
func (s *System) BlackBoxImage() ([]byte, error) {
	if s.recorder == nil {
		return nil, fmt.Errorf("viyojit: black box not enabled (set Config.BlackBox)")
	}
	img := make([]byte, s.bbMap.Size())
	if err := s.bbMap.ReadAt(img, 0); err != nil {
		return nil, err
	}
	return img, nil
}

// Forensics returns the report recovered from the previous
// incarnation's flight-recorder ring — the crash-instant timeline,
// dirty/budget trajectories, and final ladder state. It is non-nil
// only on a System produced by Recover with the black box enabled.
func (s *System) Forensics() *ForensicReport { return s.forensics }

// NewStore formats a persistent heap on a fresh mapping and creates a
// KV store on it — the store most serving deployments front with
// System.Serve. Sizing mirrors the evaluation harness: one hash bucket
// per ~2 pages of heap, minimum 64.
func (s *System) NewStore(name string, size int64) (*kvstore.Store, error) {
	m, err := s.Map(name, size)
	if err != nil {
		return nil, err
	}
	heap, err := pheap.Format(m)
	if err != nil {
		return nil, err
	}
	s.heaps = keep(s.heaps, name, heap)
	buckets := int(size / 8192)
	if buckets < 64 {
		buckets = 64
	}
	return kvstore.Create(heap, buckets)
}

// OpenStore reopens a store that survived a power cycle: the recovery
// counterpart of NewStore. Call it on the System returned by Recover
// with the SAME name and size, and in the same order relative to other
// Map/NewStore/NewIntentJournal calls as at creation — mapping layout is
// first-fit, so identical call order re-attaches each mapping to its
// restored bytes. On a reboot the heap reopens on the class table of the
// one its first retiree opened under name (pheap.OpenOn).
func (s *System) OpenStore(name string, size int64) (*kvstore.Store, error) {
	m, err := s.Map(name, size)
	if err != nil {
		return nil, err
	}
	heap, err := pheap.OpenOn(m, take(s.heaps, name))
	if err != nil {
		return nil, err
	}
	s.heaps = keep(s.heaps, name, heap)
	return kvstore.Open(heap)
}

// take removes and returns tables[name]: a retired heap or journal is
// handed to one reopen only, whether or not it succeeds.
func take[T any](tables map[string]*T, name string) *T {
	t := tables[name]
	delete(tables, name)
	return t
}

// keep records t as the table opened under name, making the map if it
// is nil.
func keep[T any](tables map[string]*T, name string, t *T) map[string]*T {
	if tables == nil {
		tables = make(map[string]*T)
	}
	tables[name] = t
	return tables
}

// NewIntentJournal formats a request intent journal on a fresh mapping.
// The journal lives in battery-backed NV-DRAM like any other mapping, so
// its pages are dirty-budget-accounted and flushed by the same powerfail
// path as the data they protect.
func (s *System) NewIntentJournal(name string, size int64, cfg IntentConfig) (*IntentJournal, error) {
	m, err := s.Map(name, size)
	if err != nil {
		return nil, err
	}
	if cfg.Obs == nil {
		cfg.Obs = s.reg
	}
	j, err := intent.Create(m, cfg)
	if err != nil {
		return nil, err
	}
	s.journals = keep(s.journals, name, j)
	return j, nil
}

// OpenIntentJournal reopens a journal after Recover (same name, size,
// and call-order contract as OpenStore) and rebuilds the dedup table
// from the committed record prefix, dropping a torn tail if the crash
// interrupted an append.
//
// On a reboot the journal reopens on the tables and buffers of the one
// its first retiree opened under name (intent.OpenOn).
//
// After opening, resolve in-flight intents with ReplayPendingWith BEFORE
// serving resumes — a journaled redo image is only sound against
// pre-crash store state.
func (s *System) OpenIntentJournal(name string, size int64) (*IntentJournal, error) {
	m, err := s.Map(name, size)
	if err != nil {
		return nil, err
	}
	j, err := intent.OpenOn(m, s.reg, take(s.journals, name))
	if err != nil {
		return nil, err
	}
	s.journals = keep(s.journals, name, j)
	return j, nil
}

// ReplayPendingWith applies the redo image of every journaled intent
// whose result never committed — the requests in flight when power
// failed — and completes them in the journal, so every retry afterwards
// dedups. Call it between OpenIntentJournal and Serve. With a cursor
// each redo's completion is durably recorded before the next starts, so
// a power failure mid-replay resumes instead of re-running; the system's
// manager paces the redos against the current dirty budget, and the
// system's registry receives the replay instruments. See
// serve.ReplayPendingWith for the full contract.
func (s *System) ReplayPendingWith(store *kvstore.Store, j *IntentJournal, cursor *RecoveryCursor) (ReplayStats, error) {
	return serve.ReplayPendingWith(store, j, serve.ReplayOptions{
		Cursor: cursor,
		Mgr:    s.manager,
		Obs:    s.reg,
	})
}

// NewRecoveryCursor formats a persistent recovery cursor over a named
// battery-backed mapping (at least recovery.MinCursorBytes long) and
// wires its instruments to the system registry. Create it once at
// format time; reopen with OpenRecoveryCursor after a power cycle.
func (s *System) NewRecoveryCursor(name string, size int64) (*RecoveryCursor, error) {
	m, err := s.Map(name, size)
	if err != nil {
		return nil, err
	}
	return recovery.CreateCursor(m, s.reg)
}

// OpenRecoveryCursor reopens a persistent recovery cursor from a named
// mapping after a power cycle. A torn slot write costs one write, never
// the cursor: the reader adopts the newest intact slot.
func (s *System) OpenRecoveryCursor(name string, size int64) (*RecoveryCursor, error) {
	m, err := s.Map(name, size)
	if err != nil {
		return nil, err
	}
	return recovery.OpenCursor(m, s.reg)
}

// SubmitIdempotent routes one exactly-once mutation through the serving
// front-end: op runs at most once for (clientID, seq) across retries and
// power failures. Serve must have been called with a Journal configured.
func (s *System) SubmitIdempotent(ctx context.Context, clientID, seq uint64, op IdemOp, opts ServeRequest) (IdemResult, error) {
	if s.server == nil {
		return IdemResult{}, fmt.Errorf("viyojit: not serving; call Serve first")
	}
	return s.server.SubmitIdempotent(ctx, clientID, seq, op, opts)
}

// NewRetryingClient builds a retrying client bound to the running
// front-end. id must be non-zero and unique per live client.
func (s *System) NewRetryingClient(id, seed uint64, cfg RetryConfig) (*RetryingClient, error) {
	if s.server == nil {
		return nil, fmt.Errorf("viyojit: not serving; call Serve first")
	}
	return serve.NewRetryingClient(s.server, id, seed, cfg)
}

// Serve starts the concurrent request front-end over this system: the
// server takes ownership of the clock, event queue, manager, and store,
// and many client goroutines submit through the returned server (also
// Server()). One goroutine at a time owns that stack, and it is
// always a client blocked on the server: the server starts no goroutine.
// store may be nil when requests only need the manager.
//
// While serving, the single-goroutine System methods (Pump,
// AdvanceTime, Map, Scrub, ...) must not be called concurrently with
// the server — route that work through the server's Submit as
// ClassBackground requests instead. Stop serving with Server().Stop() or Close.
//
// An open-loop client paces with Server().WaitUntil and admits with
// Server().SubmitAsync. Once WaitUntil returns, the clock is held: no
// Submit or Handle.Wait moves virtual time until the next admission,
// WaitUntil or Stop. A goroutine that calls WaitUntil and then waits on
// a queued request without admitting anything therefore blocks until
// another goroutine does one of those.
func (s *System) Serve(store *kvstore.Store, cfg ServeConfig) (*serve.Server, error) {
	if s.server != nil {
		return nil, fmt.Errorf("viyojit: already serving")
	}
	if cfg.Obs == nil {
		cfg.Obs = s.reg
	}
	srv, err := serve.New(s.clock, s.events, s.manager, store, cfg)
	if err != nil {
		return nil, err
	}
	if err := srv.Start(); err != nil {
		return nil, err
	}
	s.server = srv
	return srv, nil
}

// Server returns the running front-end (nil before Serve).
func (s *System) Server() *serve.Server { return s.server }

// FlushAll synchronously cleans every dirty page (clean shutdown).
// The flight recorder is quiesced for the drain — the dirty gauge
// falling as each clean completes would otherwise tee appends that
// re-dirty ring pages under the loop trying to empty the dirty set —
// and resumes, drops counted, once the set is empty.
func (s *System) FlushAll() {
	resume := s.recorder.Quiesce()
	s.manager.FlushAll()
	resume()
}

// SimulatePowerFailure cuts power: the dirty set is flushed on battery
// energy and the report says whether the provisioned battery covered it.
// The system is stopped afterwards; use Recover to come back up.
func (s *System) SimulatePowerFailure() PowerFailReport {
	// Power is gone: the flight recorder stops at this exact instant,
	// so the flush's own bookkeeping (the dirty gauge falling to zero,
	// the flush span finishing) cannot re-dirty ring pages after the
	// energy audit began. The last ring record IS the crash instant.
	s.recorder.Seal()
	// Sample the battery live: a capacity change landing during the
	// flush (scheduled ageing, cell dropout) is charged against the
	// energy actually left at completion, not the pre-flush reading.
	return s.manager.PowerFailWith(power.Default(), s.batt.EffectiveJoules)
}

// VerifyDurability checks byte-for-byte that the SSD holds the latest
// contents of every NV-DRAM page.
func (s *System) VerifyDurability() error { return s.manager.VerifyDurability() }

// RecoverOptions parameterises RecoverWith.
type RecoverOptions struct {
	// BudgetScale is the fraction of the surviving battery's usable
	// energy still on hand at recovery time: a cascading outage recharges
	// nothing between failures, so the replaying system may have to live
	// on less than the run that crashed. It is applied as a derating of
	// the recovered battery (battery.SetDerating), so the dirty budget
	// follows from the joules the same way it always does — fixed flush
	// overhead reserved first, so half the energy backs less than half
	// the pages — and stays bounded by it until the battery state changes
	// (SetDerating back up models the recharge). Values in (0, 1]; 0
	// selects 1.0. A scale that leaves less than one page of energy is an
	// error, as it is in New.
	BudgetScale float64
}

// Recover builds a fresh System of the same configuration whose NV-DRAM
// is reloaded from this system's SSD — the warm reboot after a power
// cycle. Every durable page is checksum-verified before it is restored:
// a corrupt page is quarantined and listed in the report's Integrity
// section, never silently handed back to the application. (After a true
// power cycle the DRAM copy is gone, so there is no repair source — the
// background scrubber is what catches corruption while repair is still
// possible.)
//
// Recover quiesces this system first (an idempotent Close): the durable
// store changes hands, and the old stack's background tasks must not
// keep mutating it. The NV-DRAM changes hands too: the recovered System
// restores into the memory this one lost, so afterwards this system's
// region reads as never written — all zeros, as DRAM after a power cut —
// and its own checks against the device (VerifyDurability) no longer
// hold. Calling Recover again afterwards is safe — the durable source is
// read-only here, so each call yields an independent fresh System with
// the same restored bytes — until this System is retired. A reboot
// retires the System its source was recovered from, and the closed
// Systems recovered from that one or from its source. So this System
// retires when a System recovered from it is itself recovered from, or,
// once closed, when its source or a System beside it is recovered from.
// A retired System's Recover returns ErrRetired, and its SSD panics on
// any use but Stats; the reboot is built on the first retiree's tables,
// whose manager and mappings then panic too, its Stats and Metrics
// still reading. Retirement hands the retired device objects' page
// buffers on, so cleans after a chain of reboots allocate none. It comes
// before the reboot is built, so a reboot that fails still retires.
func (s *System) Recover() (*System, recovery.RestoreReport, error) {
	return s.RecoverWith(RecoverOptions{})
}

// RecoverWith is Recover on the battery energy actually on hand. The
// recovered System comes up on the battery that survived, as it comes up
// on the SSD that survived: the aged nameplate, the depth of discharge
// and the derating in force at the failure carry over, further derated
// by opts.BudgetScale. Its budget, its health monitor and its fused
// sensor all read that one battery, so the figure in
// RestoreReport.BudgetPages is what the manager enforces until the
// battery itself changes — not until the first monitor tick. It takes
// over this system's NV-DRAM as Recover does.
func (s *System) RecoverWith(opts RecoverOptions) (*System, recovery.RestoreReport, error) {
	scale := opts.BudgetScale
	if scale == 0 {
		scale = 1.0
	}
	if scale < 0 || scale > 1 {
		return nil, recovery.RestoreReport{}, fmt.Errorf("viyojit: budget scale %v outside (0,1]", scale)
	}
	// The whole walk holds the lifecycle lock: quiesce and restore are
	// one critical section, so racing Recover calls serialise instead
	// of interleaving reads of the source device with each other (its
	// verify counters are not concurrency-safe) or with a Close.
	s.lin.mu.Lock()
	defer s.lin.mu.Unlock()
	s.closeLocked()
	if s.retired {
		return nil, recovery.RestoreReport{}, ErrRetired
	}

	cfg := s.cfg
	cfg.Battery = s.batt.Config()
	cfg.Battery.Derating *= scale
	// The reboot retires before it is built, on the first retiree's tables.
	ns, err := build(cfg, s.lin, s.lin.retire(s))
	if err != nil {
		return nil, recovery.RestoreReport{}, err
	}
	report, err := ns.restoreFrom(s)
	if err != nil {
		return nil, recovery.RestoreReport{}, err
	}
	ns.parent = s
	s.lin.live = append(s.lin.live, ns)
	return ns, report, nil
}

// restoreFrom brings the freshly built s up as the reboot of prev, the
// closed system that lost power: the verified reload of NV-DRAM and the
// flight recorder's pre-crash timeline. On any error s is closed — a
// half-built system's health monitor, scrubber and epoch task are
// already armed on its queue and must not outlive a failed recovery.
// What the reboot retired stays retired. The caller holds s.lin.mu.
func (s *System) restoreFrom(prev *System) (report recovery.RestoreReport, err error) {
	defer func() {
		if err != nil {
			s.closeLocked()
		}
	}()
	// The reboot reloads the DRAM that lost power: s's region takes over
	// prev's chunk buffers, which first stores after the restore back
	// chunks with, and its table of shared device images.
	s.region.TakeOver(prev.region)
	// s's device object represents the same physical SSD, whose contents
	// survived the power cycle: each durable page is verified there,
	// adopted with its recorded checksum, and reloaded into NV-DRAM by
	// reference, with the reboot's clock charged for the read. A page
	// that fails is quarantined — listed in the report, absent from the
	// new device and the region; after a power cycle there is no other
	// copy to repair it from.
	report, err = recovery.RestoreVerified(s.clock, s.region, s.dev, prev.dev)
	if err != nil {
		return recovery.RestoreReport{}, err
	}
	report.BudgetPages = s.manager.DirtyBudget()
	// Walk the restored flight-recorder ring into the forensic report
	// and adopt its sequence, so post-recovery records extend the
	// pre-crash timeline monotonically. (The fresh boot record New wrote
	// was overwritten wherever the restore reloaded ring pages — the
	// crash's view wins.)
	if s.recorder != nil {
		w, err := blackbox.ReadAndWalk(s.bbMap)
		if err != nil {
			return recovery.RestoreReport{}, err
		}
		rep := blackbox.BuildReport(w)
		s.forensics = &rep
		s.recorder.Adopt(w)
		s.recorder.Append(blackbox.KindRecover, 0, int64(w.LastSeq), int64(w.Torn), 0, 0)
	}
	return report, nil
}

// retire retires and returns, as a reboot of prev comes up, prev's
// parent and the closed Systems recovered from it or from prev: the
// second kind keeps a lineage from holding every closed attempt
// recovered from one source. The caller holds lin.mu.
func (lin *lineage) retire(prev *System) []*System {
	var gone []*System
	for _, m := range lin.live {
		if m == prev.parent || (m != prev && m.closed && (m.parent == prev || prev.parent != nil && m.parent == prev.parent)) {
			m.retired, m.parent = true, nil
			gone = append(gone, m)
		}
	}
	lin.live = slices.DeleteFunc(lin.live, func(m *System) bool { return m.retired })
	return gone
}

// takeOver gives s, a reboot in lin, what the Systems it retired leave:
// their regions, and their buffers, free lists and one slot table
// (ssd.SSD.Retire), but what a device object or region still live in lin
// — or a retiree not yet walked — reads. The caller holds lin.mu.
func (s *System) takeOver(lin *lineage, gone []*System) {
	// devs is the retirees in walk order, then the live members, so the
	// devices kept during walk i are devs[i+1:].
	var devBuf [8]*ssd.SSD
	var regionBuf [8]ssd.Sharer
	devs, regions := devBuf[:0], regionBuf[:0]
	for _, m := range gone {
		devs = append(devs, m.dev)
		s.region.TakeOver(m.region)
	}
	for _, m := range lin.live {
		devs = append(devs, m.dev)
		regions = append(regions, m.region)
	}
	for i, m := range gone {
		s.dev.Retire(m.dev, devs[i+1:], regions)
	}
}

// Close stops the serving front-end (if any), the health monitor, the
// scrubber, and the background epoch task, and drains in-flight IO.
// Close is idempotent and safe to race against itself and against
// Recover/RecoverWith: the first caller stops the stack, the rest
// return immediately.
func (s *System) Close() {
	s.lin.mu.Lock()
	defer s.lin.mu.Unlock()
	s.closeLocked()
}

func (s *System) closeLocked() {
	if s.closed {
		return
	}
	s.closed = true
	if s.server != nil {
		s.server.Stop()
		s.server = nil
	}
	if s.monitor != nil {
		s.monitor.Close()
	}
	s.scrubber.Stop()
	s.manager.Close()
}
