package health

import (
	"errors"
	"runtime"
	"runtime/debug"
	"testing"

	"viyojit/internal/battery"
	"viyojit/internal/core"
	"viyojit/internal/faultinject"
	"viyojit/internal/mmu"
	"viyojit/internal/nvdram"
	"viyojit/internal/obs"
	"viyojit/internal/power"
	"viyojit/internal/sim"
	"viyojit/internal/ssd"
)

// rig is a monitor over a minimal simulated stack. Unlike the viyojit
// facade it wires NO battery observers: every retune in these tests is
// the monitor's own doing.
type rig struct {
	clock  *sim.Clock
	events *sim.Queue
	region *nvdram.Region
	dev    *ssd.SSD
	mgr    *core.Manager
	batt   *battery.Battery
	mon    *Monitor
	pm     power.Model
}

// rigOpts: budget is the manager's installed budget; targetPages sizes
// the battery to cover that many pages (fractional, so floor effects
// land inside a whole budget) at the monitor's derated bandwidth.
type rigOpts struct {
	pages       int
	budget      int
	targetPages float64
	ssd         ssd.Config
	health      Config
}

func newRig(t *testing.T, o rigOpts) *rig {
	t.Helper()
	clock := sim.NewClock()
	events := sim.NewQueue()
	region, err := nvdram.New(clock, nvdram.Config{Size: int64(o.pages) * 4096})
	if err != nil {
		t.Fatal(err)
	}
	dev := ssd.New(clock, events, o.ssd)
	mgr, err := core.NewManager(clock, events, region, dev, core.Config{DirtyBudgetPages: o.budget})
	if err != nil {
		t.Fatal(err)
	}
	pm := power.Default()
	bw := float64(dev.EffectiveWriteBandwidth()) * Derating
	joules := pm.FlushWatts(region.Size()) *
		(FlushReserve.Seconds() + o.targetPages*4096/bw)
	batt := battery.MustNew(battery.Config{CapacityJoules: joules, DepthOfDischarge: 1, Derating: 1})
	mon, err := NewMonitor(events, clock, batt, mgr, pm, o.health)
	if err != nil {
		t.Fatal(err)
	}
	return &rig{clock: clock, events: events, region: region, dev: dev,
		mgr: mgr, batt: batt, mon: mon, pm: pm}
}

func (r *rig) writePage(t *testing.T, page int, marker byte) {
	t.Helper()
	if err := r.region.WriteAt([]byte{marker}, int64(page)*4096); err != nil {
		t.Fatalf("write page %d: %v", page, err)
	}
	r.mgr.Pump()
}

// run advances virtual time by d, firing monitor ticks, epochs, and IO
// completions.
func (r *rig) run(d sim.Duration) {
	r.events.RunUntil(r.clock, r.clock.Now().Add(d))
}

func TestMonitorRetunesOnBatterySag(t *testing.T) {
	r := newRig(t, rigOpts{
		pages: 64, budget: 32, targetPages: 32.3,
		// Slow device so the transfer term dominates the fixed overhead
		// and a halved battery still covers a nonzero budget.
		ssd:    ssd.Config{WriteBandwidth: 16 << 20},
		health: Config{Obs: obs.NewRegistry()},
	})
	r.run(5 * sim.Millisecond) // two default-interval ticks
	if got := r.mgr.DirtyBudget(); got != 32 {
		t.Fatalf("budget drifted to %d on a healthy battery, want 32", got)
	}
	if err := r.batt.SetCapacityJoules(r.batt.NameplateJoules() / 2); err != nil {
		t.Fatal(err)
	}
	r.run(4 * sim.Millisecond)
	got := r.mgr.DirtyBudget()
	if got >= 32 || got < 1 {
		t.Fatalf("budget after 50%% battery sag = %d, want shrunk into [1,32)", got)
	}
	if derived := r.mon.st.derivedBudget.Value(); derived != int64(got) {
		t.Fatalf("derived budget %d diverges from manager budget %d", derived, got)
	}
	if r.mon.Stats().Retunes == 0 {
		t.Fatal("no retune counted")
	}
	snaps := r.mon.Snapshots()
	if len(snaps) == 0 {
		t.Fatal("no snapshots recorded")
	}
	last := snaps[len(snaps)-1]
	if last.Budget != got || last.State != core.StateHealthy {
		t.Fatalf("last snapshot budget %d state %v, want %d Healthy", last.Budget, last.State, got)
	}
}

func TestMonitorEscalatesToReadOnlyOnDeadSSD(t *testing.T) {
	r := newRig(t, rigOpts{
		pages: 16, budget: 4, targetPages: 4.5,
		health: Config{Interval: sim.Millisecond},
	})
	for p := 0; p < 4; p++ {
		r.writePage(t, p, byte(p+1))
	}
	inj := faultinject.New(faultinject.Config{TransientProb: 1}) // dead forever
	r.dev.SetFaultInjector(inj)

	deadline := sim.Time(60 * sim.Millisecond)
	for r.clock.Now() < deadline && r.mgr.HealthState() != core.StateReadOnly {
		r.run(sim.Millisecond)
	}
	if st := r.mgr.HealthState(); st != core.StateReadOnly {
		t.Fatalf("state %v after 60 ms against a dead SSD, want ReadOnly", st)
	}
	st := r.mon.Stats()
	if st.EmergencyEnters != 1 {
		t.Fatalf("EmergencyEnters = %d, want 1", st.EmergencyEnters)
	}
	if st.ReadOnlyFalls != 1 {
		t.Fatalf("ReadOnlyFalls = %d, want 1", st.ReadOnlyFalls)
	}
	if st.DrainFailures < uint64(2) {
		t.Fatalf("DrainFailures = %d, want ≥ 2", st.DrainFailures)
	}
	if err := r.region.WriteAt([]byte{0xEE}, 0); !errors.Is(err, mmu.ErrProtected) {
		t.Fatalf("write in ReadOnly: err %v, want ErrProtected", err)
	}
	// ReadOnly is terminal for the monitor: more ticks change nothing.
	r.run(5 * sim.Millisecond)
	if got := r.mon.Stats().ReadOnlyFalls; got != 1 {
		t.Fatalf("ReadOnlyFalls grew to %d while already ReadOnly", got)
	}
}

func TestMonitorRecoveryHysteresis(t *testing.T) {
	r := newRig(t, rigOpts{
		pages: 16, budget: 4, targetPages: 4.5,
		health: Config{Interval: sim.Millisecond},
	})
	for p := 0; p < 4; p++ {
		r.writePage(t, p, byte(p+1))
	}
	inj := faultinject.New(faultinject.Config{TransientProb: 1})
	r.dev.SetFaultInjector(inj)
	deadline := sim.Time(60 * sim.Millisecond)
	for r.clock.Now() < deadline && r.mgr.HealthState() != core.StateEmergencyFlush {
		r.run(sim.Millisecond)
	}
	if st := r.mgr.HealthState(); st != core.StateEmergencyFlush {
		t.Fatalf("state %v, want EmergencyFlush before the repair", st)
	}

	// SSD comes back: the drain completes, and after recoverTicks good
	// samples the monitor resumes writes at Degraded — not instantly,
	// and not straight to Healthy.
	inj.Disable()
	recoveredAt := r.clock.Now()
	for r.clock.Now() < recoveredAt.Add(20*sim.Millisecond) && r.mgr.WritesBlocked() {
		r.run(sim.Millisecond)
	}
	if r.mgr.WritesBlocked() {
		t.Fatal("writes still blocked 20 ms after the SSD recovered")
	}
	if got := r.mon.Stats().Recoveries; got != 1 {
		t.Fatalf("Recoveries = %d, want 1", got)
	}
	if got := r.mon.Stats().ReadOnlyFalls; got != 0 {
		t.Fatalf("ReadOnlyFalls = %d during a transient outage, want 0", got)
	}
	r.writePage(t, 7, 0x77)
	if r.mgr.DirtyCount() != 1 {
		t.Fatalf("dirty %d after post-recovery write, want 1", r.mgr.DirtyCount())
	}
}

func TestNewMonitorValidation(t *testing.T) {
	r := newRig(t, rigOpts{pages: 16, budget: 4, targetPages: 4.5})
	if _, err := NewMonitor(r.events, r.clock, r.batt, r.mgr, r.pm, Config{Interval: -1}); err == nil {
		t.Fatal("negative interval accepted")
	}
}

func TestMonitorCloseDisarms(t *testing.T) {
	r := newRig(t, rigOpts{pages: 16, budget: 4, targetPages: 4.5})
	r.run(5 * sim.Millisecond)
	ticks := r.mon.Stats().Ticks
	if ticks == 0 {
		t.Fatal("monitor never ticked")
	}
	r.mon.Close()
	r.run(10 * sim.Millisecond)
	if got := r.mon.Stats().Ticks; got != ticks {
		t.Fatalf("monitor ticked %d more times after Close", got-ticks)
	}
}

func TestBudgetPagesEdges(t *testing.T) {
	pm := power.Default()
	if got := BudgetPages(pm, 100, 0, 1<<30, 4096, 0); got != 0 {
		t.Fatalf("zero bandwidth budget = %d, want 0", got)
	}
	if got := BudgetPages(pm, 0.001, 2<<30, 64<<30, 4096, sim.Second); got != 0 {
		t.Fatalf("overhead-exceeded budget = %d, want 0", got)
	}
	if got := BudgetPages(pm, 1e12, 2<<30, 1<<20, 4096, 0); got != 256 {
		t.Fatalf("budget with a huge battery = %d, want capped at 256 region pages", got)
	}
}

// fakeScrub is a scriptable ScrubStatus.
type fakeScrub struct {
	det uint64
	q   int
}

func (f *fakeScrub) ScrubErrors() (uint64, int) { return f.det, f.q }

// TestMonitorScrubDetectionsEnterDegraded: fresh scrub detections
// between samples cost the device its clean bill of health; detections
// already seen at attach time do not.
func TestMonitorScrubDetectionsEnterDegraded(t *testing.T) {
	r := newRig(t, rigOpts{pages: 16, budget: 4, targetPages: 4.5})
	fs := &fakeScrub{det: 7} // history predating the attach
	r.mon.AttachScrub(fs)
	r.run(5 * sim.Millisecond)
	if r.mgr.HealthState() != core.StateHealthy {
		t.Fatalf("stale detections degraded the ladder: %v", r.mgr.HealthState())
	}
	fs.det += 2
	r.run(3 * sim.Millisecond)
	if r.mgr.HealthState() != core.StateDegraded {
		t.Fatalf("fresh detections did not enter Degraded: %v", r.mgr.HealthState())
	}
	if r.mon.Stats().ScrubDegrades != 1 {
		t.Fatalf("ScrubDegrades = %d, want 1", r.mon.Stats().ScrubDegrades)
	}
	snaps := r.mon.Snapshots()
	last := snaps[len(snaps)-1]
	if last.ScrubDetections != fs.det || last.ScrubQuarantined != 0 {
		t.Fatalf("snapshot scrub fields %d/%d, want %d/0",
			last.ScrubDetections, last.ScrubQuarantined, fs.det)
	}
	// No further detections: the monitor must not re-degrade forever.
	r.run(5 * sim.Millisecond)
	if r.mon.Stats().ScrubDegrades != 1 {
		t.Fatalf("ScrubDegrades grew to %d on a quiet scrubber", r.mon.Stats().ScrubDegrades)
	}
}

// TestMonitorScrubQuarantineEscalates: a quarantine reaching the
// threshold *while still growing* escalates to EmergencyFlush; a large
// but static quarantine does not keep re-escalating.
func TestMonitorScrubQuarantineEscalates(t *testing.T) {
	r := newRig(t, rigOpts{
		pages: 16, budget: 4, targetPages: 4.5,
	})
	fs := &fakeScrub{}
	r.mon.AttachScrub(fs)
	r.run(5 * sim.Millisecond)
	fs.det, fs.q = scrubQuarantineEmergency, scrubQuarantineEmergency // unrepairable corruption accumulating
	r.run(3 * sim.Millisecond)
	if got := r.mgr.HealthState(); got != core.StateEmergencyFlush {
		t.Fatalf("growing quarantine at threshold left state %v, want EmergencyFlush", got)
	}
	if r.mon.Stats().ScrubEmergencies != 1 {
		t.Fatalf("ScrubEmergencies = %d, want 1", r.mon.Stats().ScrubEmergencies)
	}
}

// TestMonitorTickZeroAlloc: a tick that finds nothing to retune re-arms
// the monitor's one event and allocates nothing.
func TestMonitorTickZeroAlloc(t *testing.T) {
	r := newRig(t, rigOpts{pages: 64, budget: 32, targetPages: 32.3, ssd: ssd.Config{WriteBandwidth: 16 << 20}})
	interval := r.mon.cfg.Interval
	for i := 0; i < 2*r.mon.cfg.MaxSnapshots; i++ {
		r.run(interval) // fill the snapshot ring
	}
	// A whole lap of the ring and one tick more, counted in total: an
	// average per tick would round a reallocation every few hundred
	// ticks down to zero. The count is process-wide, so the runtime is
	// kept from allocating inside it: with one P, restarting the world
	// after ReadMemStats finds no idle P to start a new thread for (five
	// objects), and with the collector off no cycle starts mark workers.
	ticks := r.mon.cfg.MaxSnapshots + 1
	before := r.mon.Stats().Ticks
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	for i := 0; i < ticks; i++ {
		r.run(interval)
	}
	runtime.ReadMemStats(&ms1)
	if n := ms1.Mallocs - ms0.Mallocs; n != 0 {
		t.Fatalf("%d uneventful monitor ticks allocate %d times, want 0", ticks, n)
	}
	if st := r.mon.Stats(); st.Ticks-before < uint64(ticks) || st.Retunes != 0 {
		t.Fatalf("%d ticks, %d retunes over %d intervals", st.Ticks-before, st.Retunes, ticks)
	}
}

// TestSnapshotRingKeepsNewestInOrder: the snapshot history grows to
// MaxSnapshots and then overwrites its oldest sample, and Snapshots
// lists what it holds oldest first — before the wrap, across it, and
// after a monitor built on a retired one's ring (Retire), which starts
// empty and leaves the retired monitor reporting nothing.
func TestSnapshotRingKeepsNewestInOrder(t *testing.T) {
	const keep = 5
	r := newRig(t, rigOpts{pages: 64, budget: 32, targetPages: 32.3, health: Config{MaxSnapshots: keep}})
	interval := r.mon.cfg.Interval
	var newest sim.Time
	check := func(m *Monitor, ticks int) {
		t.Helper()
		snaps := m.Snapshots()
		if want := min(ticks, keep); len(snaps) != want {
			t.Fatalf("after %d ticks the history holds %d snapshots, want %d", ticks, len(snaps), want)
		}
		for i := 1; i < len(snaps); i++ {
			if snaps[i].At-snaps[i-1].At != sim.Time(interval) {
				t.Fatalf("after %d ticks snapshot %d is at %v, %d before it at %v: not consecutive, oldest first",
					ticks, i, snaps[i].At, i-1, snaps[i-1].At)
			}
		}
		if at := snaps[len(snaps)-1].At; at <= newest {
			t.Fatalf("after %d ticks the newest snapshot is at %v, no later than the last tick's %v", ticks, at, newest)
		}
		newest = snaps[len(snaps)-1].At
	}
	for ticks := 1; ticks <= 3*keep+2; ticks++ {
		r.run(interval)
		check(r.mon, ticks)
	}
	old := r.mon
	old.Close()
	next, err := NewMonitor(r.events, r.clock, r.batt, r.mgr, r.pm, Config{MaxSnapshots: keep})
	if err != nil {
		t.Fatal(err)
	}
	next.Retire(old)
	if n := len(old.Snapshots()); n != 0 {
		t.Fatalf("the retired monitor still reports %d snapshots", n)
	}
	for ticks := 1; ticks <= keep+2; ticks++ {
		r.run(interval)
		check(next, ticks)
	}
}
