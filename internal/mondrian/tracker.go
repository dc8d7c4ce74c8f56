// Package mondrian implements the finer-granularity variant §7 of the
// paper sketches: dirty tracking and budgeting at sub-page (sector)
// granularity, as Mondrian Memory Protection would enable. The same
// dirty-budgeting mechanism applies — a budget derived from the battery,
// strict enforcement on the write path, epoch-based recency, proactive
// cleaning — but the tracked unit is a sector (default 256 B), so
//
//   - the battery budget is consumed by the bytes actually written, not
//     whole pages ("better utilization of provisioned battery capacity"),
//     and
//   - only dirty sectors are copied out, cutting SSD write traffic for
//     small-write workloads ("reduce the write traffic to secondary
//     storage").
//
// The backing device is an SSD formatted with sector-sized LBAs (real
// NVMe devices support 512 B sectors; the model allows any size).
package mondrian

import (
	"fmt"

	"viyojit/internal/core"
	"viyojit/internal/mmu"
	"viyojit/internal/power"
	"viyojit/internal/sim"
	"viyojit/internal/ssd"
)

// SectorID identifies one tracked sector.
type SectorID = mmu.PageID

// Config parameterises a byte-granularity tracker.
type Config struct {
	// Size is the NV-DRAM region size in bytes (positive multiple of
	// SectorSize).
	Size int64
	// SectorSize is the tracking granularity; 0 selects 256.
	SectorSize int
	// BudgetBytes bounds the dirty bytes (rounded down to sectors).
	BudgetBytes int64
	// Epoch is the recency-scan period; 0 selects 1 ms.
	Epoch sim.Duration
	// EWMAWeight as in core.Config; 0 selects 0.75.
	EWMAWeight float64
	// Policy orders victims; nil selects core.LRUUpdate.
	Policy core.VictimPolicy
	// TrapCost is charged on the first write to a clean sector (the
	// Mondrian hardware's fine-grained fault); 0 selects 1 µs — cheaper
	// than a page fault, as fine-grained protection hardware would be.
	TrapCost sim.Duration
	// SSD overrides the device model; its PageSize is forced to
	// SectorSize.
	SSD ssd.Config
}

// Stats counts tracker activity.
type Stats struct {
	Writes           uint64
	SectorsDirtied   uint64
	ForcedCleans     uint64
	ProactiveCleans  uint64
	CopierWakesTick  uint64 // copier runs that started a clean, by who woke them (as core.Stats)
	CopierWakesAhead uint64
	CopierWakesHit   uint64
	CleansCompleted  uint64
	CleanErrors      uint64
	Epochs           uint64
	MaxDirtyObserved int
}

// Tracker is the byte-granularity dirty-budget manager. Like the
// page-granularity manager it is single-goroutine.
type Tracker struct {
	clock  *sim.Clock
	events *sim.Queue
	cfg    Config
	dev    *ssd.SSD

	data       []byte
	sectorSize int
	budget     int // sectors
	wakeAhead  int // sectors below budget at which an admission wakes the copier (core.WakeAhead)

	dirty    map[SectorID]*dirtySector
	dirtySeq uint64
	// inflight counts the dirty sectors with cleaning set; it moves with
	// that flag in startClean and its completion.
	inflight           int
	history, histEpoch []uint64 // history[s] as of epoch histEpoch[s], aged as core.Member ages
	epochIndex         uint64

	updatedThisEpoch  map[SectorID]struct{}
	newDirtyThisEpoch int
	pressure          float64
	// cands are this epoch's candidates, the sectors not in flight at the
	// collection, that victims orders.
	cands      core.Members
	victims    *core.VictimSelector
	epochEvent *sim.Event
	closed     bool

	stats Stats
}

type dirtySector struct {
	seq      uint64
	cleaning bool
}

// New builds a tracker with its own sector-LBA SSD on the shared clock
// and event queue.
func New(clock *sim.Clock, events *sim.Queue, cfg Config) (*Tracker, error) {
	if cfg.SectorSize == 0 {
		cfg.SectorSize = 256
	}
	if cfg.SectorSize <= 0 {
		return nil, fmt.Errorf("mondrian: sector size %d must be positive", cfg.SectorSize)
	}
	if cfg.Size <= 0 || cfg.Size%int64(cfg.SectorSize) != 0 {
		return nil, fmt.Errorf("mondrian: size %d must be a positive multiple of sector size %d", cfg.Size, cfg.SectorSize)
	}
	budget := int(cfg.BudgetBytes / int64(cfg.SectorSize))
	if budget < 1 {
		return nil, fmt.Errorf("mondrian: budget %d bytes below one sector (%d)", cfg.BudgetBytes, cfg.SectorSize)
	}
	if cfg.Epoch == 0 {
		cfg.Epoch = sim.Millisecond
	}
	if cfg.EWMAWeight == 0 {
		cfg.EWMAWeight = 0.75
	}
	if cfg.Policy == nil {
		cfg.Policy = core.LRUUpdate{}
	}
	if cfg.TrapCost == 0 {
		cfg.TrapCost = sim.Microsecond
	}
	devCfg := cfg.SSD
	devCfg.PageSize = cfg.SectorSize
	nSectors := int(cfg.Size / int64(cfg.SectorSize))
	dev := ssd.New(clock, events, devCfg)
	t := &Tracker{
		clock:            clock,
		events:           events,
		cfg:              cfg,
		dev:              dev,
		data:             make([]byte, cfg.Size),
		sectorSize:       cfg.SectorSize,
		budget:           budget,
		wakeAhead:        core.WakeAhead(core.WakePages(dev, cfg.TrapCost), budget),
		dirty:            make(map[SectorID]*dirtySector),
		history:          make([]uint64, nSectors),
		histEpoch:        make([]uint64, nSectors),
		updatedThisEpoch: make(map[SectorID]struct{}),
		victims:          core.NewVictimSelector(cfg.Policy),
	}
	t.scheduleEpoch(clock.Now().Add(cfg.Epoch))
	return t, nil
}

// Size returns the region size in bytes.
func (t *Tracker) Size() int64 { return int64(len(t.data)) }

// SectorSize returns the tracking granularity.
func (t *Tracker) SectorSize() int { return t.sectorSize }

// DirtyBytes returns the bytes currently not durable.
func (t *Tracker) DirtyBytes() int64 { return int64(len(t.dirty)) * int64(t.sectorSize) }

// DirtySectors returns the dirty-set size in sectors.
func (t *Tracker) DirtySectors() int { return len(t.dirty) }

// BudgetBytes returns the budget in bytes.
func (t *Tracker) BudgetBytes() int64 { return int64(t.budget) * int64(t.sectorSize) }

// Stats returns a snapshot of the counters.
func (t *Tracker) Stats() Stats { return t.stats }

// SSD exposes the backing device (for traffic accounting).
func (t *Tracker) SSD() *ssd.SSD { return t.dev }

// Pump delivers due events.
func (t *Tracker) Pump() { t.events.RunUntil(t.clock, t.clock.Now()) }

func (t *Tracker) scheduleEpoch(at sim.Time) {
	t.epochEvent = t.events.Schedule(at, t.epochTick)
}

func (t *Tracker) checkRange(off int64, n int) error {
	if off < 0 || n < 0 || off+int64(n) > int64(len(t.data)) {
		return fmt.Errorf("mondrian: range [%d,%d) outside region of %d bytes", off, off+int64(n), len(t.data))
	}
	return nil
}

// WriteAt stores p at offset off, tracking dirtiness per sector. The
// first write to a clean sector pays the fine-grained trap; if the dirty
// set is at the budget a victim sector is cleaned synchronously first.
// The signature satisfies pheap.Store, so the persistent heap and KV
// store run unchanged on byte-granularity tracking.
func (t *Tracker) WriteAt(p []byte, off int64) error {
	if err := t.checkRange(off, len(p)); err != nil {
		return err
	}
	t.stats.Writes++
	first := SectorID(off / int64(t.sectorSize))
	last := SectorID((off + int64(len(p)) - 1) / int64(t.sectorSize))
	cur := off
	remaining := p
	for s := first; s <= last; s++ {
		if ds, ok := t.dirty[s]; ok && ds.cleaning {
			// Wait for the in-flight copy of this sector, as the
			// page-granularity fault handler does; afterwards the sector
			// is clean and is RE-ADMITTED below, so the incoming bytes
			// stay tracked. A copy that failed leaves the sector dirty and
			// no longer cleaning: the write proceeds on the existing entry.
			for t.dirty[s] == ds && ds.cleaning {
				if !t.events.Step(t.clock) {
					panic("mondrian: waiting on in-flight clean with no events")
				}
			}
		}
		if _, tracked := t.dirty[s]; !tracked {
			// Admit a newly dirty sector.
			t.clock.Advance(t.cfg.TrapCost)
			for len(t.dirty) >= t.budget {
				// A budget hit wakes the proactive copier before it
				// blocks, as core.Manager's fault handler does.
				t.stats.ForcedCleans++
				t.cleanToThreshold(&t.stats.CopierWakesHit)
				if !t.cleanOneSync() {
					panic(fmt.Sprintf("mondrian: dirty %d at budget %d with no victim", len(t.dirty), t.budget))
				}
			}
			// The wake level, before s is admitted so the copier cannot
			// pick it (core.Manager.wakeCopierAhead).
			if len(t.dirty)+1+t.wakeAhead >= t.budget {
				t.cleanToThreshold(&t.stats.CopierWakesAhead)
			}
			t.dirtySeq++
			t.dirty[s] = &dirtySector{seq: t.dirtySeq}
			t.newDirtyThisEpoch++
			t.stats.SectorsDirtied++
			if len(t.dirty) > t.stats.MaxDirtyObserved {
				t.stats.MaxDirtyObserved = len(t.dirty)
			}
		}
		t.touch(s)
		// Copy this sector's chunk NOW, before the next sector's
		// admission can trigger a clean that would otherwise snapshot
		// this sector with stale contents.
		sectorEnd := (int64(s) + 1) * int64(t.sectorSize)
		n := int(sectorEnd - cur)
		if n > len(remaining) {
			n = len(remaining)
		}
		copy(t.data[cur:], remaining[:n])
		cur += int64(n)
		remaining = remaining[n:]
	}
	// DRAM copy cost, same scale as nvdram (≈10 GB/s).
	t.clock.Advance(sim.Duration(len(p)) / 10)
	if len(t.dirty) > t.budget {
		panic(fmt.Sprintf("mondrian: INVARIANT VIOLATED: %d dirty sectors > budget %d", len(t.dirty), t.budget))
	}
	return nil
}

// ReadAt fills p from offset off.
func (t *Tracker) ReadAt(p []byte, off int64) error {
	if err := t.checkRange(off, len(p)); err != nil {
		return err
	}
	copy(p, t.data[off:])
	t.clock.Advance(sim.Duration(len(p))/10 + 80*sim.Nanosecond)
	return nil
}

// touch records an update for recency tracking. Mondrian hardware keeps
// fine-grained dirty state, so the tracker observes every update epoch
// directly (no TLB staleness at this granularity).
func (t *Tracker) touch(s SectorID) {
	t.updatedThisEpoch[s] = struct{}{}
}

// collectVictims replaces the candidates with the dirty sectors not in
// flight (nothing is ordered until a victim is asked for). Candidates are
// copied, since the dirty set is a map; nothing gates them.
func (t *Tracker) collectVictims() {
	c := &t.cands
	c.Pages, c.State, c.Epoch = c.Pages[:0], c.State[:0], t.epochIndex
	for s, ds := range t.dirty {
		if !ds.cleaning {
			c.Pages = append(c.Pages, s)
			c.State = append(c.State, core.Member{Seq: ds.seq, Hist: t.history[s], Aged: t.histEpoch[s]})
		}
	}
	t.victims.Collect(t.dirtySeq)
}

func (t *Tracker) nextVictim() (SectorID, bool) {
	for collected := false; ; collected = true {
		for {
			cand, ok := t.victims.Pop(&t.cands)
			if !ok {
				break
			}
			if ds, ok := t.dirty[cand.Page]; ok && !ds.cleaning && ds.seq == cand.DirtiedSeq {
				return cand.Page, true
			}
		}
		if collected {
			return 0, false
		}
		t.collectVictims()
	}
}

func (t *Tracker) startClean(s SectorID) {
	ds := t.dirty[s]
	ds.cleaning = true
	t.inflight++
	start := int64(s) * int64(t.sectorSize)
	buf := make([]byte, t.sectorSize)
	copy(buf, t.data[start:])
	t.dev.WriteSnapshotAsync(s, buf, func(_ sim.Time, err error) {
		ds.cleaning = false
		t.inflight--
		if err != nil {
			// The sector's latest contents are not durable: keep it dirty
			// and cleanable so the forced/epoch paths re-pick it.
			t.stats.CleanErrors++
			return
		}
		t.stats.CleansCompleted++
		if t.dirty[s] == ds {
			delete(t.dirty, s)
		}
	})
}

func (t *Tracker) cleanOneSync() bool {
	before := len(t.dirty)
	started := false
	for len(t.dirty) >= before {
		if !started || t.inflight == 0 {
			if s, ok := t.nextVictim(); ok {
				t.startClean(s)
				started = true
			} else if t.inflight == 0 {
				return false
			}
		}
		if !t.events.Step(t.clock) {
			panic("mondrian: blocked on clean with no events")
		}
	}
	return true
}

// cleanToThreshold is core.Manager's proactive-copier step at sector
// granularity: start cleans of least-recently-updated sectors until the
// ones not already in flight fit under budget − pressure, stopping (never
// waiting) when the device queue is full. wakes is the caller's counter,
// moved when the run started at least one clean.
func (t *Tracker) cleanToThreshold(wakes *uint64) {
	threshold := t.budget - int(t.pressure+0.5)
	if threshold < 0 {
		threshold = 0
	}
	maxOutstanding := t.dev.Config().MaxOutstanding
	started := false
	for len(t.dirty)-t.inflight > threshold && t.dev.Outstanding() < maxOutstanding {
		s, ok := t.nextVictim()
		if !ok {
			break
		}
		t.stats.ProactiveCleans++
		t.startClean(s)
		started = true
	}
	if started {
		*wakes++
	}
}

func (t *Tracker) epochTick(at sim.Time) {
	if t.closed {
		return
	}
	t.stats.Epochs++
	t.epochIndex++
	for s := range t.updatedThisEpoch {
		if _, ok := t.dirty[s]; ok {
			t.history[s] = t.history[s]>>(t.epochIndex-t.histEpoch[s]) | 1<<63
			t.histEpoch[s] = t.epochIndex
		}
		delete(t.updatedThisEpoch, s)
	}
	w := t.cfg.EWMAWeight
	t.pressure = w*float64(t.newDirtyThisEpoch) + (1-w)*t.pressure
	t.newDirtyThisEpoch = 0

	t.collectVictims()
	t.cleanToThreshold(&t.stats.CopierWakesTick)
	t.scheduleEpoch(at.Add(t.cfg.Epoch))
}

// FlushAll synchronously cleans every dirty sector.
func (t *Tracker) FlushAll() {
	for len(t.dirty) > 0 {
		started := false
		for s, ds := range t.dirty {
			if !ds.cleaning {
				t.startClean(s)
				started = true
			}
		}
		if !t.events.Step(t.clock) && !started {
			panic("mondrian: FlushAll blocked with no events")
		}
	}
}

// PowerFail flushes the dirty sectors as a streaming backup and reports
// energy use against availableJoules.
func (t *Tracker) PowerFail(pm power.Model, availableJoules float64) core.PowerFailReport {
	report := core.PowerFailReport{
		DirtyAtFailure:        len(t.dirty),
		EnergyAvailableJoules: availableJoules,
	}
	t.events.Cancel(t.epochEvent)
	t.closed = true
	start := t.clock.Now()
	t.dev.WaitIdle()
	batch := make(map[SectorID][]byte, len(t.dirty))
	for s := range t.dirty {
		off := int64(s) * int64(t.sectorSize)
		batch[s] = t.data[off : off+int64(t.sectorSize)]
	}
	t.dev.WriteBatch(batch)
	for s := range t.dirty {
		delete(t.dirty, s)
	}
	report.PagesFlushed = report.DirtyAtFailure
	report.FlushTime = t.clock.Now().Sub(start)
	report.EnergyUsedJoules = pm.FlushWatts(t.Size()) * report.FlushTime.Seconds()
	report.Survived = report.EnergyUsedJoules <= availableJoules
	return report
}

// VerifyDurability checks that every sector is either durable with
// identical contents or never written (zero).
func (t *Tracker) VerifyDurability() error {
	nSectors := len(t.data) / t.sectorSize
	for i := 0; i < nSectors; i++ {
		s := SectorID(i)
		off := int64(i) * int64(t.sectorSize)
		if err := t.dev.CheckRestorable(s, t.data[off:off+int64(t.sectorSize)]); err != nil {
			return fmt.Errorf("mondrian: %w", err)
		}
	}
	return nil
}

// Close stops the epoch task and drains IO.
func (t *Tracker) Close() {
	if t.closed {
		return
	}
	t.closed = true
	t.events.Cancel(t.epochEvent)
	t.dev.WaitIdle()
}
