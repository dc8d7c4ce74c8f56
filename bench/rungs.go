package main

import (
	"fmt"
	"runtime"

	"viyojit"
	"viyojit/internal/mmu"
	"viyojit/internal/sim"
)

// A rung is a direct call into one layer on a prepared stack: the
// per-layer ladder under the served workloads. Each reports host ns,
// virtual ns and allocations per call. Rung stacks run with the health
// monitor and scrubber off, so the layer under test is the only thing
// that moves.

// rung prepares a stack and returns its round. A round's prepare (may be
// nil) runs untimed; its body is timed and reports how many calls into
// the layer it made and how much virtual time they took.
type rung struct {
	name  string
	setup func() (round, error)
}

type round struct {
	prepare func() error
	body    func() (calls int, v sim.Duration, err error)
	close   func()
}

var rungs = []rung{
	{"mmu_first_write_fault", rungFirstWriteFault},
	{"core_warm_write", rungWarmWrite},
	{"core_forced_clean", rungForcedClean},
	{"core_epoch_scan_d256", func() (round, error) { return rungEpochScan(256) }},
	{"core_epoch_scan_d4096", func() (round, error) { return rungEpochScan(4096) }},
	{"ssd_write_page_sync", rungSSDWrite},
	{"kvstore_put", func() (round, error) { return rungKV(true) }},
	{"kvstore_get", func() (round, error) { return rungKV(false) }},
	{"intent_begin_complete", rungIntent},
	{"obs_record_set", func() (round, error) { return rungObs(false) }},
	{"blackbox_record_set", func() (round, error) { return rungObs(true) }},
	{"powerfail_flush_per_page", func() (round, error) { return rungPowerCycle(false) }},
	{"recover_per_page", func() (round, error) { return rungPowerCycle(true) }},
}

// runRungs measures every rung for about seconds of timed host time each
// and returns the rung.* metrics.
func runRungs(seconds float64) (map[string]float64, error) {
	out := map[string]float64{}
	for _, r := range rungs {
		rd, err := r.setup()
		if err != nil {
			return nil, fmt.Errorf("bench: rung %s: %w", r.name, err)
		}
		var calls int
		var host int64
		var virt sim.Duration
		var mallocs uint64
		// The first round warms caches and lazily built state; it is not
		// counted.
		for n := 0; n < 2 || float64(host) < seconds*1e9; n++ {
			if rd.prepare != nil {
				if err = rd.prepare(); err != nil {
					break
				}
			}
			var ms0, ms1 runtime.MemStats
			runtime.ReadMemStats(&ms0)
			h0 := hostNow()
			c, v, berr := rd.body()
			h1 := hostNow()
			runtime.ReadMemStats(&ms1)
			if err = berr; err != nil {
				break
			}
			if n > 0 {
				calls += c
				host += h1 - h0
				virt += v
				mallocs += ms1.Mallocs - ms0.Mallocs
			}
		}
		if rd.close != nil {
			rd.close()
		}
		if err != nil {
			return nil, fmt.Errorf("bench: rung %s: %w", r.name, err)
		}
		out["rung."+r.name+"_host_ns"] = ratio(float64(host), float64(calls))
		out["rung."+r.name+"_vns"] = ratio(float64(virt), float64(calls))
		out["rung."+r.name+"_allocs"] = ratio(float64(mallocs), float64(calls))
	}
	return out, nil
}

const rungRegion = 64 << 20

// rungSystem builds a quiet system whose battery backs budgetPages dirty
// pages (0: the whole region, so nothing is ever cleaned). cfg carries
// whatever else the rung needs set.
func rungSystem(budgetPages int, cfg viyojit.Config) (*viyojit.System, error) {
	cfg.NVDRAMSize = rungRegion
	cfg.Battery = viyojit.BatteryConfig{CapacityJoules: 1e6}
	if budgetPages > 0 {
		cfg.Battery = batteryFor(budgetPages, rungRegion)
	}
	cfg.DisableHealthMonitor = true
	cfg.DisableScrubber = true
	return viyojit.New(cfg)
}

// timed runs fn and returns how much virtual time it took on sys.
func timed(sys *viyojit.System, fn func() error) (sim.Duration, error) {
	v0 := sys.Now()
	err := fn()
	return sys.Now().Sub(v0), err
}

var oneByte = []byte{1}

// touch writes one byte to each of pages [first, first+n) of m.
func touch(m *viyojit.Mapping, first, n int) error {
	for p := first; p < first+n; p++ {
		if err := m.WriteAt(oneByte, int64(p)*pageSize); err != nil {
			return err
		}
	}
	return nil
}

// rungFirstWriteFault: the first write to a clean, write-protected page —
// trap, PTE update, admission to the dirty set — with the budget far away.
func rungFirstWriteFault() (round, error) {
	const pages = 2048
	sys, err := rungSystem(0, viyojit.Config{})
	if err != nil {
		return round{}, err
	}
	m, err := sys.Map("rung", pages*pageSize)
	if err != nil {
		return round{}, err
	}
	return round{
		prepare: func() error { sys.FlushAll(); return nil }, // clean and re-protect every page
		body: func() (int, sim.Duration, error) {
			v, err := timed(sys, func() error { return touch(m, 0, pages) })
			return pages, v, err
		},
		close: sys.Close,
	}, nil
}

// rungWarmWrite: a write to an already-dirty page — no trap.
func rungWarmWrite() (round, error) {
	const calls = 20_000
	sys, err := rungSystem(0, viyojit.Config{})
	if err != nil {
		return round{}, err
	}
	m, err := sys.Map("rung", 1<<20)
	if err != nil {
		return round{}, err
	}
	return round{
		body: func() (int, sim.Duration, error) {
			v, err := timed(sys, func() error {
				for i := 0; i < calls; i++ {
					if err := m.WriteAt(oneByte, 0); err != nil {
						return err
					}
				}
				return nil
			})
			return calls, v, err
		},
		close: sys.Close,
	}, nil
}

// rungForcedClean: a first write with the dirty set at the budget — the
// fault path must clean a victim synchronously before admitting the page.
func rungForcedClean() (round, error) {
	const pages, calls = 4096, 512
	// An epoch longer than the rung keeps the proactive cleaner out of it:
	// every write below finds the dirty set full.
	sys, err := rungSystem(512, viyojit.Config{Epoch: 3600 * sim.Second})
	if err != nil {
		return round{}, err
	}
	m, err := sys.Map("rung", pages*pageSize)
	if err != nil {
		return round{}, err
	}
	next := sys.DirtyBudget()
	if err := touch(m, 0, next); err != nil { // fill the dirty set
		return round{}, err
	}
	return round{
		body: func() (int, sim.Duration, error) {
			forced0 := sys.Stats().ForcedCleans
			v, err := timed(sys, func() error {
				for i := 0; i < calls; i++ {
					if err := m.WriteAt(oneByte, int64(next%pages)*pageSize); err != nil {
						return err
					}
					next++
				}
				return nil
			})
			if forced := sys.Stats().ForcedCleans - forced0; err == nil && forced < calls/2 {
				err = fmt.Errorf("only %d of %d writes forced a clean: the rung is not on the forced path", forced, calls)
			}
			return calls, v, err
		},
		close: sys.Close,
	}, nil
}

// rungEpochScan: one epoch tick (dirty-bit scan, history ageing, victim
// queue rebuild) with d pages resident in the dirty set and the budget
// far away, so the tick cleans nothing: cost that scales with the dirty
// set, on its own.
func rungEpochScan(d int) (round, error) {
	sys, err := rungSystem(0, viyojit.Config{})
	if err != nil {
		return round{}, err
	}
	m, err := sys.Map("rung", int64(d)*pageSize)
	if err != nil {
		return round{}, err
	}
	if err := touch(m, 0, d); err != nil {
		return round{}, err
	}
	epoch := sys.Manager().Config().Epoch
	return round{
		body: func() (int, sim.Duration, error) {
			e0 := sys.Stats().Epochs
			v, _ := timed(sys, func() error {
				for i := 0; i < 16; i++ {
					sys.AdvanceTime(epoch)
				}
				return nil
			})
			// The ticks' own virtual cost can fit an extra tick in: count
			// the ticks that ran.
			ticks := int(sys.Stats().Epochs - e0)
			if sys.DirtyCount() != d {
				return 0, 0, fmt.Errorf("%d pages dirty after %d ticks, want %d", sys.DirtyCount(), ticks, d)
			}
			return ticks, v, nil
		},
		close: sys.Close,
	}, nil
}

// rungSSDWrite: one synchronous page write on the device model.
func rungSSDWrite() (round, error) {
	const calls = 512
	sys, err := rungSystem(0, viyojit.Config{})
	if err != nil {
		return round{}, err
	}
	page := make([]byte, pageSize)
	return round{
		body: func() (int, sim.Duration, error) {
			v, err := timed(sys, func() error {
				for i := 0; i < calls; i++ {
					if _, err := sys.SSD().WritePageSync(mmu.PageID(i), page); err != nil {
						return err
					}
				}
				return nil
			})
			return calls, v, err
		},
		close: sys.Close,
	}, nil
}

// rungKV: Put (overwrite) or Get of a 1 KiB value on a loaded store,
// nothing ever cleaned.
func rungKV(put bool) (round, error) {
	const records, calls = 2000, 2000
	sys, err := rungSystem(0, viyojit.Config{})
	if err != nil {
		return round{}, err
	}
	store, err := sys.NewStore("rung", 8<<20)
	if err != nil {
		return round{}, err
	}
	val := recordValue(make([]byte, valueSize), 0, 0)
	keys := make([][]byte, records)
	for i := range keys {
		keys[i] = recordKey(int64(i))
		if err := store.Put(keys[i], val); err != nil {
			return round{}, err
		}
		sys.Pump()
	}
	return round{
		body: func() (int, sim.Duration, error) {
			v, err := timed(sys, func() error {
				for i := 0; i < calls; i++ {
					if put {
						if err := store.Put(keys[i%records], val); err != nil {
							return err
						}
					} else if _, ok, err := store.Get(keys[i%records]); err != nil || !ok {
						return fmt.Errorf("get %s: found=%v err=%v", keys[i%records], ok, err)
					}
				}
				return nil
			})
			return calls, v, err
		},
		close: sys.Close,
	}, nil
}

// rungIntent: journal one intent with a 1 KiB redo image and complete it
// — what exactly-once costs a write, compactions included.
func rungIntent() (round, error) {
	const calls = 1000
	sys, err := rungSystem(0, viyojit.Config{})
	if err != nil {
		return round{}, err
	}
	j, err := sys.NewIntentJournal("rung", journalBytes, viyojit.IntentConfig{})
	if err != nil {
		return round{}, err
	}
	key, val := recordKey(1), recordValue(make([]byte, valueSize), 1, 1)
	seq := uint64(0)
	return round{
		body: func() (int, sim.Duration, error) {
			v, err := timed(sys, func() error {
				for i := 0; i < calls; i++ {
					seq++
					if err := j.Begin(1, seq, seq, key, val, false); err != nil {
						return err
					}
					if err := j.Complete(1, seq, 0, val); err != nil {
						return err
					}
				}
				return nil
			})
			return calls, v, err
		},
		close: sys.Close,
	}, nil
}

// rungObs: the instruments one served request touches — counter, gauge,
// histogram, span — bare, or with the flight recorder teed in (the gauge
// is one the recorder's rules match, so each set is a ring append).
func rungObs(blackBox bool) (round, error) {
	const calls = 20_000
	sys, err := rungSystem(0, viyojit.Config{BlackBox: blackBox})
	if err != nil {
		return round{}, err
	}
	reg := sys.Metrics()
	c, g := reg.Counter("bench_requests_total"), reg.Gauge("health_derived_budget_pages")
	h, tr := reg.Histogram("bench_latency_ns"), reg.Tracer()
	n := 0
	return round{
		body: func() (int, sim.Duration, error) {
			v, err := timed(sys, func() error {
				for i := 0; i < calls; i++ {
					n++
					c.Inc()
					g.Set(int64(n&63) + 1)
					h.Record(sim.Duration(1000 + n&1023))
					sp := tr.Begin("bench.request", sim.Time(n))
					tr.Finish(sp, sim.Time(n+1), "ok")
				}
				return nil
			})
			return calls, v, err
		},
		close: sys.Close,
	}, nil
}

// rungPowerCycle: the bulk flush of a dirty set at its budget, per page
// flushed — or, with reboot set, the reboot that follows, per page
// restored (stack construction included: that is what a reboot costs).
func rungPowerCycle(reboot bool) (round, error) {
	var sys *viyojit.System
	closeSys := func() {
		if sys != nil {
			sys.Close()
		}
	}
	prepare := func() error {
		closeSys()
		var err error
		if sys, err = rungSystem(1024, viyojit.Config{}); err != nil {
			return err
		}
		m, err := sys.Map("rung", 2048*pageSize)
		if err != nil {
			return err
		}
		if err := touch(m, 0, sys.DirtyBudget()); err != nil {
			return err
		}
		if reboot && !sys.SimulatePowerFailure().Survived {
			return fmt.Errorf("flush did not survive")
		}
		return nil
	}
	body := func() (int, sim.Duration, error) {
		if !reboot {
			report := sys.SimulatePowerFailure()
			if !report.Survived {
				return 0, 0, fmt.Errorf("flush did not survive")
			}
			return report.PagesFlushed, report.FlushTime, nil
		}
		next, report, err := sys.Recover()
		if err != nil {
			return 0, 0, err
		}
		sys = next
		return report.PagesRestored, report.RestoreTime, nil
	}
	return round{prepare: prepare, body: body, close: closeSys}, nil
}

// Timed host seconds per rung: long on a pass made to be read, short on
// the driver's traced run, which reports the rungs with every workload.
const (
	rungSecondsFull   = 1.0
	rungSecondsTraced = 0.2
)
