package viyojit_test

import (
	"encoding/binary"
	"errors"
	"fmt"
	"os"

	"viyojit"
	"viyojit/internal/dist"
	"viyojit/internal/experiments"
	"viyojit/internal/kvstore"
	"viyojit/internal/pheap"
	"viyojit/internal/ptx"
	"viyojit/internal/sim"
	"viyojit/internal/trace"
	"viyojit/internal/wal"
)

// Example shows the complete life of durable data under Viyojit: map,
// write, power failure, recovery — with a battery an eighth the size of
// the NV-DRAM it protects.
func Example() {
	sys, err := viyojit.New(viyojit.Config{NVDRAMSize: 16 << 20})
	if err != nil {
		panic(err)
	}
	m, err := sys.Map("data", 1<<20)
	if err != nil {
		panic(err)
	}
	if err := m.WriteAt([]byte("survives"), 0); err != nil {
		panic(err)
	}
	sys.Pump()

	report := sys.SimulatePowerFailure()
	fmt.Println("survived power failure:", report.Survived)

	recovered, _, err := sys.Recover()
	if err != nil {
		panic(err)
	}
	m2, err := recovered.Map("data", 1<<20)
	if err != nil {
		panic(err)
	}
	buf := make([]byte, 8)
	if err := m2.ReadAt(buf, 0); err != nil {
		panic(err)
	}
	fmt.Println("recovered:", string(buf))
	// Output:
	// survived power failure: true
	// recovered: survives
}

// ExampleSystem_Battery shows §8's runtime retuning: battery capacity
// changes immediately re-derive the dirty budget.
func ExampleSystem_Battery() {
	sys, err := viyojit.New(viyojit.Config{NVDRAMSize: 16 << 20})
	if err != nil {
		panic(err)
	}
	before := sys.DirtyBudget()
	if err := sys.Battery().Age(0.5); err != nil {
		panic(err)
	}
	fmt.Println("budget shrank:", sys.DirtyBudget() < before)
	// Output:
	// budget shrank: true
}

// Example_batterytuning is §8's scenario: batteries wear out, cells fail,
// and capacity fluctuates with temperature. Because Viyojit derives its
// dirty budget from the battery, the budget is retuned at runtime instead
// of the server having to stop when capacity drops below the
// over-provisioning margin. The example dirties data up to the budget,
// then degrades the battery in steps (ageing, then a cell failure),
// showing the budget shrink and the dirty set cleaned down each time, and
// finally shows a power failure on the degraded battery losing nothing.
func Example_batterytuning() {
	sys, err := viyojit.New(viyojit.Config{NVDRAMSize: 32 << 20})
	if err != nil {
		panic(err)
	}
	m, err := sys.Map("tenant-heap", 16<<20)
	if err != nil {
		panic(err)
	}

	fmt.Printf("battery: %.1f J nameplate, %.1f J effective → budget %d pages\n",
		sys.Battery().NameplateJoules(), sys.Battery().EffectiveJoules(), sys.DirtyBudget())

	// Fill the dirty set to the budget.
	for p := 0; p < sys.DirtyBudget()*2; p++ {
		if err := m.WriteAt([]byte{byte(p + 1)}, int64(p%4096)*4096); err != nil {
			panic(err)
		}
		sys.Pump()
	}
	fmt.Printf("after traffic: %d dirty pages\n\n", sys.DirtyCount())

	// Step 1: four years of ageing (~20 % capacity loss).
	if err := sys.Battery().Age(0.20); err != nil {
		panic(err)
	}
	fmt.Printf("after 20%% ageing:   budget %4d pages, dirty %4d (cleaned down synchronously)\n",
		sys.DirtyBudget(), sys.DirtyCount())

	// Step 2: a cell fails, halving the remaining capacity.
	if err := sys.Battery().SetCapacityJoules(sys.Battery().NameplateJoules() / 2); err != nil {
		panic(err)
	}
	fmt.Printf("after cell failure: budget %4d pages, dirty %4d\n",
		sys.DirtyBudget(), sys.DirtyCount())
	if sys.DirtyCount() > sys.DirtyBudget() {
		panic("retune failed to re-establish the durability bound")
	}
	fmt.Printf("retune cleans performed: %d\n\n", sys.Stats().RetuneCleans)

	// The durability guarantee holds on the degraded battery.
	report := sys.SimulatePowerFailure()
	fmt.Printf("power failure on the degraded battery: flushed %d pages in %v using %.2f/%.2f J — survived: %v\n",
		report.PagesFlushed, report.FlushTime,
		report.EnergyUsedJoules, report.EnergyAvailableJoules, report.Survived)
	if err := sys.VerifyDurability(); err != nil {
		panic(err)
	}
	fmt.Println("no data lost: the server kept operating through battery degradation")
	// Output:
	// battery: 1.0 J nameplate, 0.5 J effective → budget 1024 pages
	// after traffic: 877 dirty pages
	//
	// after 20% ageing:   budget  777 pages, dirty  777 (cleaned down synchronously)
	// after cell failure: budget  283 pages, dirty  283
	// retune cleans performed: 709
	//
	// power failure on the degraded battery: flushed 283 pages in 636.95us using 0.11/0.21 J — survived: true
	// no data lost: the server kept operating through battery degradation
}

// Example_fsvolume is §3's scenario: a file-system volume hosted entirely
// in NV-DRAM. It generates a synthetic data-center volume trace (skewed
// writes, like the Microsoft traces the paper analyses), replays it
// against a Viyojit-managed region, and reports how small a battery
// sufficed: the dirty budget against the data actually written.
func Example_fsvolume() {
	// A 64 MiB volume with trace-like skew: ~12 % of it written in the
	// worst hour, 99 % of writes to ~10 % of pages (the paper's
	// category-3 volumes, e.g. Cosmos F).
	spec := trace.VolumeSpec{
		Name:                   "vol-A",
		SizeBytes:              64 << 20,
		WorstHourWriteFraction: 0.12,
		Skew:                   trace.SkewHot,
		HotFraction:            0.10,
		TouchedFraction:        0.6,
	}
	vol, err := trace.Generate(spec, 2*trace.Hour, 42)
	if err != nil {
		panic(err)
	}
	writes := 0
	for _, e := range vol.Events {
		if e.Write {
			writes++
		}
	}
	fmt.Printf("generated %d events over 2h for a %d MiB volume (%d write events)\n",
		len(vol.Events), spec.SizeBytes>>20, writes)
	fmt.Printf("worst-hour data written: %.1f%% of the volume\n",
		vol.WorstIntervalWrittenFraction(trace.Hour)*100)

	// Host the volume in NV-DRAM with a battery covering ~12.5 %.
	sys, err := viyojit.New(viyojit.Config{NVDRAMSize: spec.SizeBytes})
	if err != nil {
		panic(err)
	}
	m, err := sys.Map(spec.Name, spec.SizeBytes)
	if err != nil {
		panic(err)
	}
	fmt.Printf("dirty budget: %d pages (%.1f%% of the volume)\n",
		sys.DirtyBudget(), float64(sys.DirtyBudget())*4096*100/float64(spec.SizeBytes))

	// Replay: writes land on the traced pages; reads just probe. Idle
	// gaps between events are compressed to at most maxIdle so the
	// 2-hour trace replays quickly while background epochs still run
	// between events.
	const maxIdle = viyojit.Duration(2_000_000) // 2 ms
	buf := make([]byte, 4096)
	maxDirty := 0
	var prevAt int64
	for i, e := range vol.Events {
		if gap := viyojit.Duration(int64(e.At) - prevAt); gap > 0 {
			sys.AdvanceTime(min(gap, maxIdle))
		}
		prevAt = int64(e.At)
		off := e.Page * 4096
		if e.Write {
			buf[0] = byte(i)
			if err := m.WriteAt(buf[:min(e.Bytes, len(buf))], off); err != nil {
				panic(err)
			}
		} else if err := m.ReadAt(buf[:64], off); err != nil {
			panic(err)
		}
		sys.Pump()
		maxDirty = max(maxDirty, sys.DirtyCount())
	}

	st := sys.Stats()
	fmt.Printf("replay done at t=%v\n", sys.Now())
	fmt.Printf("  peak dirty: %d pages of budget %d\n", maxDirty, sys.DirtyBudget())
	fmt.Printf("  faults: %d, proactive cleans: %d, forced cleans: %d\n",
		st.Faults, st.ProactiveCleans, st.ForcedCleans)

	report := sys.SimulatePowerFailure()
	fmt.Printf("power failure: flushed %d pages in %v, survived=%v\n",
		report.PagesFlushed, report.FlushTime, report.Survived)
	if err := sys.VerifyDurability(); err != nil {
		panic(err)
	}
	fmt.Println("volume contents fully durable with a fraction of the full battery")
	// Output:
	// generated 1905 events over 2h for a 64 MiB volume (635 write events)
	// worst-hour data written: 12.9% of the volume
	// dirty budget: 2048 pages (12.5% of the volume)
	// replay done at t=1.275s
	//   peak dirty: 479 pages of budget 2048
	//   faults: 479, proactive cleans: 0, forced cleans: 0
	// power failure: flushed 479 pages in 983.32us, survived=true
	// volume contents fully durable with a fraction of the full battery
}

// Example_kvcache is the paper's motivating application: an in-memory
// key-value cache (Redis-like) whose entire dataset lives in
// Viyojit-managed NV-DRAM and therefore restarts warm after a power
// cycle, with a battery an order of magnitude smaller than the data it
// protects. It loads a dataset, serves a skewed read/write mix, pulls the
// plug mid-traffic, reboots, reopens the store over the recovered heap,
// and checks every key.
func Example_kvcache() {
	const (
		heapSize = 32 << 20
		records  = 5000
	)
	key := func(i int64) []byte { return []byte(fmt.Sprintf("user%08d", i)) }
	value := func(i int64, version int) []byte {
		return []byte(fmt.Sprintf("profile-%d-v%d-%032d", i, version, i*7))
	}

	sys, err := viyojit.New(viyojit.Config{NVDRAMSize: 64 << 20})
	if err != nil {
		panic(err)
	}
	m, err := sys.Map("cache-heap", heapSize)
	if err != nil {
		panic(err)
	}
	heap, err := pheap.Format(m)
	if err != nil {
		panic(err)
	}
	store, err := kvstore.Create(heap, 4096)
	if err != nil {
		panic(err)
	}

	fmt.Printf("loading %d records into the persistent heap (budget %d pages)...\n",
		records, sys.DirtyBudget())
	versions := make(map[int64]int, records)
	for i := int64(0); i < records; i++ {
		if err := store.Put(key(i), value(i, 0)); err != nil {
			panic(err)
		}
		versions[i] = 0
		sys.Pump()
	}

	fmt.Println("serving a zipf-skewed 50/50 read/update mix...")
	rng := sim.NewRNG(7)
	chooser := dist.NewScrambledZipfian(rng.Fork(), records, dist.ZipfianConstant)
	for op := 0; op < 20_000; op++ {
		i := chooser.Next()
		if rng.Float64() < 0.5 {
			if _, ok, err := store.Get(key(i)); err != nil || !ok {
				panic(fmt.Sprintf("get %d: ok=%v err=%v", i, ok, err))
			}
		} else {
			versions[i]++
			if err := store.Put(key(i), value(i, versions[i])); err != nil {
				panic(err)
			}
		}
		sys.Pump()
	}
	st := sys.Stats()
	fmt.Printf("traffic done: %d dirty pages (budget %d), %d faults, %d proactive cleans\n",
		sys.DirtyCount(), sys.DirtyBudget(), st.Faults, st.ProactiveCleans)

	fmt.Println("\n*** power failure mid-traffic ***")
	report := sys.SimulatePowerFailure()
	fmt.Printf("flushed %d pages in %v — survived: %v\n",
		report.PagesFlushed, report.FlushTime, report.Survived)
	if !report.Survived {
		panic("battery did not cover the flush; provisioning bug")
	}

	// Reboot: recover NV-DRAM from the SSD and reopen the existing store
	// — no reload, no cold cache.
	recovered, restore, err := sys.Recover()
	if err != nil {
		panic(err)
	}
	m2, err := recovered.Map("cache-heap", heapSize)
	if err != nil {
		panic(err)
	}
	heap2, err := pheap.Open(m2)
	if err != nil {
		panic(err)
	}
	store2, err := kvstore.Open(heap2)
	if err != nil {
		panic(err)
	}
	n, err := store2.Len()
	if err != nil {
		panic(err)
	}
	fmt.Printf("\nrebooted in %v with %d records already present (warm cache)\n",
		restore.RestoreTime, n)

	// Check every record, including the versions updated mid-traffic.
	for i := int64(0); i < records; i++ {
		got, ok, err := store2.Get(key(i))
		if err != nil || !ok {
			panic(fmt.Sprintf("record %d lost across power cycle (ok=%v err=%v)", i, ok, err))
		}
		if string(got) != string(value(i, versions[i])) {
			panic(fmt.Sprintf("record %d has stale contents after recovery", i))
		}
		recovered.Pump()
	}
	fmt.Printf("verified all %d records, latest versions intact — no cold start\n", records)
	// Output:
	// loading 5000 records into the persistent heap (budget 2048 pages)...
	// serving a zipf-skewed 50/50 read/update mix...
	// traffic done: 175 dirty pages (budget 2048), 175 faults, 0 proactive cleans
	//
	// *** power failure mid-traffic ***
	// flushed 175 pages in 416.15us — survived: true
	//
	// rebooted in 282.43us with 5000 records already present (warm cache)
	// verified all 5000 records, latest versions intact — no cold start
}

// Example_multitenant is §6.3's deployment vision: "cloud providers can
// employ techniques similar to memory ballooning to reallocate
// battery/dirty-budget among co-located tenants and benefit from inherent
// statistical multiplexing effects." Two tenants share one server
// battery: a bursty interactive service and a quiet background one. The
// tenancy experiment runs the pair at seed 7, once with a rigid
// half-and-half battery split and once with a pressure-driven pool;
// pooling must cut the bursty tenant's forced cleans.
func Example_multitenant() {
	r, err := experiments.RunTenancyExperiment(7, 400)
	if err != nil {
		panic(err)
	}
	experiments.FprintTenancy(os.Stdout, r)
	if r.PooledForcedCleans >= r.StaticForcedCleans {
		panic(fmt.Sprintf("pooling did not help the bursty tenant: %d forced cleans pooled vs %d static",
			r.PooledForcedCleans, r.StaticForcedCleans))
	}
	cut := float64(r.StaticForcedCleans-r.PooledForcedCleans) / float64(r.StaticForcedCleans) * 100
	fmt.Printf("\nstatistical multiplexing cut the bursty tenant's budget stalls by %.0f%% (%d → %d forced cleans);\n"+
		"the quiet tenant ends on a %d-page grant\n",
		cut, r.StaticForcedCleans, r.PooledForcedCleans, r.PooledQuietGrant)
	// Output:
	// §6.3 extension: battery as a schedulable resource (bursty + quiet tenants)
	//                                Static split         Pooled
	// Bursty forced cleans                    351            168
	// Bursty fault-wait time               3.70ms       758.32us
	// final grants: bursty 224 pages, quiet 32 pages after 88 rebalances
	//
	// statistical multiplexing cut the bursty tenant's budget stalls by 52% (351 → 168 forced cleans);
	// the quiet tenant ends on a 32-page grant
}

// Example_transactions is persistent transactional memory on Viyojit
// NV-DRAM, the third application class the paper's introduction motivates
// (NV-Heaps, Mnemosyne, NVML). An inventory table is updated with atomic
// multi-field transactions; one transaction aborts half-way, and the
// reopened heap shows it never happened, while every committed
// transaction survives a power failure.
func Example_transactions() {
	const (
		logPartition = 64 << 10
		items        = 32
	)
	get := func(tx *ptx.Tx, item int) uint64 {
		var b [8]byte
		if err := tx.Read(b[:], int64(item)*8); err != nil {
			panic(err)
		}
		return binary.LittleEndian.Uint64(b[:])
	}
	put := func(tx *ptx.Tx, item int, v uint64) error {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], v)
		return tx.Write(b[:], int64(item)*8)
	}

	sys, err := viyojit.New(viyojit.Config{NVDRAMSize: 16 << 20})
	if err != nil {
		panic(err)
	}
	m, err := sys.Map("inventory", 4<<20)
	if err != nil {
		panic(err)
	}
	h, err := ptx.Create(m, logPartition)
	if err != nil {
		panic(err)
	}

	// Seed stock levels atomically.
	if err := h.Update(func(tx *ptx.Tx) error {
		for i := 0; i < items; i++ {
			if err := put(tx, i, 100); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		panic(err)
	}
	fmt.Println("seeded 32 items at stock 100 (one atomic transaction)")

	// Move stock between warehouses in committed transactions.
	for i := 0; i < 200; i++ {
		from, to := i%items, (i*7+3)%items
		if from == to {
			continue
		}
		if err := h.Update(func(tx *ptx.Tx) error {
			if err := put(tx, from, get(tx, from)-1); err != nil {
				return err
			}
			return put(tx, to, get(tx, to)+1)
		}); err != nil {
			panic(err)
		}
		sys.Pump()
	}

	// An aborted transaction leaves no trace.
	abort := errors.New("validation failed")
	err = h.Update(func(tx *ptx.Tx) error {
		if err := put(tx, 0, 999999); err != nil {
			return err
		}
		return abort // e.g. a constraint check failed
	})
	fmt.Printf("aborted transaction returned %q; item 0 untouched\n", err)

	fmt.Println("\n*** power failure ***")
	report := sys.SimulatePowerFailure()
	fmt.Printf("flushed %d pages in %v — survived: %v\n",
		report.PagesFlushed, report.FlushTime, report.Survived)

	recovered, _, err := sys.Recover()
	if err != nil {
		panic(err)
	}
	m2, err := recovered.Map("inventory", 4<<20)
	if err != nil {
		panic(err)
	}
	h2, err := ptx.Open(m2, logPartition) // rolls back any in-flight tx
	if err != nil {
		panic(err)
	}
	var total uint64
	if err := h2.View(func(tx *ptx.Tx) error {
		for i := 0; i < items; i++ {
			total += get(tx, i)
		}
		return nil
	}); err != nil {
		panic(err)
	}
	fmt.Printf("\nafter reboot: total stock = %d (want %d) — conservation proves\n", total, items*100)
	fmt.Println("every transaction was all-or-nothing across the power cycle")
	if total != items*100 {
		panic("stock not conserved")
	}
	// Output:
	// seeded 32 items at stock 100 (one atomic transaction)
	// aborted transaction returned "validation failed"; item 0 untouched
	//
	// *** power failure ***
	// flushed 3 pages in 66.14us — survived: true
	//
	// after reboot: total stock = 3200 (want 3200) — conservation proves
	// every transaction was all-or-nothing across the power cycle
}

// Example_txlog is NVM-backed database logging, the use case the paper's
// introduction motivates (its refs [36], [38]: storage-class-memory
// logging for transaction systems). A bank ledger appends every transfer
// to a write-ahead log in Viyojit-managed NV-DRAM, the power fails
// mid-workload, and the rebooted process replays the log to rebuild exact
// balances, on a battery sized for an eighth of the memory.
func Example_txlog() {
	const (
		accounts = 64
		txns     = 3000
	)
	type transfer struct{ From, To, Amount uint32 }

	sys, err := viyojit.New(viyojit.Config{NVDRAMSize: 16 << 20})
	if err != nil {
		panic(err)
	}
	m, err := sys.Map("ledger-log", 8<<20)
	if err != nil {
		panic(err)
	}
	l, err := wal.Create(m)
	if err != nil {
		panic(err)
	}
	fmt.Printf("ledger log on NV-DRAM; dirty budget %d pages\n", sys.DirtyBudget())

	// Apply transfers: balances in volatile memory, durability from the
	// log (the classic ARIES-style split).
	balances := make([]int64, accounts)
	for i := range balances {
		balances[i] = 1000
	}
	rng := sim.NewRNG(42)
	for i := 0; i < txns; i++ {
		t := transfer{
			From:   uint32(rng.Intn(accounts)),
			To:     uint32(rng.Intn(accounts)),
			Amount: uint32(rng.Intn(100) + 1),
		}
		var rec [12]byte
		binary.LittleEndian.PutUint32(rec[0:], t.From)
		binary.LittleEndian.PutUint32(rec[4:], t.To)
		binary.LittleEndian.PutUint32(rec[8:], t.Amount)
		if _, err := l.Append(rec[:]); err != nil {
			panic(err)
		}
		balances[t.From] -= int64(t.Amount)
		balances[t.To] += int64(t.Amount)
		sys.Pump()
	}
	fmt.Printf("appended %d transfers; account 0 balance: %d\n", txns, balances[0])

	fmt.Println("\n*** power failure ***")
	report := sys.SimulatePowerFailure()
	fmt.Printf("flushed %d dirty pages in %v — survived: %v\n",
		report.PagesFlushed, report.FlushTime, report.Survived)

	// Reboot: volatile balances are gone; the log is not.
	recovered, _, err := sys.Recover()
	if err != nil {
		panic(err)
	}
	m2, err := recovered.Map("ledger-log", 8<<20)
	if err != nil {
		panic(err)
	}
	l2, err := wal.Open(m2)
	if err != nil {
		panic(err)
	}
	rebuilt := make([]int64, accounts)
	for i := range rebuilt {
		rebuilt[i] = 1000
	}
	n := 0
	if err := l2.Replay(func(_ uint64, rec []byte) error {
		t := transfer{
			From:   binary.LittleEndian.Uint32(rec[0:]),
			To:     binary.LittleEndian.Uint32(rec[4:]),
			Amount: binary.LittleEndian.Uint32(rec[8:]),
		}
		rebuilt[t.From] -= int64(t.Amount)
		rebuilt[t.To] += int64(t.Amount)
		n++
		return nil
	}); err != nil {
		panic(err)
	}
	fmt.Printf("replayed %d transfers after reboot\n", n)
	for i := range balances {
		if balances[i] != rebuilt[i] {
			panic(fmt.Sprintf("account %d: %d != %d — ledger diverged", i, balances[i], rebuilt[i]))
		}
	}
	fmt.Printf("all %d account balances rebuilt exactly; account 0: %d\n", accounts, rebuilt[0])
	// Output:
	// ledger log on NV-DRAM; dirty budget 512 pages
	// appended 3000 transfers; account 0 balance: 1179
	//
	// *** power failure ***
	// flushed 25 dirty pages in 111.18us — survived: true
	// replayed 3000 transfers after reboot
	// all 64 account balances rebuilt exactly; account 0: 1179
}
