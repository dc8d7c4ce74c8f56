package recovery

import (
	"testing"

	"viyojit/internal/core"
	"viyojit/internal/mmu"
	"viyojit/internal/nvdram"
	"viyojit/internal/sim"
	"viyojit/internal/ssd"
)

// The benchmarks restore a durable set about the size of the benchmark
// heap's (6 020 pages on powerfail_cycle) into a region with room to
// spare.
const (
	benchPages       = 6000
	benchRegionPages = 8192
)

// survivor returns a device holding benchPages distinct pages: the SSD
// that outlived a power cycle.
func survivor() *ssd.SSD {
	d := ssd.New(sim.NewClock(), sim.NewQueue(), ssd.Config{})
	img := make([]byte, 4096)
	for i := range img {
		img[i] = byte(i * 7)
	}
	for p := range benchPages {
		img[0], img[1] = byte(p), byte(p>>8)
		d.SeedDurable(mmu.PageID(p), img)
	}
	return d
}

// newBenchRegion returns an empty region of benchRegionPages pages.
func newBenchRegion(b *testing.B, clock *sim.Clock) *nvdram.Region {
	r, err := nvdram.New(clock, nvdram.Config{Size: benchRegionPages * 4096})
	if err != nil {
		b.Fatal(err)
	}
	return r
}

// BenchmarkRestoreVerified is one reboot's restore walk per op, as
// System.RecoverWith runs it: a fresh device object and region, the region
// taking over the one the previous op restored into, then the walk over
// the survivor. Building the device and region is not timed.
func BenchmarkRestoreVerified(b *testing.B) {
	src := survivor()
	var prev *nvdram.Region
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		b.StopTimer()
		clock := sim.NewClock()
		dev := ssd.New(clock, sim.NewQueue(), ssd.Config{})
		region := newBenchRegion(b, clock)
		b.StartTimer()
		if prev != nil {
			region.TakeOver(prev)
		}
		rep, err := RestoreVerified(clock, region, dev, src)
		if err != nil || rep.PagesRestored != benchPages || !rep.Integrity.Clean() {
			b.Fatalf("restore: %+v, %v; want %d pages restored, none quarantined", rep, err, benchPages)
		}
		prev = region
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*benchPages), "ns/page")
}

// BenchmarkVerifyDurabilityAfterRestore is core's VerifyDurability, one
// walk over the whole region per op, on a reboot that restored the durable
// set and then stored into every tenth restored page and flushed: the
// cycle powerfail_cycle repeats, where about one page in ten is written
// between reboots. It checks that the walk passes.
func BenchmarkVerifyDurabilityAfterRestore(b *testing.B) {
	src := survivor()
	clock, events := sim.NewClock(), sim.NewQueue()
	dev := ssd.New(clock, events, ssd.Config{})
	region := newBenchRegion(b, clock)
	if _, err := RestoreVerified(clock, region, dev, src); err != nil {
		b.Fatal(err)
	}
	mgr, err := core.NewManager(clock, events, region, dev, core.Config{DirtyBudgetPages: 64})
	if err != nil {
		b.Fatal(err)
	}
	defer mgr.Close()
	for p := 0; p < benchPages; p += 10 {
		if err := region.WriteAt([]byte{0xEE}, int64(p)*4096+100); err != nil {
			b.Fatal(err)
		}
	}
	mgr.FlushAll()
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		if err := mgr.VerifyDurability(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*benchRegionPages), "ns/page")
}
