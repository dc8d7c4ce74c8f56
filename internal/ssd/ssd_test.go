package ssd

import (
	"bytes"
	"slices"
	"testing"

	"viyojit/internal/mmu"
	"viyojit/internal/sim"
)

func newTestSSD(cfg Config) (*SSD, *sim.Clock, *sim.Queue) {
	c := sim.NewClock()
	q := sim.NewQueue()
	return New(c, q, cfg), c, q
}

// batch is WriteBatch's arguments for images: its pages in ascending
// order and a reader of each page's image.
func batch(images map[mmu.PageID][]byte) ([]mmu.PageID, func(mmu.PageID) []byte) {
	pages := make([]mmu.PageID, 0, len(images))
	for p := range images {
		pages = append(pages, p)
	}
	slices.Sort(pages)
	return pages, func(p mmu.PageID) []byte { return images[p] }
}

func page(b byte, size int) []byte {
	return bytes.Repeat([]byte{b}, size)
}

func TestDefaults(t *testing.T) {
	d, _, _ := newTestSSD(Config{})
	cfg := d.Config()
	if cfg.PageSize != 4096 || cfg.MaxOutstanding != 16 {
		t.Fatalf("defaults not applied: %+v", cfg)
	}
}

func TestSyncWriteDurable(t *testing.T) {
	d, c, _ := newTestSSD(Config{})
	data := page(0x5A, 4096)
	t0 := c.Now()
	done, err := d.WritePageSync(7, data)
	if err != nil {
		t.Fatalf("sync write error: %v", err)
	}
	if done <= t0 {
		t.Fatal("sync write completed instantaneously")
	}
	got, ok := d.Durable(7)
	if !ok || !bytes.Equal(got, data) {
		t.Fatal("durable contents missing or wrong after sync write")
	}
	if d.Outstanding() != 0 {
		t.Fatalf("outstanding = %d after sync write", d.Outstanding())
	}
}

func TestWrongSizePanics(t *testing.T) {
	d, _, _ := newTestSSD(Config{})
	defer func() {
		if recover() == nil {
			t.Fatal("short write did not panic")
		}
	}()
	d.WritePageAsync(0, []byte{1, 2, 3}, nil)
}

func TestAsyncCompletionOrderAndBandwidth(t *testing.T) {
	d, c, q := newTestSSD(Config{WriteBandwidth: 1 << 20, PerIOLatency: sim.Microsecond}) // 1 MiB/s: 4 KiB takes ~3.9 ms
	var completions []sim.Time
	for i := 0; i < 3; i++ {
		d.WritePageAsync(mmu.PageID(i), page(byte(i), 4096), func(at sim.Time, _ error) {
			completions = append(completions, at)
		})
	}
	q.Drain(c)
	if len(completions) != 3 {
		t.Fatalf("%d completions, want 3", len(completions))
	}
	// Bandwidth serialises transfers: completions must be spaced by at
	// least the transfer time of one page.
	xfer := sim.Duration(4096 * int64(sim.Second) / (1 << 20))
	for i := 1; i < 3; i++ {
		gap := completions[i].Sub(completions[i-1])
		if gap < xfer {
			t.Fatalf("completions %d and %d spaced %v, want >= %v", i-1, i, gap, xfer)
		}
	}
}

func TestQueueDepthBoundEnforced(t *testing.T) {
	d, c, q := newTestSSD(Config{MaxOutstanding: 4, WriteBandwidth: 1 << 20})
	for i := 0; i < 20; i++ {
		d.WritePageAsync(mmu.PageID(i), page(byte(i), 4096), nil)
		if d.Outstanding() > 4 {
			t.Fatalf("outstanding = %d exceeds bound 4", d.Outstanding())
		}
	}
	q.Drain(c)
	if d.Stats().SubmitStalls == 0 {
		t.Fatal("expected submit stalls with a full queue")
	}
	if d.Stats().MaxQueueDepth != 4 {
		t.Fatalf("max queue depth = %d, want 4", d.Stats().MaxQueueDepth)
	}
	if d.Stats().WritesCompleted != 20 {
		t.Fatalf("completed = %d, want 20", d.Stats().WritesCompleted)
	}
}

func TestWaitIdle(t *testing.T) {
	d, _, _ := newTestSSD(Config{})
	for i := 0; i < 5; i++ {
		d.WritePageAsync(mmu.PageID(i), page(1, 4096), nil)
	}
	d.WaitIdle()
	if d.Outstanding() != 0 {
		t.Fatalf("outstanding = %d after WaitIdle", d.Outstanding())
	}
	if d.stored.n != 5 {
		t.Fatalf("durable pages = %d, want 5", d.stored.n)
	}
}

func TestReadPage(t *testing.T) {
	d, c, _ := newTestSSD(Config{})
	data := page(0x42, 4096)
	d.WritePageSync(3, data)
	t0 := c.Now()
	got := d.ReadPage(3)
	if !bytes.Equal(got, data) {
		t.Fatal("read returned wrong contents")
	}
	if c.Now() == t0 {
		t.Fatal("read charged no time")
	}
	if d.ReadPage(99) != nil {
		t.Fatal("read of never-written page returned data")
	}
	// Returned slice must not alias the store.
	got[0] = 0
	if durable, _ := d.Durable(3); durable[0] != 0x42 {
		t.Fatal("ReadPage aliases durable store")
	}
}

func TestOverwriteKeepsLatest(t *testing.T) {
	d, _, _ := newTestSSD(Config{})
	d.WritePageSync(1, page(0x01, 4096))
	d.WritePageSync(1, page(0x02, 4096))
	got, _ := d.Durable(1)
	if got[0] != 0x02 {
		t.Fatal("overwrite did not keep latest contents")
	}
	if d.stored.n != 1 {
		t.Fatalf("durable pages = %d, want 1", d.stored.n)
	}
}

func TestFlushTimeFor(t *testing.T) {
	d, _, _ := newTestSSD(Config{WriteBandwidth: 4 << 30}) // paper's 4 GB/s
	// 1 GiB of pages at 4 GiB/s = 0.25 s.
	n := (1 << 30) / 4096
	got := d.FlushTimeFor(n)
	want := sim.Duration(int64(sim.Second) / 4)
	if got != want {
		t.Fatalf("FlushTimeFor = %v, want %v", got, want)
	}
}

func TestStatsAndWear(t *testing.T) {
	d, _, _ := newTestSSD(Config{})
	for i := 0; i < 10; i++ {
		d.WritePageSync(mmu.PageID(i), page(1, 4096))
	}
	s := d.Stats()
	if s.BytesWritten != 10*4096 {
		t.Fatalf("bytes written = %d", s.BytesWritten)
	}
	if s.TotalWriteLag <= 0 {
		t.Fatal("average write latency not tracked")
	}
	if w := d.WearBytesPerCell(10 * 4096); w != 1.0 {
		t.Fatalf("wear = %v, want 1.0", w)
	}
	if d.WearBytesPerCell(0) != 0 {
		t.Fatal("wear with zero capacity should be 0")
	}
}

func TestCompletionsInterleaveWithOtherEvents(t *testing.T) {
	// A foreground sync write must let unrelated events (e.g. epoch
	// ticks) fire while it waits.
	d, c, q := newTestSSD(Config{WriteBandwidth: 1 << 20, PerIOLatency: sim.Millisecond})
	tickFired := false
	q.Schedule(c.Now().Add(10*sim.Microsecond), func(sim.Time) { tickFired = true })
	d.WritePageSync(0, page(9, 4096))
	if !tickFired {
		t.Fatal("pending event did not fire during sync write wait")
	}
}

func TestSeedDurable(t *testing.T) {
	d, _, _ := newTestSSD(Config{})
	data := page(0x77, 4096)
	d.SeedDurable(5, data)
	got, ok := d.Durable(5)
	if !ok || !bytes.Equal(got, data) {
		t.Fatal("seeded contents missing")
	}
	// Seeding copies: mutating the source must not alias the store.
	data[0] = 0
	if got, _ := d.Durable(5); got[0] != 0x77 {
		t.Fatal("SeedDurable aliased caller memory")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("short seed did not panic")
		}
	}()
	d.SeedDurable(6, []byte{1})
}

func TestWriteBatchStreaming(t *testing.T) {
	d, c, _ := newTestSSD(Config{WriteBandwidth: 1 << 20, PerIOLatency: sim.Millisecond})
	images := map[mmu.PageID][]byte{}
	for i := 0; i < 8; i++ {
		images[mmu.PageID(i)] = page(byte(i+1), 4096)
	}
	t0 := c.Now()
	d.WriteBatch(batch(images))
	elapsed := c.Now().Sub(t0)
	// One latency + aggregate transfer, NOT one latency per page.
	xfer := sim.Duration(8 * 4096 * int64(sim.Second) / (1 << 20))
	want := sim.Millisecond + xfer
	if elapsed != want {
		t.Fatalf("batch took %v, want %v (single-latency streaming)", elapsed, want)
	}
	for i := 0; i < 8; i++ {
		got, ok := d.Durable(mmu.PageID(i))
		if !ok || got[0] != byte(i+1) {
			t.Fatalf("page %d not durable after batch", i)
		}
	}
	// Empty batch is free.
	t1 := c.Now()
	d.WriteBatch(nil, nil)
	if c.Now() != t1 {
		t.Fatal("empty batch charged time")
	}
}

func TestDedupSkipsDuplicateTransfers(t *testing.T) {
	d, c, _ := newTestSSD(Config{Dedup: true, WriteBandwidth: 1 << 20, PerIOLatency: 0})
	data := page(0xAA, 4096)
	d.WritePageSync(0, data)
	first := c.Now()
	// Same contents to a different page: dedup hit, near-zero transfer.
	d.WritePageSync(1, page(0xAA, 4096))
	dupCost := c.Now().Sub(first)
	fullCost := sim.Duration(4096 * int64(sim.Second) / (1 << 20))
	if dupCost >= fullCost/4 {
		t.Fatalf("dedup write cost %v, want far below full transfer %v", dupCost, fullCost)
	}
	if d.ReductionStats().DedupHits != 1 {
		t.Fatalf("dedup hits = %d", d.ReductionStats().DedupHits)
	}
	// Durable contents are still correct for both pages.
	for p := mmu.PageID(0); p <= 1; p++ {
		got, ok := d.Durable(p)
		if !ok || got[0] != 0xAA {
			t.Fatalf("page %d contents wrong after dedup", p)
		}
	}
}

func TestCompressionShrinksTransfers(t *testing.T) {
	d, c, _ := newTestSSD(Config{Compression: true, WriteBandwidth: 1 << 20, PerIOLatency: 0})
	t0 := c.Now()
	d.WritePageSync(0, page(0x00, 4096)) // all-same page compresses hard
	compressed := c.Now().Sub(t0)
	full := sim.Duration(4096 * int64(sim.Second) / (1 << 20))
	if compressed >= full/10 {
		t.Fatalf("compressible write cost %v, want ≪ %v", compressed, full)
	}
	if d.ReductionStats().CompressedWrites != 1 {
		t.Fatalf("compressed writes = %d", d.ReductionStats().CompressedWrites)
	}
}

func TestEstimateCompressedSize(t *testing.T) {
	if got := EstimateCompressedSize(nil); got != 0 {
		t.Fatalf("empty estimate = %d", got)
	}
	runs := bytes.Repeat([]byte{7}, 4096)
	if got := EstimateCompressedSize(runs); got > 16 {
		t.Fatalf("uniform page estimate = %d, want tiny", got)
	}
	random := make([]byte, 4096)
	for i := range random {
		random[i] = byte(i*131 + i>>3)
	}
	if got := EstimateCompressedSize(random); got != 4096 {
		t.Fatalf("incompressible estimate = %d, want capped at 4096", got)
	}
}
