package ssd

import (
	"testing"

	"viyojit/internal/mmu"
	"viyojit/internal/sim"
)

func TestDegradedBandwidth(t *testing.T) {
	const nominal = int64(1000)
	cases := []struct {
		cycles float64
		want   int64
	}{
		{0, 1000},
		{1, 960},    // one full pass at 4 % decay
		{5, 800},    // linear region
		{100, 250},  // floored at 25 %
		{1000, 250}, // floor holds arbitrarily deep
	}
	for _, c := range cases {
		if got := DegradedBandwidth(nominal, c.cycles); got != c.want {
			t.Errorf("DegradedBandwidth(cycles=%v) = %d, want %d", c.cycles, got, c.want)
		}
	}
}

func TestEffectiveWriteBandwidthTracksWear(t *testing.T) {
	clock := sim.NewClock()
	events := sim.NewQueue()
	// Wear capacity of 8 pages: every 8 page writes is one full pass.
	d := New(clock, events, Config{
		WriteBandwidth:    1 << 20,
		WearCapacityBytes: 8 * 4096,
	})
	if got := d.EffectiveWriteBandwidth(); got != 1<<20 {
		t.Fatalf("unworn bandwidth = %d, want nominal %d", got, 1<<20)
	}
	data := make([]byte, 4096)
	for p := 0; p < 16; p++ { // two full passes
		if _, err := d.WritePageSync(mmu.PageID(p%4), data); err != nil {
			t.Fatal(err)
		}
	}
	if got := d.WearCycles(); got != 2 {
		t.Fatalf("wear cycles = %v, want 2", got)
	}
	want := DegradedBandwidth(1<<20, 2)
	if got := d.EffectiveWriteBandwidth(); got != want {
		t.Fatalf("worn bandwidth = %d, want %d", got, want)
	}
}

func TestEffectiveWriteBandwidthNominalWithoutWearConfig(t *testing.T) {
	clock := sim.NewClock()
	events := sim.NewQueue()
	d := New(clock, events, Config{WriteBandwidth: 1 << 20})
	data := make([]byte, 4096)
	for p := 0; p < 64; p++ {
		if _, err := d.WritePageSync(mmu.PageID(p), data); err != nil {
			t.Fatal(err)
		}
	}
	if got := d.EffectiveWriteBandwidth(); got != 1<<20 {
		t.Fatalf("bandwidth with wear modelling off = %d, want nominal", got)
	}
}

// The measured-bandwidth estimator must charge busy time, not wall
// time: a healthy device on a quiet system (long idle gaps between
// writes) measures its true per-IO goodput, not a figure diluted by
// the silence.
func TestMeasuredWriteBandwidthIgnoresIdleGaps(t *testing.T) {
	clock := sim.NewClock()
	events := sim.NewQueue()
	d := New(clock, events, Config{}) // 2 GB/s, 60 µs per-IO latency
	if got := d.MeasuredWriteBandwidth(); got != 0 {
		t.Fatalf("measured with no samples = %d, want 0", got)
	}
	data := make([]byte, 4096)
	for p := 0; p < 10; p++ {
		if _, err := d.WritePageSync(mmu.PageID(p), data); err != nil {
			t.Fatal(err)
		}
		clock.Advance(sim.Millisecond) // quiet system: long gaps
	}
	// Per-IO goodput: 4096 B over ~(60 µs + 4096/2 GiB) ≈ 66 MB/s. Wall
	// span over 10 ms of mostly idle time would read ~4 MB/s — an order
	// of magnitude low.
	got := d.MeasuredWriteBandwidth()
	if got < 40<<20 || got > 100<<20 {
		t.Fatalf("measured bandwidth = %d B/s, want ~66 MB/s (busy-time accounting)", got)
	}
	if lat := d.MeasuredWriteLatency(); lat < 60*sim.Microsecond || lat > 70*sim.Microsecond {
		t.Fatalf("measured latency = %v, want ~62 µs", lat)
	}
}

// Failed writes occupy the device but deliver no goodput, so an
// erroring device measures slow — the signal the health monitor keys
// its budget shrink on.
func TestMeasuredWriteBandwidthFailedWritesCountNoGoodput(t *testing.T) {
	clock := sim.NewClock()
	events := sim.NewQueue()
	d := New(clock, events, Config{})
	d.SetFaultInjector(failEverything{})
	data := make([]byte, 4096)
	for p := 0; p < 4; p++ {
		if _, err := d.WritePageSync(mmu.PageID(p), data); err == nil {
			t.Fatal("injected fault did not surface")
		}
	}
	if got := d.MeasuredWriteBandwidth(); got != 0 {
		t.Fatalf("measured goodput on an all-failing device = %d, want 0", got)
	}
	if lat := d.MeasuredWriteLatency(); lat <= 0 {
		t.Fatal("failed writes recorded no latency")
	}
}

// failEverything is a minimal FaultInjector: every write fails
// transiently.
type failEverything struct{}

func (failEverything) WriteFault(mmu.PageID, []byte) FaultDecision {
	return FaultDecision{Fault: FaultTransient}
}
