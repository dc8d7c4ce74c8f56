package experiments

import (
	"bytes"
	"testing"

	"viyojit/internal/nvdram"
	"viyojit/internal/sim"
	"viyojit/internal/ssd"
)

func newBaseline(t testing.TB, pages int) *baselineManager {
	t.Helper()
	clock := sim.NewClock()
	events := sim.NewQueue()
	region, err := nvdram.New(clock, nvdram.Config{Size: int64(pages) * 4096})
	if err != nil {
		t.Fatal(err)
	}
	dev := ssd.New(clock, events, ssd.Config{})
	m, err := newBaselineManager(clock, events, region, dev)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestNoFaultsEver(t *testing.T) {
	m := newBaseline(t, 16)
	mp, err := m.Map("heap", 8*4096)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if err := mp.WriteAt([]byte{byte(i)}, int64(i%8)*4096); err != nil {
			t.Fatal(err)
		}
	}
	if got := m.region.PageTable().Stats().Faults; got != 0 {
		t.Fatalf("baseline took %d faults, want 0", got)
	}
}

func TestWriteReadRoundTrip(t *testing.T) {
	m := newBaseline(t, 8)
	mp, _ := m.Map("m", 2*4096)
	data := []byte("no battery limits here")
	if err := mp.WriteAt(data, 123); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(data))
	if err := mp.ReadAt(got, 123); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatalf("got %q", got)
	}
}

func TestBoundsChecked(t *testing.T) {
	m := newBaseline(t, 8)
	mp, _ := m.Map("m", 4096)
	if err := mp.WriteAt([]byte{1}, 4096); err == nil {
		t.Fatal("out-of-range write succeeded")
	}
	if err := mp.ReadAt(make([]byte, 1), -1); err == nil {
		t.Fatal("negative read succeeded")
	}
	if _, err := m.Map("too-big", 100*4096); err == nil {
		t.Fatal("oversized map succeeded")
	}
	if _, err := m.Map("zero", 0); err == nil {
		t.Fatal("zero map succeeded")
	}
}

func TestDirtyCountGrowsUnbounded(t *testing.T) {
	m := newBaseline(t, 64)
	mp, _ := m.Map("m", 64*4096)
	for p := 0; p < 64; p++ {
		if err := mp.WriteAt([]byte{1}, int64(p)*4096); err != nil {
			t.Fatal(err)
		}
	}
	// The baseline has no budget: all 64 pages are pending flush.
	if m.DirtyCount() != 64 {
		t.Fatalf("dirty count = %d, want 64", m.DirtyCount())
	}
}

func TestPageSizeMismatchRejected(t *testing.T) {
	clock := sim.NewClock()
	events := sim.NewQueue()
	region, _ := nvdram.New(clock, nvdram.Config{Size: 4 * 4096})
	dev := ssd.New(clock, events, ssd.Config{PageSize: 8192})
	if _, err := newBaselineManager(clock, events, region, dev); err == nil {
		t.Fatal("mismatched page sizes accepted")
	}
}
