package power

import (
	"testing"

	"viyojit/internal/sim"
)

func TestFlushWattsScalesWithDRAM(t *testing.T) {
	m := Default()
	small := m.FlushWatts(1 << 30) // 1 GiB
	large := m.FlushWatts(4 << 40) // 4 TiB
	if large <= small {
		t.Fatalf("flush watts did not grow with DRAM: %v vs %v", small, large)
	}
}

func TestDefaultModelMatchesPaperExample(t *testing.T) {
	// Paper §2.2: 4 TB DRAM server, "a modest 300W server power" ⇒ the
	// default model should land in that neighbourhood.
	w := Default().FlushWatts(4 << 40)
	if w < 250 || w > 350 {
		t.Fatalf("4 TB flush watts = %v, want ~300", w)
	}
}

func TestFlushTime(t *testing.T) {
	// 4 TB at 4 GB/s = 1024 s ≈ 17 min (paper §8).
	d := FlushTime(4<<40, 4<<30)
	if d != 1024*sim.Second {
		t.Fatalf("flush time = %v, want 1024s", d)
	}
}

func TestFlushTimePanicsOnZeroBandwidth(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on zero bandwidth")
		}
	}()
	FlushTime(1, 0)
}

func TestFlushEnergyMatchesPaperExample(t *testing.T) {
	// Paper §2.2: backing up 4 TB at 4 GB/s with ~300 W needs ~300 KJ.
	j := Default().FlushEnergyJoules(4<<40, 4<<30, 4<<40)
	if j < 250e3 || j > 350e3 {
		t.Fatalf("flush energy = %v J, want ~300 KJ", j)
	}
}
