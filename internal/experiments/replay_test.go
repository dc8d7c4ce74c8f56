package experiments

import (
	"testing"

	"viyojit/internal/trace"
)

// replayVolume is the hot-skewed 16 MiB hour the replay tests run.
func replayVolume() (*trace.Volume, error) {
	return trace.Generate(trace.VolumeSpec{
		Name:                   "replay-vol",
		SizeBytes:              16 << 20,
		WorstHourWriteFraction: 0.15,
		Skew:                   trace.SkewHot,
		HotFraction:            0.1,
		TouchedFraction:        0.5,
	}, trace.Hour, 11)
}

func testVolume(t testing.TB) *trace.Volume {
	t.Helper()
	v, err := replayVolume()
	if err != nil {
		t.Fatal(err)
	}
	return v
}

func TestRunValidation(t *testing.T) {
	if _, err := runReplay(nil, replayViyojit, 0); err == nil {
		t.Fatal("nil volume accepted")
	}
	v := testVolume(t)
	if _, err := runReplay(v, replaySystem(9), 0); err == nil {
		t.Fatal("unknown system accepted")
	}
}

func TestViyojitReplayBoundsDirty(t *testing.T) {
	v := testVolume(t)
	budget := int(v.TotalPages()) / 8
	r, err := runReplay(v, replayViyojit, budget)
	if err != nil {
		t.Fatal(err)
	}
	if r.PeakDirty > budget {
		t.Fatalf("peak dirty %d exceeds budget %d", r.PeakDirty, budget)
	}
	if r.Events != len(v.Events) || r.Faults == 0 {
		t.Fatalf("degenerate report: %+v", r)
	}
	if r.VirtualTime <= 0 {
		t.Fatal("virtual time did not advance")
	}
}

func TestBaselineReplayUnbounded(t *testing.T) {
	v := testVolume(t)
	r, err := runReplay(v, replayBaseline, 0)
	if err != nil {
		t.Fatal(err)
	}
	if r.Faults != 0 {
		t.Fatalf("baseline took %d faults", r.Faults)
	}
	if r.SSDBytes != 0 {
		t.Fatalf("baseline wrote %d bytes to the SSD during the run", r.SSDBytes)
	}
	// The baseline's dirty footprint is every page ever written.
	if r.PeakDirty == 0 {
		t.Fatal("baseline tracked no written pages")
	}
}

func TestMondrianReplayFinerFootprint(t *testing.T) {
	v := testVolume(t)
	budget := int(v.TotalPages()) / 8
	page, err := runReplay(v, replayViyojit, budget)
	if err != nil {
		t.Fatal(err)
	}
	sector, err := runReplay(v, replayMondrian, budget)
	if err != nil {
		t.Fatal(err)
	}
	// Byte granularity never needs a larger dirty footprint for the same
	// workload. (Events here write multi-KB extents, so the gap is small;
	// the granularity experiment covers the small-write case.)
	if sector.PeakDirtyByte > page.PeakDirtyByte {
		t.Fatalf("mondrian footprint %d exceeds page footprint %d", sector.PeakDirtyByte, page.PeakDirtyByte)
	}
}

func TestCompareRunsAllThree(t *testing.T) {
	v := testVolume(t)
	reports, err := RunReplayComparison(v, int(v.TotalPages())/8)
	if err != nil {
		t.Fatal(err)
	}
	if len(reports) != 3 {
		t.Fatalf("got %d reports", len(reports))
	}
	names := map[string]bool{}
	for _, r := range reports {
		names[r.System] = true
		if r.Events != len(v.Events) {
			t.Fatalf("%s replayed %d events, want %d", r.System, r.Events, len(v.Events))
		}
	}
	for _, want := range []string{"viyojit", "nv-dram", "mondrian"} {
		if !names[want] {
			t.Fatalf("missing report for %s", want)
		}
	}
}

func TestSystemKindString(t *testing.T) {
	if replayViyojit.String() != "viyojit" || replayBaseline.String() != "nv-dram" || replayMondrian.String() != "mondrian" {
		t.Fatal("kind names wrong")
	}
	if replaySystem(42).String() == "" {
		t.Fatal("unknown kind has empty name")
	}
}
