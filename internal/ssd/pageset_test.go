package ssd

import (
	"runtime"
	"slices"
	"testing"

	"viyojit/internal/mmu"
	"viyojit/internal/sim"
)

// The references below walk the page table slot by slot, the way the
// device answered before it kept page sets. They stay here, in the test,
// as the specification the bitmaps must reproduce.

func refDurablePageList(d *SSD) []mmu.PageID {
	var out []mmu.PageID
	for p, s := range d.pages {
		if s.data != nil || s.hasSum {
			out = append(out, mmu.PageID(p))
		}
	}
	return out
}

func refStoredPages(d *SSD, except mmu.PageID, skip bool) []mmu.PageID {
	var out []mmu.PageID
	for p, s := range d.pages {
		if s.data != nil && (!skip || mmu.PageID(p) != except) {
			out = append(out, mmu.PageID(p))
		}
	}
	return out
}

// seededInjector draws every write's fate from one RNG: all four fault
// classes plus rot, each with its own seed.
type seededInjector struct{ rng *sim.RNG }

func (s *seededInjector) WriteFault(mmu.PageID, []byte) FaultDecision {
	d := FaultDecision{RotSeed: s.rng.Uint64(), MisdirectSeed: s.rng.Uint64()}
	switch s.rng.Intn(10) {
	case 0:
		d.Fault = FaultTransient
	case 1:
		d.Fault = FaultTorn
	case 2:
		d.Fault = FaultLost
	case 3, 4:
		d.Fault = FaultMisdirected
	}
	d.Rot = s.rng.Intn(4) == 0
	return d
}

// checkIndex compares everything derived from the page sets with the
// map-and-sort references.
func checkIndex(t *testing.T, d *SSD, rng *sim.RNG, step int) {
	t.Helper()
	want := refDurablePageList(d)
	if got := d.DurablePageList(); !slices.Equal(got, want) {
		t.Fatalf("step %d: DurablePageList = %v, reference %v", step, got, want)
	}
	stored := refStoredPages(d, 0, false)
	if d.stored.n != len(stored) || d.claimed.n != len(want) {
		t.Fatalf("step %d: set sizes stored=%d claimed=%d, reference %d / %d",
			step, d.stored.n, d.claimed.n, len(stored), len(want))
	}

	// Successor query from a random point, with a random limit.
	from := mmu.PageID(rng.Intn(300))
	max := rng.Intn(12)
	tail := want[len(want):]
	if i, _ := slices.BinarySearch(want, from); i < len(want) {
		tail = want[i:min(len(want), i+max)]
	}
	if got := d.DurablePagesFrom(from, max, nil); !slices.Equal(got, tail) {
		t.Fatalf("step %d: DurablePagesFrom(%d, %d) = %v, reference %v", step, from, max, got, tail)
	}

	// Victim selection: rot picks by rank among the stored pages,
	// misdirection by rank among the stored pages other than intended.
	if len(stored) > 0 {
		seed := rng.Uint64()
		if got, ref := d.stored.kth(int(seed%uint64(len(stored)))), stored[seed%uint64(len(stored))]; got != ref {
			t.Fatalf("step %d: rot victim for seed %d = %d, reference %d", step, seed, got, ref)
		}
	}
	intended, seed := mmu.PageID(rng.Intn(260)), rng.Uint64()
	others := refStoredPages(d, intended, true)
	got, ok := d.misdirectTarget(intended, seed)
	if ok != (len(others) > 0) || (ok && got != others[seed%uint64(len(others))]) {
		t.Fatalf("step %d: misdirectTarget(%d, %d) = (%d, %v), reference candidates %v", step, intended, seed, got, ok, others)
	}
}

// TestPageIndexMatchesMapReference drives the device with a seeded mix
// of every path that adds a durable claim — normal, lost, misdirected,
// torn and rotting page writes, streaming batches and seeding — and
// checks after each step that the index-derived list, successor query
// and victim picks equal the old map-union-and-sort.
func TestPageIndexMatchesMapReference(t *testing.T) {
	for _, seed := range []uint64{1, 7, 0xC0FFEE} {
		rng := sim.NewRNG(seed)
		d, _, _ := newTestSSD(Config{})
		d.SetFaultInjector(&seededInjector{rng: sim.NewRNG(seed ^ 0xFA17)})
		checkIndex(t, d, rng, -1)
		for step := 0; step < 400; step++ {
			// Sparse page numbers across several bitmap words, including
			// word boundaries, so successor scans cross empty words.
			pg := mmu.PageID(rng.Intn(4)*64 + []int{0, 1, 31, 62, 63}[rng.Intn(5)])
			data := page(byte(step), 4096)
			switch rng.Intn(8) {
			case 0:
				d.SeedDurable(pg, data)
			case 1:
				d.WriteBatch(batch(map[mmu.PageID][]byte{pg: data, pg + 2: data}))
			default:
				d.WritePageSync(pg, data)
			}
			checkIndex(t, d, rng, step)
		}
		if st := d.Stats(); st.LostWrites == 0 || st.Misdirected == 0 || st.TornWrites == 0 || st.RotEvents == 0 {
			t.Fatalf("seed %d: schedule missed a fault class: %+v", seed, st)
		}
	}
}

// TestDurablePagesFromReusesBuffer: the successor query appends into the
// caller's buffer and allocates nothing when it fits.
func TestDurablePagesFromReusesBuffer(t *testing.T) {
	d, _, _ := newTestSSD(Config{})
	data := page(1, 4096)
	for p := 0; p < 8192; p++ {
		d.SeedDurable(mmu.PageID(p), data)
	}
	buf := make([]mmu.PageID, 0, 8)
	n := mallocs(100, func() {
		buf = d.DurablePagesFrom(5000, 8, buf[:0])
	})
	if n != 0 || len(buf) != 8 || buf[0] != 5000 || buf[7] != 5007 {
		t.Fatalf("100 DurablePagesFrom calls: %d allocs, got %v", n, buf)
	}
}

// mallocs runs f runs times to reach steady state, then runs times more,
// and returns what the second pass allocated in total:
// testing.AllocsPerRun's integer average would hide up to runs-1
// allocations.
func mallocs(runs int, f func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	for i := 0; i < runs; i++ {
		f()
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs
}
