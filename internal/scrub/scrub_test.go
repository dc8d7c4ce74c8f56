package scrub

import (
	"runtime"
	"slices"
	"sort"
	"testing"

	"viyojit/internal/core"
	"viyojit/internal/mmu"
	"viyojit/internal/nvdram"
	"viyojit/internal/sim"
	"viyojit/internal/ssd"
)

type harness struct {
	clock  *sim.Clock
	events *sim.Queue
	region *nvdram.Region
	dev    *ssd.SSD
	mgr    *core.Manager
	scr    *Scrubber
}

func newHarness(t testing.TB, pages, budget int, cfg Config) *harness {
	t.Helper()
	clock := sim.NewClock()
	events := sim.NewQueue()
	region, err := nvdram.New(clock, nvdram.Config{Size: int64(pages) * 4096})
	if err != nil {
		t.Fatal(err)
	}
	dev := ssd.New(clock, events, ssd.Config{})
	mgr, err := core.NewManager(clock, events, region, dev, core.Config{DirtyBudgetPages: budget})
	if err != nil {
		t.Fatal(err)
	}
	return &harness{clock: clock, events: events, region: region, dev: dev,
		mgr: mgr, scr: New(clock, events, dev, mgr, cfg)}
}

// seed dirties pages 0..n-1 through the fault path and drains every
// clean, leaving n intact durable pages.
func (h *harness) seed(t testing.TB, n int) {
	t.Helper()
	for p := 0; p < n; p++ {
		if err := h.region.WriteAt([]byte{byte(p + 1)}, int64(p)*4096); err != nil {
			t.Fatalf("write page %d: %v", p, err)
		}
		h.mgr.Pump()
	}
	h.mgr.FlushAll()
	if h.mgr.DirtyCount() != 0 {
		t.Fatalf("seed left %d dirty pages", h.mgr.DirtyCount())
	}
}

func TestScrubAllDetectsAndRepairs(t *testing.T) {
	h := newHarness(t, 8, 4, Config{})
	h.seed(t, 6)
	if !h.dev.CorruptPage(3, 42, 0xFF) {
		t.Fatal("nothing to corrupt")
	}
	if got := h.scr.ScrubAll(); got != 1 {
		t.Fatalf("ScrubAll detected %d corruptions, want 1", got)
	}
	st := h.scr.Stats()
	if st.Repairs != 1 || st.Quarantines != 0 {
		t.Fatalf("repairs=%d quarantines=%d, want 1/0", st.Repairs, st.Quarantines)
	}
	// The repair re-dirtied the page and kicked a clean; let it land.
	h.mgr.FlushAll()
	if err := h.dev.VerifyPage(3); err != nil {
		t.Fatalf("page still corrupt after repair: %v", err)
	}
	if h.scr.ScrubAll() != 0 {
		t.Fatal("second pass re-detected a repaired page")
	}
	if h.mgr.Stats().RepairRedirties != 1 {
		t.Fatalf("manager recorded %d repair re-dirties, want 1", h.mgr.Stats().RepairRedirties)
	}
}

// TestScrubRepairRespectsBudget fills the dirty set to the budget before
// scrubbing a corrupt clean page: the repair must force cleans to make
// room, never push dirty past the bound (the manager panics if it does).
func TestScrubRepairRespectsBudget(t *testing.T) {
	h := newHarness(t, 16, 2, Config{})
	h.seed(t, 8)
	// Fill the budget with fresh dirty pages.
	for p := 8; p < 10; p++ {
		if err := h.region.WriteAt([]byte{0xEE}, int64(p)*4096); err != nil {
			t.Fatal(err)
		}
		h.mgr.Pump()
	}
	if h.mgr.DirtyCount() != 2 {
		t.Fatalf("dirty count %d, want budget-full 2", h.mgr.DirtyCount())
	}
	h.dev.CorruptPage(1, 0, 0x01)
	forcedBefore := h.mgr.Stats().ForcedCleans
	if got := h.scr.ScrubAll(); got != 1 {
		t.Fatalf("detected %d, want 1", got)
	}
	if h.mgr.DirtyCount() > 2 {
		t.Fatalf("repair pushed dirty count to %d, budget is 2", h.mgr.DirtyCount())
	}
	if h.mgr.Stats().ForcedCleans == forcedBefore {
		t.Fatal("repair admitted a page into a full budget without forcing a clean")
	}
	h.mgr.FlushAll()
	if err := h.dev.VerifyPage(1); err != nil {
		t.Fatalf("page still corrupt after budget-constrained repair: %v", err)
	}
}

func TestScrubQuarantineAndClear(t *testing.T) {
	h := newHarness(t, 8, 4, Config{})
	h.seed(t, 4)
	// With no manager to repair through, a detection is quarantined.
	h.scr = New(h.clock, h.events, h.dev, nil, Config{})
	h.dev.CorruptPage(2, 7, 0x10)
	if h.scr.ScrubAll() != 1 {
		t.Fatal("corruption not detected")
	}
	if len(h.scr.quarantine) != 1 {
		t.Fatalf("quarantine size %d, want 1", len(h.scr.quarantine))
	}
	q := h.scr.Quarantine()
	if len(q) != 1 || q[0].Page != 2 || q[0].Reason == "" {
		t.Fatalf("quarantine record %+v", q)
	}
	// Re-detection of the same page counts Requarantine, not Detections.
	if h.scr.ScrubAll() != 0 {
		t.Fatal("quarantined page counted as a fresh detection")
	}
	if h.scr.Stats().Requarantine == 0 {
		t.Fatal("re-scan of a quarantined page not recorded")
	}
	// An application rewrite re-cleans the page; the next pass clears it.
	if err := h.region.WriteAt([]byte{0x55}, 2*4096); err != nil {
		t.Fatal(err)
	}
	h.mgr.Pump()
	h.mgr.FlushAll()
	h.scr.ScrubAll()
	if len(h.scr.quarantine) != 0 || h.scr.Stats().Cleared != 1 {
		t.Fatalf("quarantine not cleared after rewrite: count=%d cleared=%d",
			len(h.scr.quarantine), h.scr.Stats().Cleared)
	}
}

// TestScrubBackgroundPacing runs the paced background scan on the sim
// clock: bursts fire at the bandwidth-share cadence, the walk completes
// passes, and a corruption planted mid-run is detected with a positive
// mean time to detect.
func TestScrubBackgroundPacing(t *testing.T) {
	h := newHarness(t, 16, 4, Config{BandwidthShare: 0.5})
	h.seed(t, 12)
	h.scr.Start()
	if !h.scr.running {
		t.Fatal("scrubber not running after Start")
	}
	h.dev.CorruptPage(9, 100, 0x42)
	for i := 0; i < 400 && h.scr.Stats().Detections == 0; i++ {
		h.clock.Advance(10 * sim.Microsecond)
		h.mgr.Pump()
	}
	st := h.scr.Stats()
	if st.Detections != 1 {
		t.Fatalf("background scan never detected the corruption: %+v", st)
	}
	if st.Bursts == 0 || st.PagesScanned == 0 {
		t.Fatalf("no paced bursts ran: %+v", st)
	}
	if st.MTTD() <= 0 {
		t.Fatalf("MTTD = %v, want > 0 (oracle knew the corruption time)", st.MTTD())
	}
	// Let the run continue: the walk must wrap into full passes.
	for i := 0; i < 400 && h.scr.Stats().Passes == 0; i++ {
		h.clock.Advance(10 * sim.Microsecond)
		h.mgr.Pump()
	}
	if h.scr.Stats().Passes == 0 {
		t.Fatal("scan never completed a pass")
	}
	h.scr.Stop()
	if h.scr.running {
		t.Fatal("scrubber still running after Stop")
	}
	before := h.scr.Stats().Bursts
	h.clock.Advance(10 * sim.Millisecond)
	h.mgr.Pump()
	if h.scr.Stats().Bursts != before {
		t.Fatal("bursts kept firing after Stop")
	}
}

// TestScrubVerifyOnly: a scrubber with no manager quarantines instead of
// repairing — the standalone-device configuration.
func TestScrubVerifyOnly(t *testing.T) {
	clock := sim.NewClock()
	events := sim.NewQueue()
	dev := ssd.New(clock, events, ssd.Config{})
	data := make([]byte, 4096)
	for p := mmu.PageID(0); p < 3; p++ {
		if _, err := dev.WritePageSync(p, data); err != nil {
			t.Fatal(err)
		}
	}
	scr := New(clock, events, dev, nil, Config{})
	dev.CorruptPage(1, 0, 0x04)
	if scr.ScrubAll() != 1 {
		t.Fatal("corruption not detected")
	}
	if len(scr.quarantine) != 1 || scr.Stats().Repairs != 0 {
		t.Fatalf("verify-only scrubber did not quarantine: %+v", scr.Stats())
	}
	det, q := scr.ScrubErrors()
	if det != 1 || q != 1 {
		t.Fatalf("ScrubErrors = (%d, %d), want (1, 1)", det, q)
	}
}

// refWalker is the paced walk as it was specified before the device kept
// a page index: every burst takes the whole sorted durable list, finds
// its place above the cursor, and visits up to burst pages without
// crossing the end of the list. It stays here as the reference the
// indexed walk must reproduce.
type refWalker struct {
	cursor  mmu.PageID
	started bool
}

func (w *refWalker) burst(pages []mmu.PageID, burst int) (visited []mmu.PageID) {
	if len(pages) == 0 {
		return nil
	}
	start := 0
	if w.started {
		start = sort.Search(len(pages), func(i int) bool { return pages[i] > w.cursor })
	}
	w.started = true
	for n := 0; n < burst; n++ {
		if start >= len(pages) {
			start = 0
			if n > 0 {
				break
			}
		}
		w.cursor = pages[start]
		visited = append(visited, pages[start])
		start++
	}
	return visited
}

// walkStep runs one burst on the scrubber and on the reference — the
// reference sees the durable list as it is when the burst starts — and
// compares the pages visited, in order, and the cursor.
func walkStep(t *testing.T, scr *Scrubber, dev *ssd.SSD, ref *refWalker, label string) []mmu.PageID {
	t.Helper()
	want := ref.burst(dev.DurablePageList(), burstPages)
	scanned := scr.stats.PagesScanned
	scr.scanBurst()
	n := int(scr.stats.PagesScanned - scanned)
	got := scr.burst[:n]
	if n != len(want) {
		t.Fatalf("%s: burst checked %d pages, reference %v", label, n, want)
	}
	if len(want) > 0 && (!slices.Equal(got, want) || scr.cursor != ref.cursor) {
		t.Fatalf("%s: visited %v cursor %d, reference %v cursor %d", label, got, scr.cursor, want, ref.cursor)
	}
	return want
}

func seedPages(dev *ssd.SSD, pages ...mmu.PageID) {
	data := make([]byte, 4096)
	for _, p := range pages {
		dev.SeedDurable(p, data)
	}
}

// TestScanBurstWalkMatchesListReference: burst by burst, the indexed walk
// visits the same pages in the same order as the list-based reference —
// on an empty set, on a set smaller than one burst (every burst wraps),
// across word-sized gaps, and as the set grows above and below the
// cursor between bursts.
func TestScanBurstWalkMatchesListReference(t *testing.T) {
	clock, events := sim.NewClock(), sim.NewQueue()
	dev := ssd.New(clock, events, ssd.Config{})
	scr := New(clock, events, dev, nil, Config{})
	ref := &refWalker{}

	walkStep(t, scr, dev, ref, "empty set")
	seedPages(dev, 5, 70, 200)
	for i := 0; i < 3; i++ {
		if got := walkStep(t, scr, dev, ref, "set smaller than a burst"); len(got) != 3 {
			t.Fatalf("burst over a 3-page set visited %v, want all 3 once", got)
		}
	}
	rng := sim.NewRNG(7)
	for i := 0; i < 200; i++ {
		if rng.Intn(3) == 0 {
			seedPages(dev, mmu.PageID(rng.Intn(400)))
		}
		walkStep(t, scr, dev, ref, "growing set")
	}
	if scr.stats.Passes == 0 {
		t.Fatal("walk never completed a pass")
	}
}

// TestScanBurstSnapshotSurvivesRepair: a detection's RepairPage forces a
// clean at a full budget, which pumps the event queue until the clean
// lands — a page turns durable in the middle of the burst, inside the
// range the burst is walking. The burst must still visit exactly the
// pages that were durable when it started.
func TestScanBurstSnapshotSurvivesRepair(t *testing.T) {
	h := newHarness(t, 32, 2, Config{})
	h.seed(t, 6) // durable: 0..5
	data := make([]byte, 4096)
	for p := mmu.PageID(10); p < 16; p++ {
		h.dev.SeedDurable(p, data) // durable: 0..5, 10..15; region pages 10..15 are zero too
	}
	for p := 6; p < 8; p++ { // fill the budget with never-cleaned pages 6, 7
		if err := h.region.WriteAt([]byte{0xEE}, int64(p)*4096); err != nil {
			t.Fatal(err)
		}
	}
	h.dev.CorruptPage(1, 0, 0x01)
	ref := &refWalker{}

	before := len(h.dev.DurablePageList())
	got := walkStep(t, h.scr, h.dev, ref, "burst with repair")
	if want := []mmu.PageID{0, 1, 2, 3, 4, 5, 10, 11}; !slices.Equal(got, want) {
		t.Fatalf("burst visited %v, want %v", got, want)
	}
	if h.scr.Stats().Repairs != 1 || h.mgr.Stats().ForcedCleans == 0 {
		t.Fatalf("repair did not force a clean: scrub %+v", h.scr.Stats())
	}
	if after := h.dev.DurablePageList(); len(after) == before {
		t.Fatal("no page turned durable mid-burst; the test exercises nothing")
	}
	// The walk goes on from the cursor; the late page waits for the next pass.
	walkStep(t, h.scr, h.dev, ref, "tail")
	walkStep(t, h.scr, h.dev, ref, "wrap")
	if h.scr.Stats().Passes != 1 {
		t.Fatalf("passes = %d after one walk of the set, want 1", h.scr.Stats().Passes)
	}
}

// TestScrubPassCountedOnce: a walk whose tail is shorter than a burst
// used to count twice — at the short burst and again at the next burst's
// empty tail. 20 pages at 8 per burst is three bursts a pass.
func TestScrubPassCountedOnce(t *testing.T) {
	clock, events := sim.NewClock(), sim.NewQueue()
	dev := ssd.New(clock, events, ssd.Config{})
	for p := mmu.PageID(0); p < 20; p++ {
		seedPages(dev, p)
	}
	scr := New(clock, events, dev, nil, Config{})
	for burst, want := range []uint64{0, 0, 1, 1, 1, 2, 2} {
		scr.scanBurst()
		if got := scr.Stats().Passes; got != want {
			t.Fatalf("after burst %d: passes = %d, want %d", burst+1, got, want)
		}
	}
	// A set that is a whole number of bursts completes its pass at the wrap.
	dev16 := ssd.New(clock, events, ssd.Config{})
	for p := mmu.PageID(0); p < 16; p++ {
		seedPages(dev16, p)
	}
	scr = New(clock, events, dev16, nil, Config{})
	for burst, want := range []uint64{0, 0, 1, 1, 2} {
		scr.scanBurst()
		if got := scr.Stats().Passes; got != want {
			t.Fatalf("16 pages, after burst %d: passes = %d, want %d", burst+1, got, want)
		}
	}
}

// TestScanBurstZeroAlloc: a burst that finds nothing wrong costs its
// eight checksums and nothing else — no list, no map, no sort — however
// large the durable set.
func TestScanBurstZeroAlloc(t *testing.T) {
	clock, events := sim.NewClock(), sim.NewQueue()
	dev := ssd.New(clock, events, ssd.Config{})
	data := make([]byte, 4096)
	for p := mmu.PageID(0); p < 8192; p++ {
		dev.SeedDurable(p, data)
	}
	scr := New(clock, events, dev, nil, Config{})
	if n := mallocs(200, scr.scanBurst); n != 0 {
		t.Fatalf("200 clean scan bursts over 8192 durable pages allocate %d times, want 0", n)
	}
	if st := scr.Stats(); st.Detections != 0 || st.PagesScanned != 8*400 {
		t.Fatalf("bursts did not scan cleanly: %+v", st)
	}
}

// TestBackgroundBurstZeroAlloc: the paced scan re-arms its one event; a
// clean background burst costs its checksums and nothing else.
func TestBackgroundBurstZeroAlloc(t *testing.T) {
	h := newHarness(t, 64, 32, Config{})
	h.seed(t, 48)
	h.scr.Start()
	gap := h.scr.burstGap()
	burst := func() {
		h.clock.Advance(gap)
		h.mgr.Pump()
	}
	before := h.scr.Stats().Bursts
	if n := mallocs(200, burst); n != 0 {
		t.Fatalf("200 clean background bursts allocate %d times, want 0", n)
	}
	if st := h.scr.Stats(); st.Bursts-before < 400 || st.Detections != 0 {
		t.Fatalf("%d bursts, %d detections over 200 gaps", st.Bursts-before, st.Detections)
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
