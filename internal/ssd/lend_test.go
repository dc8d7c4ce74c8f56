package ssd

import (
	"bytes"
	"errors"
	"fmt"
	"slices"
	"testing"

	"viyojit/internal/mmu"
	"viyojit/internal/nvdram"
	"viyojit/internal/sim"
)

// refDevice is what one device object must show, kept as private clones:
// no buffer the device hands out, recycles or lends can reach it. Its
// fault semantics are written out again from the fault classes' contracts
// (fault.go, integrity.go), not called from the device.
type refDevice struct {
	data map[mmu.PageID][]byte
	sums map[mmu.PageID]uint64
}

func newRefDevice() *refDevice {
	return &refDevice{data: map[mmu.PageID][]byte{}, sums: map[mmu.PageID]uint64{}}
}

// store records a full page image landing with its sum.
func (r *refDevice) store(page mmu.PageID, img []byte) {
	r.data[page] = bytes.Clone(img)
	r.sums[page] = uint64(checksum(img))
}

// storedPages returns, ascending, the pages with contents, without except
// if skip is set: the ranks misdirection and rot pick their victims by.
func (r *refDevice) storedPages(except mmu.PageID, skip bool) []mmu.PageID {
	out := make([]mmu.PageID, 0, len(r.data))
	for p := range r.data {
		if !skip || p != except {
			out = append(out, p)
		}
	}
	slices.Sort(out)
	return out
}

// verdict is VerifyPage's answer for page: intact, or no claim at all.
func (r *refDevice) verdict(page mmu.PageID) bool {
	data, hasData := r.data[page]
	sum, hasSum := r.sums[page]
	return hasData == hasSum && (!hasData || uint64(checksum(data)) == sum)
}

// complete applies one write's recorded fate, as its completion does.
func (r *refDevice) complete(page mmu.PageID, img []byte, dec FaultDecision, pageSize int) {
	switch dec.Fault {
	case FaultTransient:
	case FaultTorn:
		torn := make([]byte, pageSize)
		copy(torn, r.data[page])
		copy(torn[:pageSize/2], img)
		r.data[page] = torn
	case FaultLost:
		r.sums[page] = uint64(checksum(img))
	case FaultMisdirected:
		r.sums[page] = uint64(checksum(img))
		if others := r.storedPages(page, true); len(others) > 0 {
			r.data[others[dec.MisdirectSeed%uint64(len(others))]] = bytes.Clone(img)
		}
	default:
		r.store(page, img)
	}
	if dec.Rot {
		stored := r.storedPages(0, false)
		if n := uint64(len(stored)); n > 0 {
			bit := (dec.RotSeed / n) % uint64(pageSize*8)
			r.data[stored[dec.RotSeed%n]][bit/8] ^= 1 << (bit % 8)
		}
	}
}

// recordingInjector is the seeded injector, remembering its last verdict
// so the reference can replay it.
type recordingInjector struct {
	seededInjector
	last FaultDecision
}

func (r *recordingInjector) WriteFault(page mmu.PageID, data []byte) FaultDecision {
	r.last = r.seededInjector.WriteFault(page, data)
	return r.last
}

// lendPages is the page range the script works on: few enough that
// writes, adoptions and corruption keep landing on the same pages.
const lendPages = 24

// checkAgainstRef compares every page of d with its reference: stored
// bytes, recorded sum and verdict.
func checkAgainstRef(t *testing.T, name string, d *SSD, ref *refDevice, step int, what string) {
	t.Helper()
	for p := mmu.PageID(0); p < lendPages; p++ {
		got, ok := d.Durable(p)
		want, wok := ref.data[p]
		if ok != wok || !bytes.Equal(got, want) {
			t.Fatalf("step %d (%s): device %s page %d: stored bytes differ from the reference (present %v, want %v)", step, what, name, p, ok, wok)
		}
		sum, ok := d.DurableChecksum(p)
		wsum, wok := ref.sums[p]
		if ok != wok || sum != wsum {
			t.Fatalf("step %d (%s): device %s page %d: sum %#x (%v), reference %#x (%v)", step, what, name, p, sum, ok, wsum, wok)
		}
		if err := d.VerifyPage(p); (err == nil) != ref.verdict(p) {
			t.Fatalf("step %d (%s): device %s page %d: VerifyPage = %v, reference intact = %v", step, what, name, p, err, ref.verdict(p))
		}
	}
}

// checkHeldSums checks that the sum d holds for each stored image, which
// verify compares instead of reading the bytes, is the image's checksum.
// A path that installs an image without taking its sum, or a buffer
// written in place after its sum was taken, fails it. shared holds the
// images an NV-DRAM region reads by reference (SharePage): a slot of d
// that holds one of them must be lent, or a later write on d could
// recycle the buffer under the region.
func checkHeldSums(t *testing.T, name string, d *SSD, step int, what string, shared map[mmu.PageID][]byte) {
	t.Helper()
	for p, s := range d.pages {
		if s.data != nil && uint64(s.held) != uint64(checksum(s.data)) {
			t.Fatalf("step %d (%s): device %s page %d: held sum %#x, stored bytes sum to %#x", step, what, name, p, s.held, uint64(checksum(s.data)))
		}
	}
	for p, img := range shared {
		if storesImage(d, p, img) && !d.pages[p].lent {
			t.Fatalf("step %d (%s): device %s page %d: a region reads the stored buffer, but the slot is not lent", step, what, name, p)
		}
	}
}

// storesImage reports whether img is the buffer d stores for page.
func storesImage(d *SSD, page mmu.PageID, img []byte) bool {
	data := d.slotAt(page).data
	return data != nil && &data[0] == &img[0]
}

// TestBufferLendingMatchesPrivateCopies drives two lanes of device objects
// with a seeded script of every path that installs, displaces, lends or damages
// a stored buffer — cleans' snapshot writes under every injected fault
// class, streaming batches, seeding, adoption in both directions, a
// reboot that adopts a whole device, and at-rest corruption — and checks
// after every step that each device's bytes, sums and verdicts equal a
// reference that owns a private clone of every image. A buffer recycled
// while another object still held it, or while it was still stored,
// shows as bytes changing under a page no step touched. Every device
// object the script booted and has not retired, old ones included since
// they share buffers with their adopters, must also hold each stored
// image's checksum (checkHeldSums). An NV-DRAM region restores pages from
// either lane in place (a ReadStream's SharePage, no adoption) and stores
// single bytes into them; after every step each page it reads equals a
// private clone, each image it still shares is unchanged, and every
// device slot holding a shared image is lent.
//
// Objects the two lanes leave behind are retired (Retire) over chains of
// three and more: a reboot first retires every object left behind before
// the one it replaces, and a retire step retires any object left behind
// into a lane. Each retirement must put on the free list at least every
// buffer the retiree stored that no object still alive stores at that
// page and the region does not share there, as the script's own records
// say — fewer is an allocation the recycling should have saved — and a
// retired object must panic on use. A buffer recycled while something
// still reads it shows in the byte checks above once a write reuses it.
func TestBufferLendingMatchesPrivateCopies(t *testing.T) {
	for _, seed := range []uint64{1, 7, 0xC0FFEE} {
		rng := sim.NewRNG(seed)
		var devs [2]*SSD // the two lanes
		var queues [2]*sim.Queue
		var clocks [2]*sim.Clock
		var injs [2]*recordingInjector
		var refs [2]*refDevice
		var alive []*SSD // every device object the script booted and has not retired
		var st Stats     // fault counts of every device object the script used
		count := func(d *SSD) {
			s := d.Stats()
			st.TornWrites += s.TornWrites
			st.LostWrites += s.LostWrites
			st.Misdirected += s.Misdirected
			st.WriteErrors += s.WriteErrors
		}
		boot := func(i int) {
			if devs[i] != nil {
				count(devs[i])
			}
			devs[i], clocks[i], queues[i] = newTestSSD(Config{})
			alive = append(alive, devs[i])
			injs[i] = &recordingInjector{seededInjector: seededInjector{rng: sim.NewRNG(seed ^ uint64(i+1)*0xFA17)}}
			devs[i].SetFaultInjector(injs[i])
			refs[i] = newRefDevice()
		}
		boot(0)
		boot(1)
		img := func() []byte { return randomPage(rng.Uint64(), 4096) }
		pick := func() mmu.PageID { return mmu.PageID(rng.Intn(lendPages)) }
		region, err := nvdram.New(sim.NewClock(), nvdram.Config{Size: lendPages * 4096})
		if err != nil {
			t.Fatal(err)
		}
		regionRef := make([]byte, lendPages*4096) // what the region must read
		shared := map[mmu.PageID][]byte{}         // the images it reads by reference
		sharedSums := map[mmu.PageID]uint64{}     // their checksums when shared
		adopts, lentSeen, recycled, rots, shares, outlived := 0, 0, 0, 0, 0, 0
		retires, handedBack, regionKept := 0, 0, 0
		// retire retires old into d and checks what came back.
		retire := func(d, old *SSD, step int, what string) {
			var kept []*SSD
			for _, k := range alive {
				if k != d && k != old {
					kept = append(kept, k)
				}
			}
			want := len(old.free)
			for p, s := range old.pages {
				page := mmu.PageID(p)
				switch {
				case s.data == nil || storesImage(d, page, s.data) ||
					slices.ContainsFunc(kept, func(k *SSD) bool { return storesImage(k, page, s.data) }):
				case shared[page] != nil && &shared[page][0] == &s.data[0]:
					regionKept++
				default:
					want++
				}
			}
			before := len(d.free)
			d.Retire(old, kept, []Sharer{region})
			if got := len(d.free) - before; got < want {
				t.Fatalf("step %d (%s): the retirement put %d buffers on the free list, want at least the %d nothing alive reads", step, what, got, want)
			}
			retires++
			handedBack += want
			alive = slices.DeleteFunc(alive, func(k *SSD) bool { return k == old })
			func() {
				defer func() {
					if recover() == nil {
						t.Fatalf("step %d (%s): a retired device object served a read", step, what)
					}
				}()
				old.Durable(0)
			}()
		}
		for step := 0; step < 600; step++ {
			i := rng.Intn(2)
			d, ref := devs[i], refs[i]
			var what string
			switch op := rng.Intn(15); {
			case op < 5: // cleans: snapshot writes, up to four in flight
				what = "WriteSnapshotAsync"
				for n := 1 + rng.Intn(4); n > 0; n-- {
					page, image := pick(), img()
					snap := d.PageBuffer()
					copy(snap, image)
					var dec FaultDecision
					d.WriteSnapshotAsync(page, snap, func(sim.Time, error) {
						ref.complete(page, image, dec, 4096)
						if dec.Rot {
							rots++
						}
					})
					dec = injs[i].last
				}
				queues[i].Drain(clocks[i])
			case op == 5:
				what = "WriteBatch"
				a, b := pick(), pick()
				ia, ib := img(), img()
				if a == b {
					ib = ia
				}
				d.WriteBatch(batch(map[mmu.PageID][]byte{a: ia, b: ib}))
				ref.store(a, ia)
				ref.store(b, ib)
			case op == 6:
				what = "SeedDurable"
				page, image := pick(), img()
				d.SeedDurable(page, image)
				ref.store(page, image)
			case op < 9: // one page each way
				what = "AdoptVerified"
				src, srcRef := devs[1-i], refs[1-i]
				page := pick()
				err := d.AdoptVerified(src, page)
				if (err == nil) != srcRef.verdict(page) {
					t.Fatalf("step %d: AdoptVerified of page %d = %v, reference intact = %v", step, page, err, srcRef.verdict(page))
				}
				if err != nil && !errors.Is(err, ErrCorruptPage) {
					t.Fatalf("step %d: AdoptVerified error %v does not wrap ErrCorruptPage", step, err)
				}
				if data, ok := srcRef.data[page]; ok && err == nil {
					ref.data[page] = bytes.Clone(data)
					ref.sums[page] = srcRef.sums[page]
					adopts++
				}
			case op == 9: // a reboot: a new object adopts every page of the other
				what = "reboot"
				src, srcRef, replaced := devs[1-i], refs[1-i], devs[i]
				boot(i)
				d, ref = devs[i], refs[i]
				// Before its walk the reboot retires every object left
				// behind before the one it replaces.
				for _, old := range slices.Clone(alive) {
					if old != replaced && old != devs[0] && old != devs[1] {
						retire(d, old, step, what)
					}
				}
				for _, page := range src.DurablePageList() {
					err := d.AdoptVerified(src, page)
					if (err == nil) != srcRef.verdict(page) {
						t.Fatalf("step %d: reboot adoption of page %d = %v, reference intact = %v", step, page, err, srcRef.verdict(page))
					}
					if data, ok := srcRef.data[page]; ok && err == nil {
						ref.data[page] = bytes.Clone(data)
						ref.sums[page] = srcRef.sums[page]
						adopts++
					}
				}
			case op == 12: // a restore: the region shares the device's image in place
				what = "RestoreFrom"
				page := pick()
				restored, err := region.RestoreFrom(d.OpenReadStream(sim.NewClock()), page)
				if data, ok := ref.data[page]; err != nil || restored != ok {
					t.Fatalf("step %d: RestoreFrom(%d) = %v, %v, reference has contents = %v", step, page, restored, err, ok)
				} else if ok {
					copy(regionRef[int(page)*4096:], data)
					shared[page] = region.RawPage(page)
					sharedSums[page] = uint64(checksum(data))
					shares++
				}
			case op == 14: // a retirement of an object left behind into a lane
				what = "Retire"
				for _, old := range alive {
					if old != devs[0] && old != devs[1] {
						retire(d, old, step, what)
						break
					}
				}
			case op == 13: // a first store: one byte into a page of the region
				what = "WriteAt"
				off, b := rng.Intn(lendPages*4096), byte(rng.Uint64())
				if err := region.WriteAt([]byte{b}, int64(off)); err != nil {
					t.Fatal(err)
				}
				regionRef[off] = b
				delete(shared, mmu.PageID(off/4096))
			default:
				what = "CorruptPage"
				page, off, pattern := pick(), rng.Intn(4096), byte(1+rng.Intn(255))
				_, had := ref.data[page]
				if got := d.CorruptPage(page, off, pattern); got != had {
					t.Fatalf("step %d: CorruptPage(%d) = %v, reference has contents = %v", step, page, got, had)
				}
				if had {
					ref.data[page][off] ^= pattern
				}
			}
			for k, d := range alive {
				checkHeldSums(t, fmt.Sprintf("#%d", k), d, step, what, shared)
			}
			for p, img := range shared {
				if &region.RawPage(p)[0] != &img[0] || uint64(checksum(img)) != sharedSums[p] {
					t.Fatalf("step %d (%s): region page %d no longer reads its shared image, or the image changed", step, what, p)
				}
				if !slices.ContainsFunc(alive, func(d *SSD) bool { return storesImage(d, p, img) }) {
					outlived++
				}
			}
			for p := mmu.PageID(0); p < lendPages; p++ {
				if !bytes.Equal(region.RawPage(p), regionRef[int(p)*4096:int(p+1)*4096]) {
					t.Fatalf("step %d (%s): region page %d differs from its private copy", step, what, p)
				}
			}
			for k := range devs {
				lent := 0
				for _, s := range devs[k].pages {
					if s.lent {
						lent++
					}
				}
				lentSeen = max(lentSeen, lent)
				recycled = max(recycled, len(devs[k].free))
				checkAgainstRef(t, []string{"A", "B"}[k], devs[k], refs[k], step, what)
			}
		}
		for _, d := range devs {
			count(d)
		}
		if st.TornWrites == 0 || st.LostWrites == 0 || st.Misdirected == 0 || st.WriteErrors == 0 || rots == 0 {
			t.Fatalf("seed %d: the script missed a fault class: %d rots, %+v", seed, rots, st)
		}
		if adopts == 0 || lentSeen == 0 || recycled == 0 {
			t.Fatalf("seed %d: %d adoptions, at most %d lent pages and %d free buffers: the script never lent or recycled", seed, adopts, lentSeen, recycled)
		}
		if shares == 0 || outlived == 0 {
			t.Fatalf("seed %d: %d restores shared an image and %d step-images outlived every device slot: the region checks saw nothing", seed, shares, outlived)
		}
		if retires == 0 || handedBack == 0 || regionKept == 0 {
			t.Fatalf("seed %d: %d retirements handed back %d buffers and kept %d for the region alone: the retire checks saw nothing", seed, retires, handedBack, regionKept)
		}
		t.Logf("seed %d: %d retirements handed back %d buffers and kept %d for the region alone", seed, retires, handedBack, regionKept)
	}
}

// TestRetireHandsOnWhatNothingReads: b adopts every page of a, a region
// restores pages 1 and 2 from b, and b's writes then displace a's images
// of pages 0 and 1. Retiring a into c, a fresh object, hands c a's image
// of page 0 alone: b still stores pages 2 and 3, and the region still
// shares page 1. c gets a's slot table, cleared, and a panics on use but
// for its counters.
func TestRetireHandsOnWhatNothingReads(t *testing.T) {
	a, _, _ := newTestSSD(Config{})
	for p := mmu.PageID(0); p < 4; p++ {
		a.SeedDurable(p, page(byte(p+1), 4096))
	}
	b, clock, _ := newTestSSD(Config{})
	for p := mmu.PageID(0); p < 4; p++ {
		if err := b.AdoptVerified(a, p); err != nil {
			t.Fatal(err)
		}
	}
	region, err := nvdram.New(clock, nvdram.Config{Size: 4 * 4096})
	if err != nil {
		t.Fatal(err)
	}
	stream := b.OpenReadStream(clock)
	for _, p := range []mmu.PageID{1, 2} {
		if ok, err := region.RestoreFrom(stream, p); !ok || err != nil {
			t.Fatalf("RestoreFrom(%d) = %v, %v", p, ok, err)
		}
	}
	images := make([][]byte, 4)
	for p := range images {
		images[p], _ = a.Durable(mmu.PageID(p))
	}
	for _, p := range []mmu.PageID{0, 1} {
		if _, err := b.WritePageSync(p, page(0xB0, 4096)); err != nil {
			t.Fatal(err)
		}
	}
	table := a.pages
	c, _, _ := newTestSSD(Config{})
	c.Retire(a, []*SSD{b}, []Sharer{region})
	if len(c.free) != 1 || &c.free[0][0] != &images[0][0] {
		t.Fatalf("c's free list holds %d buffers, want a's image of page 0 alone", len(c.free))
	}
	if &c.pages[0] != &table[0] || slices.ContainsFunc(c.pages, func(s slot) bool { return s.data != nil || s.hasSum || s.lent }) {
		t.Fatal("c did not get a's slot table, cleared")
	}
	if !bytes.Equal(region.RawPage(1), page(2, 4096)) || !bytes.Equal(region.RawPage(2), page(3, 4096)) {
		t.Fatal("the region's shared pages changed")
	}
	if a.Stats().VerifyChecks != 4 {
		t.Fatalf("a retired object's counters read %d verifications, want b's 4 adoptions", a.Stats().VerifyChecks)
	}
	for name, use := range map[string]func(){
		"Durable":         func() { a.Durable(3) },
		"DurablePageList": func() { a.DurablePageList() },
		"PageBuffer":      func() { a.PageBuffer() },
		"AdoptVerified":   func() { _ = c.AdoptVerified(a, 3) },
		"Retire":          func() { c.Retire(a, nil, nil) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s on a retired device object did not panic", name)
				}
			}()
			use()
		}()
	}
}

// TestRetireHandsOnPoolsAndBitmaps: a device object that retires another
// before it has written takes its write records, re-pointed at itself,
// its stored and claimed bitmaps, cleared, and its measurement window,
// emptied; writes through it then complete on its own queue and count in
// its own sets, and the retired object's counters stand.
func TestRetireHandsOnPoolsAndBitmaps(t *testing.T) {
	a, aClock, aEvents := newTestSSD(Config{})
	for p := mmu.PageID(0); p < 200; p += 10 {
		a.WritePageAsync(p, page(byte(p), 4096), nil)
	}
	aEvents.Drain(aClock)
	records, words := len(a.writes), &a.stored.words[0]
	if records < 2 || a.stored.n != 20 || len(a.window) == 0 {
		t.Fatalf("a holds %d write records, %d stored pages and %d window samples: the test would prove nothing",
			records, a.stored.n, len(a.window))
	}
	aStats := a.Stats()
	b, bClock, bEvents := newTestSSD(Config{})
	b.Retire(a, nil, nil)
	if len(b.writes) != records || slices.ContainsFunc(b.writes, func(w *write) bool { return w.d != b }) {
		t.Fatal("b did not take a's write records, each pointing at b")
	}
	if &b.stored.words[0] != words || b.stored.n != 0 || b.claimed.n != 0 ||
		slices.ContainsFunc(b.stored.words, func(w uint64) bool { return w != 0 }) ||
		slices.ContainsFunc(b.claimed.words, func(w uint64) bool { return w != 0 }) {
		t.Fatal("b did not take a's bitmaps, cleared")
	}
	if len(b.window) != 0 || cap(b.window) == 0 || a.window != nil {
		t.Fatal("b did not take a's measurement window, emptied")
	}
	for _, p := range []mmu.PageID{70, 3} {
		b.WritePageAsync(p, page(byte(p), 4096), nil)
	}
	bEvents.Drain(bClock)
	if got := b.DurablePageList(); !slices.Equal(got, []mmu.PageID{3, 70}) || b.Stats().WritesCompleted != 2 {
		t.Fatalf("b lists durable pages %v after %d completions, want [3 70] after 2", got, b.Stats().WritesCompleted)
	}
	if a.Stats() != aStats {
		t.Fatal("b's writes moved a's counters")
	}
}
