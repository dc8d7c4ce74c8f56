package nvdram

import (
	"bytes"
	"fmt"
	"runtime"
	"testing"

	"viyojit/internal/mmu"
	"viyojit/internal/sim"
)

// flatRegion is the region as one array of Size bytes — the reference the
// sparse one must be indistinguishable from: same bytes, same errors, same
// clock, same MMU counters.
type flatRegion struct {
	clock *sim.Clock
	pt    *mmu.PageTable
	data  []byte
	ps    int
	cpp   sim.Duration
}

func newFlat(size int64, ps int) *flatRegion {
	clock := sim.NewClock()
	return &flatRegion{
		clock: clock,
		pt:    mmu.NewPageTable(clock, mmu.DefaultCosts(), int(size/int64(ps)), 0),
		data:  make([]byte, size),
		ps:    ps,
		cpp:   sim.Duration(400*int64(ps)) / DefaultPageSize * sim.Nanosecond,
	}
}

func (f *flatRegion) inRange(off int64, n int) bool {
	return off >= 0 && n >= 0 && off+int64(n) <= int64(len(f.data))
}

func (f *flatRegion) charge(n int) {
	if n > 0 {
		f.clock.Advance(sim.Duration(int64(f.cpp) * int64(n) / int64(f.ps)))
	}
}

// access walks [off, off+len(p)) a page segment at a time, as a load
// (store false) or a store, and reports whether it ran to the end.
func (f *flatRegion) access(p []byte, off int64, store bool) bool {
	if !f.inRange(off, len(p)) {
		return false
	}
	for len(p) > 0 {
		page := mmu.PageID(off / int64(f.ps))
		n := f.ps - int(off%int64(f.ps))
		if n > len(p) {
			n = len(p)
		}
		if store {
			if f.pt.Write(page) != nil {
				return false
			}
			copy(f.data[off:], p[:n])
		} else {
			f.pt.Read(page)
			copy(p[:n], f.data[off:off+int64(n)])
		}
		f.charge(n)
		p, off = p[n:], off+int64(n)
	}
	return true
}

func (f *flatRegion) page(page mmu.PageID) []byte {
	return f.data[int(page)*f.ps : (int(page)+1)*f.ps]
}

// mapReader is a device holding the pages in its map, counting reads.
type mapReader struct {
	pages map[mmu.PageID][]byte
	reads int
}

func (m *mapReader) ReadPageInto(page mmu.PageID, dst []byte) bool {
	data, ok := m.pages[page]
	if ok {
		m.reads++
		copy(dst, data)
	}
	return ok
}

// driveAgainstFlat decodes ops from script and applies each to a sparse
// region and the flat model, comparing after every one. Sizes are chosen
// so that a region has several chunks, a short last one, and — for some
// scripts — fewer pages than one chunk.
func driveAgainstFlat(t *testing.T, script []byte) {
	t.Helper()
	next := func() int {
		if len(script) == 0 {
			return 0
		}
		b := script[0]
		script = script[1:]
		return int(b)
	}
	ps := []int{4096, 8192}[next()%2]
	numPages := []int{1, chunkPages - 1, chunkPages, chunkPages + 1, 2*chunkPages + 7, 3 * chunkPages}[next()%6]
	size := int64(numPages) * int64(ps)

	clock := sim.NewClock()
	r, err := New(clock, Config{Size: size, PageSize: ps})
	if err != nil {
		t.Fatal(err)
	}
	f := newFlat(size, ps)
	// Protected pages fault to a handler that resolves every other fault,
	// the same way on both sides, so failed stores are exercised too.
	for _, side := range []*mmu.PageTable{r.pt, f.pt} {
		pt, faults := side, 0
		pt.SetFaultHandler(func(p mmu.PageID) {
			if faults++; faults%2 == 1 {
				pt.Unprotect(p)
			}
		})
	}
	dev := &mapReader{pages: map[mmu.PageID][]byte{}}
	fill := byte(1)
	payload := func(n int) []byte {
		buf := make([]byte, n)
		for i := range buf {
			buf[i] = fill
			fill = fill*31 + 7
		}
		return buf
	}
	// offset picks a byte offset near a page or chunk boundary, or
	// anywhere, or just outside the region.
	offset := func() int64 {
		a, b := int64(next()), int64(next())
		switch a % 4 {
		case 0:
			return (b%int64(numPages)+1)*int64(ps) - a%97
		case 1:
			return (b%3+1)*chunkPages*int64(ps) - a%5000
		case 2:
			return size - a*b%9000
		}
		return (a<<8 | b) * 577 % (size + 64)
	}
	for step := 0; len(script) > 0; step++ {
		op := next() % 10
		page := mmu.PageID((next()<<8 | next()) % (numPages + 1)) // one past the end too
		inside := int(page) < numPages
		switch op {
		case 0, 1: // store
			off, buf := offset(), payload(next()*next()%(3*ps))
			err := r.WriteAt(buf, off)
			if ok := f.access(buf, off, true); ok != (err == nil) {
				t.Fatalf("step %d: WriteAt(%d bytes at %d) = %v, flat model ok=%v", step, len(buf), off, err, ok)
			}
		case 2, 3: // load
			off, n := offset(), next()*next()%(3*ps)
			got, want := payload(n), make([]byte, n)
			copy(want, got)
			err := r.ReadAt(got, off)
			if ok := f.access(want, off, false); ok != (err == nil) {
				t.Fatalf("step %d: ReadAt(%d bytes at %d) = %v, flat model ok=%v", step, n, off, err, ok)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("step %d: ReadAt(%d bytes at %d) differs from the flat model", step, n, off)
			}
		case 4:
			if !inside {
				continue
			}
			got := bytes.Repeat([]byte{0xEE}, ps) // stale bytes, all overwritten
			r.CopyPage(page, got)
			f.charge(ps)
			if !bytes.Equal(got, f.page(page)) {
				t.Fatalf("step %d: CopyPage(%d) differs from the flat model", step, page)
			}
			got[0] ^= 0xFF // a copy: must not show below
		case 5:
			data := payload(ps)
			if next()%8 == 0 {
				data = data[:ps-1]
			}
			err := r.RestorePage(page, data)
			if ok := inside && len(data) == ps; ok != (err == nil) {
				t.Fatalf("step %d: RestorePage(%d, %d bytes) = %v, want ok=%v", step, page, len(data), err, ok)
			} else if ok {
				copy(f.page(page), data)
				f.charge(ps)
			}
		case 6: // chunk restore: a run of pages from page on, within its chunk
			pages, stride, valid := []mmu.PageID{page}, mmu.PageID(next()%3+1), inside
			for n := next() % 6; n > 0; n-- {
				p := pages[len(pages)-1] + stride
				if p/chunkPages != page/chunkPages {
					break
				}
				pages = append(pages, p)
				valid = valid && int(p) < numPages
			}
			if next()%16 == 0 { // a page of the next chunk
				pages = append(pages, (page/chunkPages+1)*chunkPages)
				valid = false
			}
			for _, p := range pages {
				if next()%2 == 0 && int(p) < numPages {
					dev.pages[p] = payload(ps)
				}
			}
			reads := dev.reads
			restored, err := r.RestoreChunkFrom(dev, pages)
			if (err == nil) != valid {
				t.Fatalf("step %d: RestoreChunkFrom(%v) = %v in a region of %d pages", step, pages, err, numPages)
			}
			want := 0
			for _, p := range pages {
				if data, has := dev.pages[p]; has && valid {
					copy(f.page(p), data)
					want++
				}
			}
			if restored != want || dev.reads-reads != want {
				t.Fatalf("step %d: RestoreChunkFrom(%v) restored %d pages with %d device reads, device has %d", step, pages, restored, dev.reads-reads, want)
			}
			// Every page of the chunk, so a reused spare's stale bytes show.
			for p := page / chunkPages * chunkPages; inside && p < (page/chunkPages+1)*chunkPages && int(p) < numPages; p++ {
				if !bytes.Equal(r.RawPage(p), f.page(p)) {
					t.Fatalf("step %d: page %d differs from the flat model after RestoreChunkFrom(%v)", step, p, pages)
				}
			}
		case 7:
			if inside && next()%2 == 0 {
				r.pt.Protect(page)
				f.pt.Protect(page)
			}
		case 8: // take over a predecessor whose every chunk holds 0xA5
			prev, err := New(sim.NewClock(), Config{Size: int64(next()%3+1) * chunkPages * int64(ps), PageSize: ps})
			if err != nil {
				t.Fatal(err)
			}
			if err := prev.WriteAt(bytes.Repeat([]byte{0xA5}, int(prev.Size())), 0); err != nil {
				t.Fatal(err)
			}
			r.TakeOver(prev)
			for p := 0; p < prev.NumPages(); p++ {
				if prev.Backed(mmu.PageID(p)) || prev.RawPage(mmu.PageID(p))[0] != 0 {
					t.Fatalf("step %d: page %d of a region taken over is still backed or non-zero", step, p)
				}
			}
		case 9:
			r.ReleaseSpares()
		}
		if inside && !bytes.Equal(r.RawPage(page), f.page(page)) {
			t.Fatalf("step %d (op %d): RawPage(%d) differs from the flat model", step, op, page)
		}
		if clock.Now() != f.clock.Now() {
			t.Fatalf("step %d (op %d): clock %v, flat model %v", step, op, clock.Now(), f.clock.Now())
		}
		if r.pt.Stats() != f.pt.Stats() {
			t.Fatalf("step %d (op %d): MMU counters %+v, flat model %+v", step, op, r.pt.Stats(), f.pt.Stats())
		}
	}
	for p := 0; p < numPages; p++ {
		page := mmu.PageID(p)
		if !bytes.Equal(r.RawPage(page), f.page(page)) {
			t.Fatalf("final: page %d differs from the flat model", page)
		}
		if !r.Backed(page) && !bytes.Equal(f.page(page), make([]byte, ps)) {
			t.Fatalf("final: page %d is not backed but the flat model holds data there", page)
		}
	}
	if r.Size() != size || r.NumPages() != numPages {
		t.Fatalf("Size %d NumPages %d, want %d and %d", r.Size(), r.NumPages(), size, numPages)
	}
}

// TestSparseMatchesFlatModel: seeded random scripts of every region
// operation leave a sparse region and a flat array in the same state at
// every step.
func TestSparseMatchesFlatModel(t *testing.T) {
	for seed := uint64(1); seed <= 60; seed++ {
		rng := sim.NewRNG(seed)
		script := make([]byte, 2+rng.Intn(1200))
		for i := range script {
			script[i] = byte(rng.Uint64())
		}
		t.Run(fmt.Sprint(seed), func(t *testing.T) { driveAgainstFlat(t, script) })
	}
}

func FuzzRegion(f *testing.F) {
	f.Add([]byte{0, 4, 0, 0, 1, 1, 200, 200, 2, 0, 1, 1, 200, 200})
	f.Add([]byte{1, 3, 6, 0, 64, 0, 6, 0, 65, 1, 4, 0, 64, 5, 0, 3, 1})
	f.Add(bytes.Repeat([]byte{0, 1, 2, 3, 4, 5, 6, 7, 90, 255}, 40))
	f.Fuzz(func(t *testing.T, script []byte) {
		if len(script) > 4096 {
			script = script[:4096]
		}
		driveAgainstFlat(t, script)
	})
}

// allocated returns the bytes fn allocates.
func allocated(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestNewBacksNothing: a region costs the host its page table and TLB
// index until something is stored, reads do not change that, and a store
// backs the one chunk it lands in.
func TestNewBacksNothing(t *testing.T) {
	const size = 64 << 20
	var r *Region
	if got := allocated(func() { r, _ = newTestRegion(t, size, 4096) }); got >= 1<<20 {
		t.Fatalf("New of a 64 MiB region allocated %d bytes, want under 1 MiB (no data bytes)", got)
	}
	backed := func() (n int) {
		for p := 0; p < r.NumPages(); p++ {
			if r.Backed(mmu.PageID(p)) {
				n++
			}
		}
		return n
	}
	buf, zeros := make([]byte, 3*4096), make([]byte, 3*4096)
	if got := allocated(func() {
		for off := int64(0); off+int64(len(buf)) <= size; off += 1 << 20 {
			if err := r.ReadAt(buf, off+100); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(buf, zeros) {
				t.Fatalf("a never-written region reads non-zero at %d", off)
			}
			_ = r.RawPage(r.PageOf(off))
		}
	}); got >= 1<<20 || backed() != 0 {
		t.Fatalf("reads allocated %d bytes and backed %d pages, want no backing", got, backed())
	}
	got := bytes.Repeat([]byte{0xEE}, 4096)
	if r.CopyPage(77, got); !bytes.Equal(got, make([]byte, 4096)) || backed() != 0 {
		t.Fatalf("CopyPage of a never-written page: non-zero or backed (%d pages)", backed())
	}
	const chunkBytes = chunkPages * 4096
	if got := allocated(func() {
		if err := r.WriteAt([]byte{1}, 5*chunkBytes+123); err != nil {
			t.Fatal(err)
		}
	}); got < chunkBytes || got >= 2*chunkBytes {
		t.Fatalf("the first store allocated %d bytes, want one chunk of %d", got, chunkBytes)
	}
	if got := backed(); got != chunkPages || !r.Backed(5*chunkPages) || !r.Backed(6*chunkPages-1) || r.Backed(6*chunkPages) {
		t.Fatalf("%d pages backed after one store into chunk 5, want exactly that chunk's %d", got, chunkPages)
	}
	if got := allocated(func() {
		if err := r.WriteAt(buf, 5*chunkBytes+4000); err != nil {
			t.Fatal(err)
		}
	}); got >= 4096 {
		t.Fatalf("a store into a backed chunk allocated %d bytes", got)
	}
	// The last chunk is as long as the pages left, not a whole chunk.
	short, _ := newTestRegion(t, (chunkPages+3)*4096, 4096)
	if got := allocated(func() {
		if err := short.WriteAt([]byte{1}, (chunkPages+2)*4096); err != nil {
			t.Fatal(err)
		}
	}); got < 3*4096 || got >= 4*4096 {
		t.Fatalf("a store into a last chunk of 3 pages allocated %d bytes", got)
	}
}

// TestRestoreFromSkipsAbsentPages: a chunk restore the device has nothing
// for neither reads, nor changes the pages, nor backs their chunk.
func TestRestoreFromSkipsAbsentPages(t *testing.T) {
	r, c := newTestRegion(t, 4*chunkPages*4096, 4096)
	dev := &mapReader{pages: map[mmu.PageID][]byte{chunkPages + 3: bytes.Repeat([]byte{7}, 4096)}}
	for _, pages := range [][]mmu.PageID{{0}, {1, 5}, {chunkPages + 2}, {3 * chunkPages}} {
		if n, err := r.RestoreChunkFrom(dev, pages); n != 0 || err != nil {
			t.Fatalf("RestoreChunkFrom(%v) = %d, %v for pages the device lacks", pages, n, err)
		}
		if r.Backed(pages[0]) {
			t.Fatalf("page %d backed by a restore the device had nothing for", pages[0])
		}
	}
	if n, err := r.RestoreChunkFrom(dev, []mmu.PageID{chunkPages + 1, chunkPages + 3}); n != 1 || err != nil {
		t.Fatalf("RestoreChunkFrom of one held page and one absent = %d, %v", n, err)
	}
	if !r.Backed(chunkPages+3) || r.Backed(0) || r.Backed(2*chunkPages) || !bytes.Equal(r.RawPage(chunkPages+3), dev.pages[chunkPages+3]) {
		t.Fatal("restoring one held page must back its chunk alone, with the device's bytes")
	}
	// A miss in a backed chunk leaves its contents, and the chunk, alone.
	if n, _ := r.RestoreChunkFrom(dev, []mmu.PageID{chunkPages + 2}); n != 0 || !r.Backed(chunkPages+2) || r.RawPage(chunkPages + 3)[0] != 7 {
		t.Fatal("a miss inside a backed chunk disturbed it")
	}
	for _, pages := range [][]mmu.PageID{{4 * chunkPages}, {3, chunkPages + 3}} {
		if _, err := r.RestoreChunkFrom(dev, pages); err == nil {
			t.Fatalf("RestoreChunkFrom(%v), past the end or across chunks, succeeded", pages)
		}
	}
	if dev.reads != 1 || c.Now() != 0 {
		t.Fatalf("%d device reads and clock %v, want one read and no region-side charge", dev.reads, c.Now())
	}
}

// TestTakeOverReusesChunks: a region reboots into its predecessor's
// full-size chunks. The predecessor then reads as never written, a
// restored chunk shows the device's pages and zeros elsewhere — never the
// stale bytes — and a chunk restore backed by a spare allocates nothing.
func TestTakeOverReusesChunks(t *testing.T) {
	const ps = 4096
	prev, _ := newTestRegion(t, (2*chunkPages+3)*ps, ps)
	if err := prev.WriteAt(bytes.Repeat([]byte{0xA5}, int(prev.Size())), 0); err != nil {
		t.Fatal(err)
	}
	r, _ := newTestRegion(t, prev.Size(), ps)
	r.TakeOver(prev)
	if len(r.spares) != 2 {
		t.Fatalf("%d spares taken over, want the 2 full-size chunks and not the short last one", len(r.spares))
	}
	for p := 0; p < prev.NumPages(); p++ {
		if prev.Backed(mmu.PageID(p)) || !bytes.Equal(prev.RawPage(mmu.PageID(p)), make([]byte, ps)) {
			t.Fatalf("page %d of the region taken over is backed or non-zero", p)
		}
	}
	held := bytes.Repeat([]byte{7}, ps)
	dev := &mapReader{pages: map[mmu.PageID][]byte{2: held, 5: held, 2*chunkPages + 1: held}}
	if got := allocated(func() {
		if n, err := r.RestoreChunkFrom(dev, []mmu.PageID{2, 3, 5}); n != 2 || err != nil {
			t.Fatalf("RestoreChunkFrom = %d, %v", n, err)
		}
	}); got >= ps {
		t.Fatalf("a chunk restore into a spare allocated %d bytes", got)
	}
	for p := 0; p < chunkPages; p++ {
		want := make([]byte, ps)
		if p == 2 || p == 5 {
			want = held
		}
		if !bytes.Equal(r.RawPage(mmu.PageID(p)), want) {
			t.Fatalf("page %d of a chunk restored into a spare: want the device's page or zeros", p)
		}
	}
	// A restore the device has nothing for hands its spare back; the short
	// last chunk is allocated as ever.
	if n, _ := r.RestoreChunkFrom(dev, []mmu.PageID{chunkPages + 7}); n != 0 || r.Backed(chunkPages) || len(r.spares) != 1 {
		t.Fatalf("a restore with nothing to read backed its chunk or kept the spare (%d left)", len(r.spares))
	}
	if n, _ := r.RestoreChunkFrom(dev, []mmu.PageID{2*chunkPages + 1}); n != 1 || len(r.spares) != 1 || len(r.RawPage(2*chunkPages+2)) != ps {
		t.Fatal("the short last chunk took a spare")
	}
	r.ReleaseSpares()
	dev.pages[chunkPages+5] = held
	if got := allocated(func() {
		if n, _ := r.RestoreChunkFrom(dev, []mmu.PageID{chunkPages + 5}); n != 1 {
			t.Fatal("the device's page was not restored")
		}
	}); got < chunkPages*ps || len(r.spares) != 0 {
		t.Fatalf("after ReleaseSpares a chunk restore allocated %d bytes, want a fresh chunk", got)
	}
}

// fakeStore is a DurableStore that counts what it is asked to compare.
type fakeStore struct {
	pages    map[mmu.PageID][]byte
	compared []mmu.PageID
}

func (s *fakeStore) Durable(page mmu.PageID) ([]byte, bool) {
	data, ok := s.pages[page]
	return data, ok
}

func (s *fakeStore) CheckRestorable(page mmu.PageID, live []byte) error {
	s.compared = append(s.compared, page)
	if data, ok := s.pages[page]; ok && !bytes.Equal(live, data) || !ok && !bytes.Equal(live, make([]byte, len(live))) {
		return fmt.Errorf("page %d not restorable", page)
	}
	return nil
}

// TestCheckRestorableSkipsOnlyTheVacuousCase: the one page the walk does
// not hand to the device's comparison is a page that is not backed and has
// no durable copy.
func TestCheckRestorableSkipsOnlyTheVacuousCase(t *testing.T) {
	r, _ := newTestRegion(t, 3*chunkPages*4096, 4096)
	if err := r.WriteAt([]byte{9}, 10*4096); err != nil { // backs chunk 0, dirties page 10
		t.Fatal(err)
	}
	dev := &fakeStore{pages: map[mmu.PageID][]byte{
		10:             bytes.Clone(r.RawPage(10)),
		chunkPages + 1: bytes.Repeat([]byte{3}, 4096), // durable, region unbacked there
	}}
	var failed []mmu.PageID
	for p := 0; p < r.NumPages(); p++ {
		if r.CheckRestorable(dev, mmu.PageID(p)) != nil {
			failed = append(failed, mmu.PageID(p))
		}
	}
	if len(dev.compared) != chunkPages+1 || dev.compared[chunkPages] != chunkPages+1 {
		t.Fatalf("compared %d pages (%v…), want every page of the backed chunk and the one unbacked durable page", len(dev.compared), dev.compared[:1])
	}
	if len(failed) != 1 || failed[0] != chunkPages+1 {
		t.Fatalf("failed pages %v, want only the durable page the region does not hold", failed)
	}
}
