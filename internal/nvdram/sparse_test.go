package nvdram

import (
	"bytes"
	"fmt"
	"runtime"
	"slices"
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

// mapReader is a device holding the pages in its map, counting reads. It
// keeps a pristine copy of every image it hands out, so a region that
// stores into a shared image is caught.
type mapReader struct {
	pages  map[mmu.PageID][]byte
	reads  int
	handed map[*byte]handout // by the image's first byte
}

// handout is an image a mapReader shared and the copy it kept of it.
type handout struct {
	img, pristine []byte
}

func newMapReader(pages map[mmu.PageID][]byte) *mapReader {
	return &mapReader{pages: pages, handed: map[*byte]handout{}}
}

func (m *mapReader) SharePage(page mmu.PageID) ([]byte, bool) {
	data, ok := m.pages[page]
	if ok {
		m.reads++
		if _, seen := m.handed[&data[0]]; !seen {
			m.handed[&data[0]] = handout{data, bytes.Clone(data)}
		}
	}
	return data, ok
}

// intact reports whether every image handed out still equals its
// pristine copy.
func (m *mapReader) intact() bool {
	for _, h := range m.handed {
		if !bytes.Equal(h.img, h.pristine) {
			return false
		}
	}
	return true
}

// scriptStats counts what a script reached that the flat model cannot
// tell apart: chunks backed by a spare, and shared pages a store copied
// into the region.
type scriptStats struct {
	spares, owned int
}

// driveAgainstFlat decodes ops from script and applies each to a sparse
// region and the flat model, comparing after every one. Sizes are chosen
// so that a region has several chunks, a short last one, and — for some
// scripts — fewer pages than one chunk. After every op, every image the
// device handed out is unchanged, and every page of a chunk the op backed
// equals the model, so a spare's 0xA5 never shows through.
func driveAgainstFlat(t *testing.T, script []byte) (st scriptStats) {
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
	dev := newMapReader(map[mmu.PageID][]byte{})
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
		chunks, spares := slices.Clone(r.chunks), len(r.spares)
		shared := 0
		for _, img := range r.shared {
			if img != nil {
				shared++
			}
		}
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
		case 6: // restore: a run of pages from page on, mostly within its chunk
			pages, stride := []mmu.PageID{page}, mmu.PageID(next()%3+1)
			for n := next() % 6; n > 0; n-- {
				p := pages[len(pages)-1] + stride
				if p/chunkPages != page/chunkPages {
					break
				}
				pages = append(pages, p)
			}
			if next()%16 == 0 { // a page of the next chunk
				pages = append(pages, (page/chunkPages+1)*chunkPages)
			}
			for _, p := range pages {
				if next()%2 == 0 && int(p) < numPages {
					dev.pages[p] = payload(ps)
				}
			}
			for _, p := range pages {
				reads := dev.reads
				restored, err := r.RestoreFrom(dev, p)
				valid := int(p) < numPages
				if (err == nil) != valid {
					t.Fatalf("step %d: RestoreFrom(%d) = %v in a region of %d pages", step, p, err, numPages)
				}
				data, has := dev.pages[p]
				has = has && valid
				wantReads := 0
				if has {
					wantReads = 1
				}
				if restored != has || dev.reads-reads != wantReads {
					t.Fatalf("step %d: RestoreFrom(%d) = %v with %d device reads, device has it: %v", step, p, restored, dev.reads-reads, has)
				}
				if has {
					copy(f.page(p), data)
					if &r.RawPage(p)[0] != &data[0] {
						t.Fatalf("step %d: page %d restored by copy, not by reference", step, p)
					}
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
		case 9: // a one-byte store at the start of page: a first store into a shared page
			if !inside {
				continue
			}
			b := []byte{byte(page) ^ 0x5A}
			err := r.WriteAt(b, int64(page)*int64(ps))
			if ok := f.access(b, int64(page)*int64(ps), true); ok != (err == nil) {
				t.Fatalf("step %d: one-byte WriteAt at page %d = %v, flat model ok=%v", step, page, err, ok)
			}
		}
		if !dev.intact() {
			t.Fatalf("step %d (op %d): an image the device handed out changed", step, op)
		}
		for ci, c := range r.chunks {
			if chunks[ci] != nil || c == nil {
				continue
			}
			for p := mmu.PageID(ci * chunkPages); p < mmu.PageID(min((ci+1)*chunkPages, numPages)); p++ {
				if !bytes.Equal(r.RawPage(p), f.page(p)) {
					t.Fatalf("step %d (op %d): page %d of chunk %d, backed by this op, differs from the flat model", step, op, p, ci)
				}
			}
		}
		if op != 8 && len(r.spares) < spares {
			st.spares++
		}
		if op != 6 {
			for _, img := range r.shared {
				if img != nil {
					shared--
				}
			}
			st.owned += shared
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
	return st
}

// TestSparseMatchesFlatModel: seeded random scripts of every region
// operation leave a sparse region and a flat array in the same state at
// every step.
func TestSparseMatchesFlatModel(t *testing.T) {
	var total scriptStats
	for seed := uint64(1); seed <= 60; seed++ {
		rng := sim.NewRNG(seed)
		script := make([]byte, 2+rng.Intn(1200))
		for i := range script {
			script[i] = byte(rng.Uint64())
		}
		t.Run(fmt.Sprint(seed), func(t *testing.T) {
			st := driveAgainstFlat(t, script)
			total.spares += st.spares
			total.owned += st.owned
		})
	}
	if total.spares == 0 || total.owned == 0 {
		t.Fatalf("the scripts backed %d chunks with spares and copied %d shared pages in: the checks saw neither path", total.spares, total.owned)
	}
	t.Logf("%d chunks backed by spares, %d shared pages copied in by a store", total.spares, total.owned)
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

// TestRestoreFromSkipsAbsentPages: a restore the device has nothing for
// neither reads, nor changes the page, nor backs it; a restore of a page
// it has shares the device's image and backs no chunk; and a restore past
// the end fails.
func TestRestoreFromSkipsAbsentPages(t *testing.T) {
	r, c := newTestRegion(t, 4*chunkPages*4096, 4096)
	held := bytes.Repeat([]byte{7}, 4096)
	dev := newMapReader(map[mmu.PageID][]byte{chunkPages + 3: held})
	for _, page := range []mmu.PageID{0, 5, chunkPages + 2, 3 * chunkPages} {
		if ok, err := r.RestoreFrom(dev, page); ok || err != nil {
			t.Fatalf("RestoreFrom(%d) = %v, %v for a page the device lacks", page, ok, err)
		}
		if r.Backed(page) {
			t.Fatalf("page %d backed by a restore the device had nothing for", page)
		}
	}
	if ok, err := r.RestoreFrom(dev, chunkPages+3); !ok || err != nil {
		t.Fatalf("RestoreFrom of a held page = %v, %v", ok, err)
	}
	if !r.Backed(chunkPages+3) || r.Backed(chunkPages+2) || &r.RawPage(chunkPages + 3)[0] != &held[0] {
		t.Fatal("restoring one held page must make it, and it alone, read the device's image")
	}
	for ci, ch := range r.chunks {
		if ch != nil {
			t.Fatalf("a restore backed chunk %d", ci)
		}
	}
	if c.Now() != 0 {
		t.Fatalf("restores charged the region's clock %v, want nothing", c.Now())
	}
	// A miss over a page stored into leaves its bytes alone.
	if err := r.WriteAt([]byte{9}, (chunkPages+2)*4096); err != nil {
		t.Fatal(err)
	}
	stored := c.Now()
	if ok, _ := r.RestoreFrom(dev, chunkPages+2); ok || r.RawPage(chunkPages + 2)[0] != 9 || r.RawPage(chunkPages + 3)[0] != 7 {
		t.Fatal("a miss beside a shared page disturbed a page")
	}
	if _, err := r.RestoreFrom(dev, 4*chunkPages); err == nil {
		t.Fatal("RestoreFrom past the end succeeded")
	}
	if dev.reads != 1 || !dev.intact() || c.Now() != stored {
		t.Fatalf("%d device reads and clock %v, want one read, an unchanged image and no region-side charge", dev.reads, c.Now())
	}
}

// TestTakeOverReusesChunks: a region reboots into its predecessor's
// full-size chunks and its table of shared images. The predecessor then
// reads as never written. The restore allocates nothing and backs no
// chunk; the first store into a chunk backs it with a spare, allocating
// nothing, and the chunk shows the shared images, the store and zeros
// elsewhere — never the stale bytes; the short last chunk is allocated
// as ever. A first store into a shared page
// copies the image in and leaves the device's image as it was. With the
// spares used up, a first store allocates a fresh chunk.
func TestTakeOverReusesChunks(t *testing.T) {
	const ps = 4096
	prev, _ := newTestRegion(t, (chunkPages+3)*ps, ps)
	if err := prev.WriteAt(bytes.Repeat([]byte{0xA5}, int(prev.Size())), 0); err != nil {
		t.Fatal(err)
	}
	held := bytes.Repeat([]byte{7}, ps)
	dev := newMapReader(map[mmu.PageID][]byte{2: held, 5: held, chunkPages + 1: held})
	if ok, err := prev.RestoreFrom(dev, chunkPages+1); !ok || err != nil {
		t.Fatalf("RestoreFrom into the predecessor = %v, %v", ok, err)
	}
	r, _ := newTestRegion(t, (2*chunkPages+3)*ps, ps)
	bigger, _ := newTestRegion(t, (2*chunkPages+3)*ps, ps)
	bigger.RestoreFrom(dev, 2)
	table := &bigger.shared[0]
	r.TakeOver(bigger) // its table, no chunk
	r.TakeOver(prev)   // its chunk; its table is the wrong length
	if len(r.spares) != 1 || r.shared == nil || &r.shared[0] != table || r.Backed(2) {
		t.Fatalf("%d spares taken over, want the one full-size chunk and not the short last one; the table must be handed on emptied", len(r.spares))
	}
	for _, old := range []*Region{prev, bigger} {
		for p := 0; p < old.NumPages(); p++ {
			if old.Backed(mmu.PageID(p)) || !bytes.Equal(old.RawPage(mmu.PageID(p)), make([]byte, ps)) {
				t.Fatalf("page %d of a region taken over is backed or non-zero", p)
			}
		}
	}
	if got := allocated(func() {
		for _, p := range []mmu.PageID{2, 3, 5} {
			r.RestoreFrom(dev, p)
		}
	}); got != 0 || r.chunks[0] != nil {
		t.Fatalf("a restore into a handed-on table allocated %d bytes or backed a chunk", got)
	}
	if err := r.WriteAt([]byte{1}, (2*chunkPages+1)*ps); err != nil {
		t.Fatal(err)
	}
	if len(r.spares) != 1 || len(r.chunks[2]) != 3*ps {
		t.Fatal("the short last chunk took a spare")
	}
	spare := &r.spares[0][0]
	if got := allocated(func() {
		if err := r.WriteAt([]byte{1}, 3*ps+10); err != nil {
			t.Fatal(err)
		}
	}); got >= ps || &r.chunks[0][0] != spare || len(r.spares) != 0 {
		t.Fatalf("the first store into chunk 0 allocated %d bytes or did not take the spare", got)
	}
	for p := 0; p < chunkPages; p++ {
		want := make([]byte, ps)
		switch p {
		case 2, 5:
			want = held
		case 3:
			want[10] = 1
		}
		if !bytes.Equal(r.RawPage(mmu.PageID(p)), want) {
			t.Fatalf("page %d of a chunk backed by a spare: want the device's image, the store or zeros", p)
		}
	}
	if &r.RawPage(2)[0] != &held[0] {
		t.Fatal("a store beside a shared page copied it in")
	}
	if err := r.WriteAt([]byte{9}, 2*ps+100); err != nil {
		t.Fatal(err)
	}
	want := bytes.Clone(held)
	want[100] = 9
	if !bytes.Equal(r.RawPage(2), want) || &r.RawPage(2)[0] == &held[0] || !dev.intact() {
		t.Fatal("the first store into a shared page must copy the image in, store the byte and leave the device's image alone")
	}
	if got := allocated(func() {
		if err := r.WriteAt([]byte{1}, (chunkPages+5)*ps); err != nil {
			t.Fatal(err)
		}
	}); got < chunkPages*ps {
		t.Fatalf("with no spare left a first store allocated %d bytes, want a fresh chunk", got)
	}
}

// TestTakeOverKeepsOneSparePerChunk: a region that takes over more full
// chunks than it has chunks — a reboot's predecessor and the regions of
// the Systems it retires — keeps one spare per chunk, and every region
// it took over reads as never written.
func TestTakeOverKeepsOneSparePerChunk(t *testing.T) {
	const ps = 4096
	r, _ := newTestRegion(t, 2*chunkPages*ps, ps)
	var olds []*Region
	for i := 0; i < 3; i++ {
		old, _ := newTestRegion(t, 2*chunkPages*ps, ps)
		if err := old.WriteAt(bytes.Repeat([]byte{0xA5}, int(old.Size())), 0); err != nil {
			t.Fatal(err)
		}
		r.TakeOver(old)
		olds = append(olds, old)
	}
	if len(r.spares) != 2 {
		t.Fatalf("%d spares after taking over six full chunks, want one per chunk of the region (2)", len(r.spares))
	}
	for _, old := range olds {
		if old.Backed(0) || old.Backed(chunkPages) {
			t.Fatal("a region taken over is still backed")
		}
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

// TestNewOnRetiredRegion: a region built on a retired one of the same
// size (Config.Retired) takes its chunk table and zero page as they are
// and takes it over at once: the chunk buffers the table held become
// spares, cleared before they back a page, so the new region reads as
// never written, and a first store reuses a spare instead of allocating.
func TestNewOnRetiredRegion(t *testing.T) {
	const ps = 4096
	old, _ := newTestRegion(t, (2*chunkPages+3)*ps, ps)
	if err := old.WriteAt(bytes.Repeat([]byte{0xA5}, int(old.Size())), 0); err != nil {
		t.Fatal(err)
	}
	table, zero := &old.chunks[0], &old.zero[0]
	r, err := New(sim.NewClock(), Config{Size: old.Size(), PageSize: ps, Retired: old})
	if err != nil {
		t.Fatal(err)
	}
	if &r.chunks[0] != table || &r.zero[0] != zero || old.chunks != nil {
		t.Fatal("the region was not built on the retired region's chunk table and zero page, or shares them with it")
	}
	if len(r.spares) != 2 {
		t.Fatalf("%d spares, want the retired region's two full chunks", len(r.spares))
	}
	for p := 0; p < r.NumPages(); p++ {
		if r.Backed(mmu.PageID(p)) || !bytes.Equal(r.RawPage(mmu.PageID(p)), make([]byte, ps)) {
			t.Fatalf("page %d of the new region is backed or shows the retired region's bytes", p)
		}
	}
	if got := allocated(func() {
		if err := r.WriteAt([]byte{1}, 3*ps+10); err != nil {
			t.Fatal(err)
		}
	}); got >= ps || len(r.spares) != 1 {
		t.Fatalf("a first store allocated %d bytes with a spare on hand", got)
	}
	want := make([]byte, ps)
	want[10] = 1
	for p := 0; p < chunkPages; p++ {
		if p == 3 && !bytes.Equal(r.RawPage(3), want) || p != 3 && !bytes.Equal(r.RawPage(mmu.PageID(p)), make([]byte, ps)) {
			t.Fatalf("page %d of the chunk a spare backs shows a stale byte", p)
		}
	}
}
