// Package nvdram models a byte-addressable battery-backed DRAM region on
// top of the software MMU. Reads and writes go through the page table, so
// write-protection faults, dirty-bit updates, and TLB behaviour all apply,
// exactly as they would for an mmap'ed NV-DRAM region in the paper's
// implementation.
//
// The region costs the host what it holds, not what it could hold. New
// allocates the page table and TLB index (or recycles a retired region's,
// Config.Retired), a table of chunk pointers and one zero page — no data
// bytes. A chunk of chunkPages pages is backed by
// the first store into it (WriteAt, RestorePage) and lives as long as the
// region or until a successor takes it over (TakeOver); a read of a chunk
// nothing was ever stored into sees zeros and allocates nothing.
//
// A restore after a power cycle (RestoreFrom) copies nothing either: a
// restored page reads the device's stored image itself, which is
// immutable (ssd.ReadStream.SharePage), until the first store into the
// page copies the image into the region and drops the share. That is the
// paper's write-protected clean page (§4.2) at the byte layer: the first
// store after a reboot is the event that pays for the page, and a store
// that escaped the MMU trap would still land on the region's own copy.
//
// Virtual time, MMU state and every byte a caller can observe are those of
// a flat array of Size zero bytes — and a region that was taken over
// reads as that array before any store or restore, as DRAM that lost
// power.
package nvdram

import (
	"fmt"

	"viyojit/internal/mmu"
	"viyojit/internal/sim"
)

// DefaultPageSize is the x86-64 base page size used throughout the paper.
const DefaultPageSize = 4096

// chunkPages is how many pages one host allocation backs: 256 KiB at the
// default page size. Backing page by page would cost the first stores
// after a reboot one allocation per page; a power of two keeps the chunk
// lookup a shift and a mask of the page number.
const chunkPages = 64

// Config describes an NV-DRAM region.
type Config struct {
	// Size is the region size in bytes. It must be a positive multiple of
	// PageSize.
	Size int64
	// PageSize is the tracking granularity; 0 selects DefaultPageSize.
	PageSize int
	// TLBEntries bounds the MMU's TLB model; 0 selects the MMU default.
	TLBEntries int
	// Costs is the MMU cost model; the zero value selects
	// mmu.DefaultCosts.
	Costs mmu.Costs
	// Retired, if set, is a region a reboot retires. If the page counts
	// and sizes match, the new region is built on its tables: the page
	// table on its arrays (mmu.PageTable.Recycle), and its chunk table and
	// zero page as they are; it takes Retired over (TakeOver) at once.
	Retired *Region
}

// copyNanosPer4KiB is the virtual-time cost of moving 4 KiB of data
// between a buffer and the region (DRAM bandwidth, ≈10 GB/s). Other page
// sizes and partial-page transfers are charged proportionally.
const copyNanosPer4KiB = 400

// Region is an NV-DRAM region: backing bytes plus the page table that
// mediates access to them. It is not safe for concurrent use.
type Region struct {
	clock *sim.Clock
	pt    *mmu.PageTable
	// chunks[page/chunkPages] backs chunkPages consecutive pages (the last
	// chunk as many as are left); nil until the first store into it.
	chunks [][]byte
	// shared[page] is the device image page reads as until the first
	// store into it (RestoreFrom, own); nil where the page reads its
	// chunk. The table is nil until the first restore and passes to the
	// region that reboots this one (TakeOver), so a chain of reboots
	// allocates it once.
	shared [][]byte
	// spares are full-size chunk buffers taken over from the region this
	// one reboots (TakeOver), holding its stale bytes until first stores
	// back chunks with them (back) or a successor takes them over.
	spares      [][]byte
	zero        []byte // what RawPage shows of an unbacked page; never written
	size        int64
	pageSize    int
	copyPerPage sim.Duration
}

// New creates an NV-DRAM region. All pages start writable and clean; a
// Viyojit manager write-protects them before exposing the region (paper
// §5.1 step 1).
func New(clock *sim.Clock, cfg Config) (*Region, error) {
	ps := cfg.PageSize
	if ps == 0 {
		ps = DefaultPageSize
	}
	if ps <= 0 {
		return nil, fmt.Errorf("nvdram: page size %d must be positive", cfg.PageSize)
	}
	if cfg.Size <= 0 || cfg.Size%int64(ps) != 0 {
		return nil, fmt.Errorf("nvdram: size %d must be a positive multiple of page size %d", cfg.Size, ps)
	}
	costs := cfg.Costs
	if costs == (mmu.Costs{}) {
		costs = mmu.DefaultCosts()
	}
	numPages := int(cfg.Size / int64(ps))
	r := &Region{
		clock:       clock,
		size:        cfg.Size,
		pageSize:    ps,
		copyPerPage: sim.Duration(copyNanosPer4KiB*int64(ps)) / 4096 * sim.Nanosecond,
	}
	if old := cfg.Retired; old != nil && old.size == cfg.Size && old.pageSize == ps {
		// TakeOver moves old's chunk buffers to r's spares and clears the
		// chunk table r shares with it until old lets it go.
		r.pt = old.pt.Recycle(clock, costs, cfg.TLBEntries)
		r.chunks, r.zero = old.chunks, old.zero
		r.TakeOver(old)
		old.chunks, old.zero = nil, nil
		return r, nil
	}
	r.pt = mmu.NewPageTable(clock, costs, numPages, cfg.TLBEntries)
	r.chunks = make([][]byte, (numPages+chunkPages-1)/chunkPages)
	r.zero = make([]byte, ps)
	return r, nil
}

// Size returns the region size in bytes.
func (r *Region) Size() int64 { return r.size }

// PageSize returns the tracking granularity in bytes.
func (r *Region) PageSize() int { return r.pageSize }

// NumPages returns the number of pages in the region.
func (r *Region) NumPages() int { return r.pt.NumPages() }

// PageTable exposes the underlying page table; the Viyojit manager uses it
// to protect pages and scan dirty bits.
func (r *Region) PageTable() *mmu.PageTable { return r.pt }

// PageOf returns the page containing byte offset off.
func (r *Region) PageOf(off int64) mmu.PageID {
	return mmu.PageID(off / int64(r.pageSize))
}

func (r *Region) checkRange(off int64, n int) error {
	if off < 0 || n < 0 || off+int64(n) > r.size {
		return fmt.Errorf("nvdram: range [%d, %d) outside region of %d bytes", off, off+int64(n), r.size)
	}
	return nil
}

// Backed reports whether page reads anything but zeros by construction:
// a shared device image (RestoreFrom), or a chunk stored into since the
// region was made or taken over. A page that is not backed reads as
// zeros.
func (r *Region) Backed(page mmu.PageID) bool {
	return r.view(page) != nil
}

// view returns the bytes page reads as: its shared image, its slice of a
// backed chunk, or nil for a page that is not backed. With no shared
// table — a region never restored into — it costs one nil check more than
// the chunk lookup. The caller has range-checked page.
func (r *Region) view(page mmu.PageID) []byte {
	if r.shared != nil {
		if img := r.shared[page]; img != nil {
			return img
		}
	}
	if c := r.chunks[page/chunkPages]; c != nil {
		i := r.pageStart(page)
		return c[i : i+r.pageSize]
	}
	return nil
}

// own returns page's bytes in its chunk for a store, backing the chunk
// first if nothing backs it. A page that still reads a shared image gets
// the image copied in and the share dropped, so the store lands on the
// region's own copy, never on the device's buffer. Every byte store into
// the region goes through here. The caller has range-checked page.
func (r *Region) own(page mmu.PageID) []byte {
	ci := int(page / chunkPages)
	c := r.chunks[ci]
	if c == nil {
		c = r.back(ci)
	}
	i := r.pageStart(page)
	dst := c[i : i+r.pageSize]
	if r.shared != nil {
		if img := r.shared[page]; img != nil {
			copy(dst, img)
			r.shared[page] = nil
		}
	}
	return dst
}

// back backs chunk ci for a first store: with a spare (TakeOver) if the
// chunk is full-size and one is left, else with a fresh allocation. A
// spare's pages are cleared except those that read a shared image, which
// own fills before a store can reach them, so the chunk reads as a fresh
// one would and no byte DRAM lost at the power cut shows through.
func (r *Region) back(ci int) []byte {
	var c []byte
	if n := len(r.spares); n > 0 && r.chunkLen(ci) == chunkPages*r.pageSize {
		c = r.spares[n-1]
		r.spares[n-1] = nil
		r.spares = r.spares[:n-1]
		for i := 0; i < chunkPages; i++ {
			if r.shared == nil || r.shared[ci*chunkPages+i] == nil {
				clear(c[i*r.pageSize : (i+1)*r.pageSize])
			}
		}
	} else {
		c = make([]byte, r.chunkLen(ci))
	}
	r.chunks[ci] = c
	return c
}

// chunkLen is the byte length of chunk ci: chunkPages pages, the last chunk
// as many as are left.
func (r *Region) chunkLen(ci int) int {
	return min(r.NumPages()-ci*chunkPages, chunkPages) * r.pageSize
}

// pageStart is where page starts in its chunk.
func (r *Region) pageStart(page mmu.PageID) int {
	return int(page%chunkPages) * r.pageSize
}

// chargeCopy charges DRAM-bandwidth time for moving n bytes.
func (r *Region) chargeCopy(n int) {
	if n <= 0 {
		return
	}
	d := sim.Duration(int64(r.copyPerPage) * int64(n) / int64(r.pageSize))
	r.clock.Advance(d)
}

// WriteAt stores p at byte offset off. Each page the write touches goes
// through the MMU write path: a protected page faults to the registered
// handler before the bytes land. The error, if any, comes from an
// unresolved protection fault or an out-of-range access; on error no
// caller-visible guarantee is made about partially written pages.
func (r *Region) WriteAt(p []byte, off int64) error {
	if err := r.checkRange(off, len(p)); err != nil {
		return err
	}
	for len(p) > 0 {
		page := r.PageOf(off)
		pageOff := int(off % int64(r.pageSize))
		n := r.pageSize - pageOff
		if n > len(p) {
			n = len(p)
		}
		if err := r.pt.Write(page); err != nil {
			return fmt.Errorf("nvdram: write at offset %d: %w", off, err)
		}
		copy(r.own(page)[pageOff:], p[:n])
		r.chargeCopy(n)
		p = p[n:]
		off += int64(n)
	}
	return nil
}

// ReadAt fills p from byte offset off. Reads never fault: Viyojit keeps
// every page readable at DRAM latency (paper §4.2).
func (r *Region) ReadAt(p []byte, off int64) error {
	if err := r.checkRange(off, len(p)); err != nil {
		return err
	}
	for len(p) > 0 {
		page := r.PageOf(off)
		pageOff := int(off % int64(r.pageSize))
		n := r.pageSize - pageOff
		if n > len(p) {
			n = len(p)
		}
		r.pt.Read(page)
		if v := r.view(page); v != nil {
			copy(p[:n], v[pageOff:])
		} else {
			clear(p[:n])
		}
		r.chargeCopy(n)
		p = p[n:]
		off += int64(n)
	}
	return nil
}

// CopyPage copies the page's current contents into dst, which must be one
// page long. It is the transfer path used when a page is written out to
// the SSD (dst is then a device buffer, ssd.SSD.PageBuffer); the copy
// cost is charged to the clock.
func (r *Region) CopyPage(page mmu.PageID, dst []byte) {
	start := int64(page) * int64(r.pageSize)
	if err := r.checkRange(start, r.pageSize); err != nil {
		panic(err)
	}
	if len(dst) != r.pageSize {
		panic(fmt.Sprintf("nvdram: copy of page %d into %d bytes, want %d", page, len(dst), r.pageSize))
	}
	copy(dst, r.RawPage(page))
	r.chargeCopy(r.pageSize)
}

// RestorePage overwrites a page's contents without going through the MMU
// write path: the recovery flow uses it to reload durable contents from
// the SSD after a power cycle, where the restored page is by definition
// clean and must not enter the dirty set. Copy bandwidth is charged.
func (r *Region) RestorePage(page mmu.PageID, data []byte) error {
	if len(data) != r.pageSize {
		return fmt.Errorf("nvdram: restore of %d bytes to page of %d", len(data), r.pageSize)
	}
	start := int64(page) * int64(r.pageSize)
	if err := r.checkRange(start, r.pageSize); err != nil {
		return err
	}
	copy(r.own(page), data)
	r.chargeCopy(r.pageSize)
	return nil
}

// PageReader is the durable device a page is reloaded from: it returns
// its stored image of page, charging its own read, and reports whether it
// had one (*ssd.ReadStream). The image is shared, not copied: it must
// stay unchanged for as long as anything reads it.
type PageReader interface {
	SharePage(page mmu.PageID) ([]byte, bool)
}

// TakeOver makes r the successor of prev, a region that lost power or
// whose system was retired: the DRAM a reboot reloads is the DRAM that
// lost its contents. prev's full-size chunk buffers, and the spares it
// never used, become r's spares, which first stores into r reuse instead
// of allocating (back), up to one spare per chunk of r, in prev's spare
// list itself when r has none; prev's shared-image table becomes r's,
// emptied, when r has none and the sizes match; and prev reads as never
// written from then on, sharing nothing. No page of r ever shows a
// spare's stale bytes.
func (r *Region) TakeOver(prev *Region) {
	full := chunkPages * r.pageSize
	if r.spares == nil && prev.pageSize == r.pageSize && len(prev.spares) <= len(r.chunks) {
		// Every spare is full-size: take the list with the capacity it
		// grew to.
		r.spares, prev.spares = prev.spares, nil
	}
	for _, cs := range [][][]byte{prev.chunks, prev.spares} {
		for _, c := range cs {
			if len(c) == full && len(r.spares) < len(r.chunks) {
				r.spares = append(r.spares, c)
			}
		}
	}
	clear(prev.chunks)
	prev.spares = nil
	if r.shared == nil && len(prev.shared) == r.NumPages() {
		clear(prev.shared)
		r.shared = prev.shared
	}
	prev.shared = nil
}

// RestoreFrom reloads page from src: the recovery flow's reload of durable
// contents after a power cycle. The page reads src's stored image from
// then on, by reference, until the first store into it copies the image
// into the region (own); nothing is copied or backed here. It bypasses
// the MMU write path, since a restored page is by definition clean and
// must not enter the dirty set, and only src's read is charged: the
// DRAM-side transfer is DMA that overlaps the slower device read, as in
// the power-fail flush. It reports whether src had contents for the page;
// a page it has nothing for is left as it was.
func (r *Region) RestoreFrom(src PageReader, page mmu.PageID) (bool, error) {
	if err := r.checkRange(int64(page)*int64(r.pageSize), r.pageSize); err != nil {
		return false, err
	}
	img, ok := src.SharePage(page)
	if !ok {
		return false, nil
	}
	if len(img) != r.pageSize {
		return false, fmt.Errorf("nvdram: restore of a %d-byte image to page of %d", len(img), r.pageSize)
	}
	if r.shared == nil {
		r.shared = make([][]byte, r.NumPages())
	}
	r.shared[page] = img
	return true, nil
}

// Shares reports whether page reads img, a device image, by reference
// (RestoreFrom): what a device object checks before it hands a buffer it
// lent out again (ssd.SSD.Retire).
func (r *Region) Shares(page mmu.PageID, img []byte) bool {
	if page >= mmu.PageID(len(r.shared)) {
		return false
	}
	s := r.shared[page]
	return s != nil && &s[0] == &img[0]
}

// RawPage returns a read-only view of a page's current bytes without
// charging time or touching MMU state: the shared device image of a
// restored page nothing has stored into, the live backing bytes of a
// backed page, and for a page that is not backed a zero page shared by
// every such page of the region. Nobody may store through it — a store
// through the zero page would show in every unbacked page, one through a
// shared image would change the device's stored copy, and a store is
// what the MMU exists to see. It is for durability verification and the
// streaming power-fail backup (whose device write copies the bytes), not
// for application access.
func (r *Region) RawPage(page mmu.PageID) []byte {
	if int(page) >= r.NumPages() || int(page) < 0 {
		panic(fmt.Sprintf("nvdram: page %d outside region of %d pages", page, r.NumPages()))
	}
	if v := r.view(page); v != nil {
		return v
	}
	return r.zero
}

// DurableStore is the device a region's pages are checked against
// (*ssd.SSD): whether it holds a copy of a page, and whether live bytes are
// what a restore of the page from it would reproduce.
type DurableStore interface {
	Durable(page mmu.PageID) ([]byte, bool)
	CheckRestorable(page mmu.PageID, live []byte) error
}

// CheckRestorable is the per-page durability invariant for page:
// dev.CheckRestorable over the page's bytes. A page that is not backed and
// that dev holds no copy of satisfies it by construction — it is all zero
// and a restore would leave it so — and is not compared with a page of
// zeros to find that out. Every other page is compared byte for byte: a
// page of a backed chunk whether or not anything was stored into that
// page, a shared page, and an unbacked page dev has a copy of. A shared
// page whose image is still dev's stored buffer is the same memory on
// both sides, and the compare returns at the first pointer check.
func (r *Region) CheckRestorable(dev DurableStore, page mmu.PageID) error {
	if !r.Backed(page) {
		if _, durable := dev.Durable(page); !durable {
			return nil
		}
	}
	return dev.CheckRestorable(page, r.RawPage(page))
}
