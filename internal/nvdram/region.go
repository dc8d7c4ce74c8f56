// Package nvdram models a byte-addressable battery-backed DRAM region on
// top of the software MMU. Reads and writes go through the page table, so
// write-protection faults, dirty-bit updates, and TLB behaviour all apply,
// exactly as they would for an mmap'ed NV-DRAM region in the paper's
// implementation.
//
// The region costs the host what it holds, not what it could hold. New
// allocates the page table, the TLB index, a table of chunk pointers and
// one zero page — no data bytes. A chunk of chunkPages pages is backed by
// the first store into it (WriteAt, RestorePage, RestoreChunkFrom of pages
// the device has) and lives as long as the region or until a successor
// takes it over (TakeOver); a read of a chunk nothing was ever stored into
// sees zeros and allocates nothing. Virtual time, MMU state and every byte
// a caller can observe are those of a flat array of Size zero bytes — and
// a region that was taken over reads as that array before any store, as
// DRAM that lost power.
package nvdram

import (
	"fmt"

	"viyojit/internal/mmu"
	"viyojit/internal/sim"
)

// DefaultPageSize is the x86-64 base page size used throughout the paper.
const DefaultPageSize = 4096

// chunkPages is how many pages one host allocation backs: 256 KiB at the
// default page size. Backing page by page would cost a reboot one
// allocation per restored page; a power of two keeps the chunk lookup a
// shift and a mask of the page number. RestoreChunkFrom keeps one bit per
// page of a chunk in a uint64, so it may not exceed 64.
const chunkPages = 64

var _ [64 - chunkPages]struct{} // compile-time check: chunkPages ≤ 64

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
	// spares are full-size chunk buffers taken over from the region this
	// one reboots (TakeOver), holding its stale bytes until a restore
	// reuses them or ReleaseSpares drops them.
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
	return &Region{
		clock:       clock,
		pt:          mmu.NewPageTable(clock, costs, numPages, cfg.TLBEntries),
		chunks:      make([][]byte, (numPages+chunkPages-1)/chunkPages),
		zero:        make([]byte, ps),
		size:        cfg.Size,
		pageSize:    ps,
		copyPerPage: sim.Duration(copyNanosPer4KiB*int64(ps)) / 4096 * sim.Nanosecond,
	}, nil
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

// Backed reports whether page's chunk has been stored into since the
// region was made or taken over. A page that is not backed reads as zeros.
func (r *Region) Backed(page mmu.PageID) bool {
	return r.chunks[page/chunkPages] != nil
}

// chunk returns the chunk a store into page lands in, backing it first if
// nothing has been stored there yet. The caller has range-checked page.
func (r *Region) chunk(page mmu.PageID) []byte {
	ci := r.ChunkOf(page)
	if c := r.chunks[ci]; c != nil {
		return c
	}
	r.chunks[ci] = make([]byte, r.chunkLen(ci))
	return r.chunks[ci]
}

// ChunkOf returns the index of the chunk page lies in: the pages one
// RestoreChunkFrom call reloads share it.
func (r *Region) ChunkOf(page mmu.PageID) int { return int(page / chunkPages) }

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
		copy(r.chunk(page)[r.pageStart(page)+pageOff:], p[:n])
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
		if c := r.chunks[page/chunkPages]; c != nil {
			copy(p[:n], c[r.pageStart(page)+pageOff:])
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
	copy(r.chunk(page)[r.pageStart(page):], data)
	r.chargeCopy(r.pageSize)
	return nil
}

// PageReader is the durable device a page is reloaded from: it fills dst
// with page's durable contents, charging its own read, and reports
// whether it had any (*ssd.ReadStream).
type PageReader interface {
	ReadPageInto(page mmu.PageID, dst []byte) bool
}

// TakeOver makes r the successor of prev, a region that lost power: the
// DRAM a reboot reloads is the DRAM that lost its contents. prev's
// full-size chunk buffers become r's spares, which RestoreChunkFrom reuses
// instead of allocating, and prev reads as never written from then on.
// No page of r ever shows a spare's stale bytes: a restore clears every
// page of a reused chunk that the device does not fill.
func (r *Region) TakeOver(prev *Region) {
	full := chunkPages * r.pageSize
	for _, c := range prev.chunks {
		if len(c) == full {
			r.spares = append(r.spares, c)
		}
	}
	clear(prev.chunks)
}

// ReleaseSpares drops the spares no restore reused, so that r pins no
// more of its predecessor's memory than the chunks it restored into.
func (r *Region) ReleaseSpares() { r.spares = nil }

// RestoreChunkFrom reloads pages, which all lie in one chunk (ChunkOf),
// from src, in the order given: the recovery flow's reload of durable
// contents after a power cycle. It bypasses the MMU write path, since a
// restored page is by definition clean and must not enter the dirty set.
// Each read lands straight in its page, and only src's reads are charged:
// the DRAM-side copy is DMA that overlaps the slower device transfer, as
// in the power-fail flush, so there is no serial copy time to add. It
// returns how many of the pages src had contents for.
//
// In a chunk that is already backed, a page src has nothing for is left
// as it was. A chunk that is not backed stays so unless src has one of
// its pages; it is then backed by a spare (TakeOver) if it is full-size
// and one is left, else by a fresh allocation. Every page of a reused
// spare that src did not fill is cleared, so the chunk reads exactly as a
// fresh one would — at the cost of clearing the pages nothing was
// restored into rather than all of them.
func (r *Region) RestoreChunkFrom(src PageReader, pages []mmu.PageID) (int, error) {
	if len(pages) == 0 {
		return 0, nil
	}
	ci := r.ChunkOf(pages[0])
	for _, page := range pages {
		if err := r.checkRange(int64(page)*int64(r.pageSize), r.pageSize); err != nil {
			return 0, err
		}
		if r.ChunkOf(page) != ci {
			return 0, fmt.Errorf("nvdram: chunk restore of pages %d and %d, which lie in different chunks", pages[0], page)
		}
	}
	c, spare := r.chunks[ci], false
	fresh := c == nil
	if fresh {
		if n := len(r.spares); n > 0 && r.chunkLen(ci) == chunkPages*r.pageSize {
			c, r.spares, spare = r.spares[n-1], r.spares[:n-1], true
		} else {
			c = make([]byte, r.chunkLen(ci))
		}
	}
	var filled uint64 // bit i: src filled page i of the chunk
	restored := 0
	for _, page := range pages {
		i := r.pageStart(page)
		if src.ReadPageInto(page, c[i:i+r.pageSize]) {
			filled |= 1 << (page % chunkPages)
			restored++
		}
	}
	switch {
	case !fresh:
	case restored == 0 && spare:
		r.spares = append(r.spares, c)
	case restored > 0:
		if spare {
			for i := 0; i < chunkPages; i++ {
				if filled&(1<<i) == 0 {
					clear(c[i*r.pageSize : (i+1)*r.pageSize])
				}
			}
		}
		r.chunks[ci] = c
	}
	return restored, nil
}

// RawPage returns a read-only view of a page's current bytes without
// charging time or touching MMU state: the live backing bytes of a backed
// page, and for a page that is not backed a zero page shared by every such
// page of the region. Nobody may store through it — a store through the
// zero page would show in every unbacked page, and a store is what the MMU
// exists to see. It is for durability verification and the streaming
// power-fail backup (whose device write copies the bytes), not for
// application access.
func (r *Region) RawPage(page mmu.PageID) []byte {
	c := r.chunks[page/chunkPages]
	if c == nil {
		if int(page) >= r.NumPages() {
			panic(fmt.Sprintf("nvdram: page %d outside region of %d pages", page, r.NumPages()))
		}
		return r.zero
	}
	i := r.pageStart(page)
	return c[i : i+r.pageSize]
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
// page, and an unbacked page dev has a copy of.
func (r *Region) CheckRestorable(dev DurableStore, page mmu.PageID) error {
	if !r.Backed(page) {
		if _, durable := dev.Durable(page); !durable {
			return nil
		}
	}
	return dev.CheckRestorable(page, r.RawPage(page))
}
