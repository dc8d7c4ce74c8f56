// Package nvdram models a byte-addressable battery-backed DRAM region on
// top of the software MMU. Reads and writes go through the page table, so
// write-protection faults, dirty-bit updates, and TLB behaviour all apply,
// exactly as they would for an mmap'ed NV-DRAM region in the paper's
// implementation.
package nvdram

import (
	"fmt"

	"viyojit/internal/mmu"
	"viyojit/internal/sim"
)

// DefaultPageSize is the x86-64 base page size used throughout the paper.
const DefaultPageSize = 4096

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
	// CopyPerPage is the virtual-time cost of moving one full page of
	// data between a buffer and the region (DRAM bandwidth). Partial-page
	// transfers are charged proportionally. 0 selects a default of 400 ns
	// per 4 KiB (≈10 GB/s).
	CopyPerPage sim.Duration
}

// Region is an NV-DRAM region: backing bytes plus the page table that
// mediates access to them. It is not safe for concurrent use.
type Region struct {
	clock       *sim.Clock
	pt          *mmu.PageTable
	data        []byte
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
	cpp := cfg.CopyPerPage
	if cpp == 0 {
		cpp = sim.Duration(400*int64(ps)) / DefaultPageSize * sim.Nanosecond
	}
	numPages := int(cfg.Size / int64(ps))
	return &Region{
		clock:       clock,
		pt:          mmu.NewPageTable(clock, costs, numPages, cfg.TLBEntries),
		data:        make([]byte, cfg.Size),
		pageSize:    ps,
		copyPerPage: cpp,
	}, nil
}

// Size returns the region size in bytes.
func (r *Region) Size() int64 { return int64(len(r.data)) }

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
	if off < 0 || n < 0 || off+int64(n) > int64(len(r.data)) {
		return fmt.Errorf("nvdram: range [%d, %d) outside region of %d bytes", off, off+int64(n), len(r.data))
	}
	return nil
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
		copy(r.data[off:off+int64(n)], p[:n])
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
		copy(p[:n], r.data[off:off+int64(n)])
		r.chargeCopy(n)
		p = p[n:]
		off += int64(n)
	}
	return nil
}

// PageData returns a copy of the page's current contents. It is the
// transfer path used when a page is written out to the SSD; the copy cost
// is charged to the clock.
func (r *Region) PageData(page mmu.PageID) []byte {
	start := int64(page) * int64(r.pageSize)
	if err := r.checkRange(start, r.pageSize); err != nil {
		panic(err)
	}
	buf := make([]byte, r.pageSize)
	copy(buf, r.data[start:start+int64(r.pageSize)])
	r.chargeCopy(r.pageSize)
	return buf
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
	copy(r.data[start:], data)
	r.chargeCopy(r.pageSize)
	return nil
}

// PageReader is the durable device a page is reloaded from: it fills dst
// with page's durable contents, charging its own read, and reports
// whether it had any (*ssd.ReadStream).
type PageReader interface {
	ReadPageInto(page mmu.PageID, dst []byte) bool
}

// RestorePageFrom is RestorePage with the device read landing straight in
// the page. Only src's read is charged: the DRAM-side copy is DMA that
// overlaps the slower device transfer, as in the power-fail flush, so
// there is no serial copy time to add. It reports whether src had
// contents for the page; a page it had none for is left as it was.
func (r *Region) RestorePageFrom(src PageReader, page mmu.PageID) (bool, error) {
	start := int64(page) * int64(r.pageSize)
	if err := r.checkRange(start, r.pageSize); err != nil {
		return false, err
	}
	return src.ReadPageInto(page, r.data[start:start+int64(r.pageSize)]), nil
}

// RawPage returns the live backing bytes of a page without charging time
// or touching MMU state. It exists for durability verification in tests
// and the power-failure checker, not for application access.
func (r *Region) RawPage(page mmu.PageID) []byte {
	start := int64(page) * int64(r.pageSize)
	return r.data[start : start+int64(r.pageSize)]
}
