// Quickstart: the smallest end-to-end Viyojit program.
//
// It provisions battery-backed DRAM whose battery only covers a fraction
// of the capacity, writes durable data through the mmap-like API, cuts
// the power, and recovers — showing that the whole region is durable even
// though the battery is small. Last, like munmap and mmap again, it
// detaches the mapping and maps it anew, and checks the bytes are still
// there; it exits non-zero if they are not.
//
// Run with:
//
//	go run ./examples/quickstart
package main

import (
	"bytes"
	"fmt"
	"log"

	"viyojit"
)

func main() {
	// 64 MiB of NV-DRAM with the default battery: enough energy to flush
	// ~12.5 % of it on power failure.
	sys, err := viyojit.New(viyojit.Config{NVDRAMSize: 64 << 20})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("dirty budget: %d pages for a %d-page region\n",
		sys.DirtyBudget(), 64<<20/4096)

	// Map a persistent region, just like mmap.
	m, err := sys.Map("my-data", 1<<20)
	if err != nil {
		log.Fatal(err)
	}

	// Writes run at DRAM speed; the first write to each page traps into
	// the manager, which tracks it against the budget.
	if err := m.WriteAt([]byte("hello, durable world"), 0); err != nil {
		log.Fatal(err)
	}
	sys.Pump() // let background work (epoch ticks, IO) run

	// Power failure: the dirty set — bounded by the budget — is flushed
	// on battery energy.
	report := sys.SimulatePowerFailure()
	fmt.Printf("power failed: flushed %d pages in %v, survived=%v\n",
		report.PagesFlushed, report.FlushTime, report.Survived)

	// Reboot: NV-DRAM reloads from the SSD and the data is back.
	recovered, restore, err := sys.Recover()
	if err != nil {
		log.Fatal(err)
	}
	m2, err := recovered.Map("my-data", 1<<20)
	if err != nil {
		log.Fatal(err)
	}
	buf := make([]byte, 20)
	if err := m2.ReadAt(buf, 0); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("recovered %d pages in %v; data: %q\n",
		restore.PagesRestored, restore.RestoreTime, buf)

	// Unmap cleans the mapping's dirty pages to the SSD and releases its
	// range; mapping the name again reads the same bytes.
	if err := recovered.Unmap(m2); err != nil {
		log.Fatal(err)
	}
	m3, err := recovered.Map("my-data", 1<<20)
	if err != nil {
		log.Fatal(err)
	}
	again := make([]byte, len(buf))
	if err := m3.ReadAt(again, 0); err != nil {
		log.Fatal(err)
	}
	if !bytes.Equal(again, buf) {
		log.Fatalf("re-mapped data %q, want %q", again, buf)
	}
	fmt.Printf("unmapped and re-mapped; data: %q\n", again)
}
