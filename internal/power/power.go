// Package power models the server's power draw during a backup flush. The
// dirty budget is derived from it: battery joules divided by flush-time
// watts gives the time the server can run after a power loss, and that
// time multiplied by a conservative SSD write bandwidth gives the number
// of bytes — hence pages — that may be dirty (paper §5.1).
package power

import (
	"fmt"

	"viyojit/internal/sim"
)

// Model is the component power model. Watts are drawn while the server is
// flushing NV-DRAM to the SSD after a power-loss event.
type Model struct {
	// BaseWatts covers the board, fans, and power-conversion overhead.
	BaseWatts float64
	// CPUWatts is the processor draw during the flush (the flush loop is
	// memory-bound, so this is below peak CPU power).
	CPUWatts float64
	// DRAMWattsPerGiB is DRAM refresh+access power per GiB installed.
	DRAMWattsPerGiB float64
	// SSDWatts is the backing device's active-write draw.
	SSDWatts float64
}

// Default returns a model calibrated so a 4 TB-DRAM server draws roughly
// the paper's "modest 300 W" during a flush (§2.2's worked example).
func Default() Model {
	return Model{
		BaseWatts:       60,
		CPUWatts:        90,
		DRAMWattsPerGiB: 0.03,
		SSDWatts:        25,
	}
}

// FlushWatts returns total draw for a server with dramBytes of DRAM
// installed.
func (m Model) FlushWatts(dramBytes int64) float64 {
	gib := float64(dramBytes) / (1 << 30)
	return m.BaseWatts + m.CPUWatts + m.SSDWatts + m.DRAMWattsPerGiB*gib
}

// FlushTime returns how long writing flushBytes at writeBandwidth
// bytes/sec takes.
func FlushTime(flushBytes, writeBandwidth int64) sim.Duration {
	if writeBandwidth <= 0 {
		panic(fmt.Sprintf("power: non-positive write bandwidth %d", writeBandwidth))
	}
	// Float math avoids int64 overflow for terabyte-scale flushes.
	seconds := float64(flushBytes) / float64(writeBandwidth)
	return sim.Duration(seconds * float64(sim.Second))
}

// FlushEnergyJoules returns the energy needed to keep a server with
// dramBytes of DRAM running while flushBytes are written to the SSD at
// writeBandwidth bytes/sec. This is the quantity a full-battery NV-DRAM
// system must provision for the entire DRAM, and that Viyojit provisions
// only for the dirty budget.
func (m Model) FlushEnergyJoules(flushBytes, writeBandwidth, dramBytes int64) float64 {
	return m.FlushWatts(dramBytes) * FlushTime(flushBytes, writeBandwidth).Seconds()
}
