package recovery

import (
	"bytes"
	"slices"
	"testing"

	"viyojit/internal/mmu"
	"viyojit/internal/nvdram"
	"viyojit/internal/sim"
	"viyojit/internal/ssd"
)

// referenceRestore is the restore walk as it stood before RestoreVerified
// — verify on the survivor, look the bytes up, seed the new device (which
// recomputes the sum), read them back out with the charge, copy them into
// the region — kept as the model the one-pass walk is held to.
func referenceRestore(region *nvdram.Region, dev, src *ssd.SSD) (RestoreReport, error) {
	var report RestoreReport
	for _, page := range src.DurablePageList() {
		report.Integrity.PagesVerified++
		if src.VerifyPage(page) != nil {
			report.Integrity.Quarantined = append(report.Integrity.Quarantined, page)
			continue
		}
		data, ok := src.Durable(page)
		if !ok {
			continue
		}
		dev.SeedDurable(page, data)
		if err := region.RestorePage(page, dev.ReadPage(page)); err != nil {
			return RestoreReport{}, err
		}
		report.PagesRestored++
	}
	return report, nil
}

// oneFault injects one decision into the next write, then none.
type oneFault struct {
	decision ssd.FaultDecision
	spent    bool
}

func (f *oneFault) WriteFault(mmu.PageID, []byte) ssd.FaultDecision {
	if f.spent {
		return ssd.FaultDecision{}
	}
	f.spent = true
	return f.decision
}

// damagedDevice builds the survivor of a power cycle from seed: n pages
// of random contents, of which one has rotted at rest, one kept stale
// bytes under a lost overwrite, one was the victim of a misdirected
// write, and one more — beyond the n — is store-less: a lost first write,
// acked with nothing behind it.
func damagedDevice(t *testing.T, seed uint64, n int) *ssd.SSD {
	t.Helper()
	rng := sim.NewRNG(seed)
	image := func() []byte {
		p := make([]byte, 4096)
		for i := range p {
			p[i] = byte(rng.Uint64())
		}
		return p
	}
	dev := ssd.New(sim.NewClock(), sim.NewQueue(), ssd.Config{})
	write := func(page mmu.PageID, fault ssd.WriteFault) {
		dev.SetFaultInjector(&oneFault{decision: ssd.FaultDecision{Fault: fault, MisdirectSeed: rng.Uint64()}})
		if _, err := dev.WritePageSync(page, image()); err != nil {
			t.Fatalf("write %d: %v", page, err)
		}
	}
	for p := 0; p < n; p++ {
		write(mmu.PageID(p), ssd.FaultNone)
	}
	victims := rng.Perm(n)
	dev.CorruptPage(mmu.PageID(victims[0]), rng.Intn(4096), byte(1+rng.Intn(255)))
	write(mmu.PageID(victims[1]), ssd.FaultLost)
	write(mmu.PageID(victims[2]), ssd.FaultMisdirected)
	write(mmu.PageID(n+1), ssd.FaultLost)
	dev.SetFaultInjector(nil)
	return dev
}

// TestRestoreVerifiedMatchesReference: over seeded durable sets that
// include every silent-fault class, the one-pass walk and the reference
// leave identical region bytes, identical new-device contents and sums,
// the same quarantine list, and charge and count exactly the same.
func TestRestoreVerifiedMatchesReference(t *testing.T) {
	const n = 24
	regionCfg := nvdram.Config{Size: (n + 4) * 4096}
	for seed := uint64(1); seed <= 8; seed++ {
		type side struct {
			clock  *sim.Clock
			region *nvdram.Region
			dev    *ssd.SSD
			src    *ssd.SSD
			report RestoreReport
		}
		build := func() *side {
			s := &side{clock: sim.NewClock(), src: damagedDevice(t, seed, n)}
			var err error
			if s.region, err = nvdram.New(s.clock, regionCfg); err != nil {
				t.Fatal(err)
			}
			s.dev = ssd.New(s.clock, sim.NewQueue(), ssd.Config{})
			return s
		}
		ref, got := build(), build()
		var err error
		if ref.report, err = referenceRestore(ref.region, ref.dev, ref.src); err != nil {
			t.Fatalf("seed %d: reference: %v", seed, err)
		}
		if got.report, err = RestoreVerified(got.clock, got.region, got.dev, got.src, nil); err != nil {
			t.Fatalf("seed %d: RestoreVerified: %v", seed, err)
		}

		if got.report.PagesRestored != ref.report.PagesRestored ||
			got.report.Integrity.PagesVerified != ref.report.Integrity.PagesVerified ||
			!slices.Equal(got.report.Integrity.Quarantined, ref.report.Integrity.Quarantined) ||
			len(got.report.Integrity.Repaired) != 0 {
			t.Fatalf("seed %d: report %+v, reference %+v", seed, got.report, ref.report)
		}
		// rot + lost overwrite + misdirected (intended and victim, which
		// may coincide with another casualty) + the store-less page.
		if q := len(got.report.Integrity.Quarantined); q < 4 || q > 5 {
			t.Fatalf("seed %d: %d pages quarantined, want 4 or 5: %v", seed, q, got.report.Integrity.Quarantined)
		}
		if got.clock.Now() != ref.clock.Now() || got.report.RestoreTime != sim.Duration(ref.clock.Now()) {
			t.Fatalf("seed %d: restore charged %v (reported %v), reference %v", seed, got.clock.Now(), got.report.RestoreTime, ref.clock.Now())
		}
		if got.dev.Stats() != ref.dev.Stats() || got.src.Stats() != ref.src.Stats() {
			t.Fatalf("seed %d: counters differ:\nnew device %+v\nreference  %+v\nsurvivor   %+v\nreference  %+v",
				seed, got.dev.Stats(), ref.dev.Stats(), got.src.Stats(), ref.src.Stats())
		}
		for p := 0; p < got.region.NumPages(); p++ {
			page := mmu.PageID(p)
			if !bytes.Equal(got.region.RawPage(page), ref.region.RawPage(page)) {
				t.Fatalf("seed %d: region page %d differs from the reference restore", seed, page)
			}
			gd, gok := got.dev.Durable(page)
			rd, rok := ref.dev.Durable(page)
			gs, gsok := got.dev.DurableChecksum(page)
			rs, rsok := ref.dev.DurableChecksum(page)
			if gok != rok || gsok != rsok || !bytes.Equal(gd, rd) || gs != rs {
				t.Fatalf("seed %d: new device's page %d differs from the reference (stored %v/%v, sum %#x/%#x)", seed, page, gok, rok, gs, rs)
			}
			if gok {
				if sd, _ := got.src.Durable(page); &gd[0] == &sd[0] {
					t.Fatalf("seed %d: page %d shares its bytes with the survivor", seed, page)
				}
			}
		}
		// No laundering: what failed on the survivor never reaches the
		// new device, not as bytes and not as a claim.
		for _, page := range got.report.Integrity.Quarantined {
			if _, ok := got.dev.Durable(page); ok {
				t.Fatalf("seed %d: quarantined page %d was carried to the new device", seed, page)
			}
			if _, ok := got.dev.DurableChecksum(page); ok {
				t.Fatalf("seed %d: quarantined page %d left a checksum on the new device", seed, page)
			}
			if !bytes.Equal(got.region.RawPage(page), make([]byte, 4096)) {
				t.Fatalf("seed %d: quarantined page %d has bytes in the region", seed, page)
			}
		}
		if err := VerifyRestoredWith(got.region, got.dev, got.report.Integrity); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}
