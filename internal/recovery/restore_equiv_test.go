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
// recomputes the sum), read them back out one random IO at a time, copy
// them into the region — kept as the model the one-pass walk is held to
// for everything but the time charged, which is the stream's closed form.
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
func damagedDevice(t *testing.T, seed uint64, n int, cfg ssd.Config) *ssd.SSD {
	t.Helper()
	rng := sim.NewRNG(seed)
	image := func() []byte {
		p := make([]byte, 4096)
		for i := range p {
			p[i] = byte(rng.Uint64())
		}
		return p
	}
	dev := ssd.New(sim.NewClock(), sim.NewQueue(), cfg)
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
// the same quarantine list and the same counters; the walk charges the
// stream's closed form where the reference pays a command latency and a
// serial copy per page.
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
			s := &side{clock: sim.NewClock(), src: damagedDevice(t, seed, n, ssd.Config{})}
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
		if got.report, err = RestoreVerified(got.clock, got.region, got.dev, got.src); err != nil {
			t.Fatalf("seed %d: RestoreVerified: %v", seed, err)
		}

		if got.report.PagesRestored != ref.report.PagesRestored ||
			got.report.Integrity.PagesVerified != ref.report.Integrity.PagesVerified ||
			!slices.Equal(got.report.Integrity.Quarantined, ref.report.Integrity.Quarantined) {
			t.Fatalf("seed %d: report %+v, reference %+v", seed, got.report, ref.report)
		}
		// rot + lost overwrite + misdirected (intended and victim, which
		// may coincide with another casualty) + the store-less page.
		if q := len(got.report.Integrity.Quarantined); q < 4 || q > 5 {
			t.Fatalf("seed %d: %d pages quarantined, want 4 or 5: %v", seed, q, got.report.Integrity.Quarantined)
		}
		want := streamTime(got.dev.Config(), got.report.PagesRestored)
		if sim.Duration(got.clock.Now()) != want || got.report.RestoreTime != want {
			t.Fatalf("seed %d: restore charged %v (reported %v), closed form %v", seed, got.clock.Now(), got.report.RestoreTime, want)
		}
		if ref.clock.Now() <= got.clock.Now() {
			t.Fatalf("seed %d: the per-page reference (%v) is no slower than the stream (%v)", seed, ref.clock.Now(), got.clock.Now())
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
				if sd, _ := got.src.Durable(page); &gd[0] != &sd[0] {
					t.Fatalf("seed %d: page %d was copied on adoption, not shared with the survivor", seed, page)
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
		for p := 0; p < got.region.NumPages(); p++ {
			if err := got.region.CheckRestorable(got.dev, mmu.PageID(p)); err != nil {
				t.Fatalf("seed %d: restored region against the new device: %v", seed, err)
			}
		}
	}
}

// streamTime is the restore contract's closed form: a restore that read
// nothing charges nothing; one that streamed pages pages charges one
// command latency plus PageSize / ReadBandwidth each.
func streamTime(cfg ssd.Config, pages int) sim.Duration {
	if pages == 0 {
		return 0
	}
	perPage := sim.Duration(int64(cfg.PageSize) * int64(sim.Second) / cfg.ReadBandwidth)
	return cfg.PerIOLatency + sim.Duration(pages)*perPage
}

// TestRestoreTimeClosedForm: over seeded durable sets with a gap, a bit
// flip, a lost overwrite, a misdirected write and a store-less page,
// RestoreTime is the closed form over the pages actually read, to the
// nanosecond, on the clock the caller passed — a fresh one here, which is
// not the clock the surviving device was built on — whether the restore
// is in place or onto a new device object.
func TestRestoreTimeClosedForm(t *testing.T) {
	const n = 24
	regionCfg := nvdram.Config{Size: (n + 4) * 4096}
	for seed := uint64(1); seed <= 8; seed++ {
		for _, cfg := range []ssd.Config{{}, {ReadBandwidth: 700 << 20, PerIOLatency: 90 * sim.Microsecond}} {
			for _, inPlace := range []bool{true, false} {
				src := damagedDevice(t, seed, n, cfg)
				clock := sim.NewClock()
				region, err := nvdram.New(clock, regionCfg)
				if err != nil {
					t.Fatal(err)
				}
				// The new device object sits on a clock of its own, so a
				// charge that went to the device instead of the caller's
				// clock shows (TestRestoreRegionRoundTrip has the in-place
				// case).
				dev, devClock := src, sim.NewClock()
				if !inPlace {
					dev = ssd.New(devClock, sim.NewQueue(), cfg)
				}
				report, err := RestoreVerified(clock, region, dev, src)
				if err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
				quarantined := len(report.Integrity.Quarantined)
				if quarantined < 4 || report.PagesRestored != report.Integrity.PagesVerified-quarantined {
					t.Fatalf("seed %d: report %+v", seed, report)
				}
				want := streamTime(src.Config(), report.PagesRestored)
				if report.RestoreTime != want || sim.Duration(clock.Now()) != want {
					t.Fatalf("seed %d, in place %v: RestoreTime %v, clock %v, closed form %v for %d pages",
						seed, inPlace, report.RestoreTime, clock.Now(), want, report.PagesRestored)
				}
				if devClock.Now() != 0 {
					t.Fatalf("seed %d: the restore charged the new device's clock %v", seed, devClock.Now())
				}
				if got := dev.Stats().ReadsCompleted; got != uint64(report.PagesRestored) {
					t.Fatalf("seed %d: %d pages restored by %d reads: a page that failed verification was read", seed, report.PagesRestored, got)
				}
			}
		}
	}
}

// TestClosedFormIsFullReload: with every page durable the closed form is
// Availability's FullReload over the durable bytes plus the stream's one
// command latency — exactly at a bandwidth that divides a page into whole
// nanoseconds, and within the per-page truncation (under a nanosecond a
// page) at the default 3 GiB/s.
func TestClosedFormIsFullReload(t *testing.T) {
	const n = 512
	for _, readBW := range []int64{2 << 20, 0} {
		dev := ssd.New(sim.NewClock(), sim.NewQueue(), ssd.Config{ReadBandwidth: readBW})
		for p := 0; p < n; p++ {
			dev.SeedDurable(mmu.PageID(p), bytes.Repeat([]byte{byte(p)}, 4096))
		}
		_, report, err := restoreInPlace(t, sim.NewClock(), dev, nvdram.Config{Size: n * 4096})
		if err != nil {
			t.Fatal(err)
		}
		cfg := dev.Config()
		avail, err := Availability(n*4096, n*4096, cfg.WriteBandwidth, cfg.ReadBandwidth)
		if err != nil {
			t.Fatal(err)
		}
		if report.PagesRestored != n || report.RestoreTime != streamTime(cfg, n) {
			t.Fatalf("restored %d pages in %v, closed form %v", report.PagesRestored, report.RestoreTime, streamTime(cfg, n))
		}
		slack := sim.Duration(0)
		if readBW == 0 {
			slack = n // transferTime truncates each page's 1271.57 ns
		}
		if diff := avail.FullReload - (report.RestoreTime - cfg.PerIOLatency); diff < 0 || diff > slack {
			t.Fatalf("read bandwidth %d: restore %v − latency %v vs FullReload %v (allowed %v apart)",
				cfg.ReadBandwidth, report.RestoreTime, cfg.PerIOLatency, avail.FullReload, slack)
		}
	}
}
