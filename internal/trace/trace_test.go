package trace

import (
	"slices"
	"testing"

	"viyojit/internal/sim"
)

func mustGenerate(t testing.TB, s VolumeSpec, d sim.Duration, seed uint64) *Volume {
	t.Helper()
	v, err := Generate(s, d, seed)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

func TestGenerateValidation(t *testing.T) {
	bad := []VolumeSpec{
		{Name: "zero-size", WorstHourWriteFraction: 0.1, TouchedFraction: 0.5},
		{Name: "bad-frac", SizeBytes: 1 << 20, WorstHourWriteFraction: 0, TouchedFraction: 0.5},
		{Name: "bad-frac2", SizeBytes: 1 << 20, WorstHourWriteFraction: 1.5, TouchedFraction: 0.5},
		{Name: "bad-touch", SizeBytes: 1 << 20, WorstHourWriteFraction: 0.1, TouchedFraction: 0},
		{Name: "bad-skew", SizeBytes: 1 << 20, WorstHourWriteFraction: 0.1, TouchedFraction: 0.5, Skew: SkewKind(9)},
		{Name: "unaligned", SizeBytes: 4097, WorstHourWriteFraction: 0.1, TouchedFraction: 0.5},
	}
	for _, s := range bad {
		if _, err := Generate(s, Hour, 1); err == nil {
			t.Errorf("Generate(%s) succeeded, want error", s.Name)
		}
	}
	good := spec("ok", 0.1, SkewZipf, 0.9, 0, 0.5)
	if _, err := Generate(good, 0, 1); err == nil {
		t.Error("zero duration accepted")
	}
}

func TestGenerateEventsWellFormed(t *testing.T) {
	v := mustGenerate(t, spec("v", 0.10, SkewZipf, 0.9, 0, 0.5), 2*Hour, 7)
	if len(v.Events) == 0 {
		t.Fatal("no events generated")
	}
	totalPages := v.TotalPages()
	var prev sim.Time
	writes := 0
	for _, e := range v.Events {
		if e.At < prev {
			t.Fatal("events out of time order")
		}
		prev = e.At
		if e.At >= sim.Time(v.Duration) {
			t.Fatalf("event at %v beyond duration %v", e.At, v.Duration)
		}
		if e.Page < 0 || e.Page >= totalPages {
			t.Fatalf("event page %d outside volume of %d pages", e.Page, totalPages)
		}
		if e.Bytes <= 0 {
			t.Fatal("event with non-positive size")
		}
		if e.Write {
			writes++
		}
	}
	if writes == 0 || writes == len(v.Events) {
		t.Fatalf("writes = %d of %d events; want a mix", writes, len(v.Events))
	}
}

func TestWorstHourFractionRoughlyMatchesSpec(t *testing.T) {
	const want = 0.10
	v := mustGenerate(t, spec("v", want, SkewZipf, 0.9, 0, 0.5), 6*Hour, 3)
	got := v.WorstIntervalWrittenFraction(Hour)
	if got < want/2 || got > want*2 {
		t.Fatalf("worst-hour fraction = %v, want ~%v", got, want)
	}
}

func TestIntervalFractionsOrdered(t *testing.T) {
	// Fig 2's structure: shorter intervals carry smaller absolute
	// fractions, but bursts make the minute fraction exceed 1/60 of the
	// hour fraction.
	v := mustGenerate(t, spec("v", 0.12, SkewZipf, 0.9, 0, 0.5), 6*Hour, 11)
	min1 := v.WorstIntervalWrittenFraction(60 * sim.Second)
	min10 := v.WorstIntervalWrittenFraction(600 * sim.Second)
	hour := v.WorstIntervalWrittenFraction(Hour)
	if !(min1 <= min10 && min10 <= hour) {
		t.Fatalf("interval fractions not ordered: %v, %v, %v", min1, min10, hour)
	}
	if min1 < hour/60 {
		t.Fatalf("1-minute fraction %v below uniform share %v; bursts missing", min1, hour/60)
	}
}

func TestSkewZipfConcentrates(t *testing.T) {
	zipf := mustGenerate(t, spec("z", 0.3, SkewZipf, 0.99, 0, 0.5), 4*Hour, 5)
	uniq := mustGenerate(t, spec("u", 0.3, SkewUnique, 0, 0, 0.5), 4*Hour, 5)
	pz := zipf.SkewTouched([]float64{0.90})[0]
	pu := uniq.SkewTouched([]float64{0.90})[0]
	if pz >= pu {
		t.Fatalf("zipf coverage %v not tighter than unique %v", pz, pu)
	}
}

func TestSkewHotMatchesHotFraction(t *testing.T) {
	v := mustGenerate(t, spec("h", 0.5, SkewHot, 0, 0.10, 0.8), 4*Hour, 9)
	// 99% of writes land in 10% of the touched pages, so the 99th
	// percentile coverage should be near 0.1 (Fig 3's Cosmos volume F).
	p99 := v.SkewTouched([]float64{0.99})[0]
	if p99 > 0.25 {
		t.Fatalf("hot-skew 99%% coverage = %v, want ~0.1", p99)
	}
}

func TestSkewTotalBelowTouched(t *testing.T) {
	v := mustGenerate(t, spec("v", 0.2, SkewZipf, 0.9, 0, 0.5), 4*Hour, 13)
	pcts := []float64{0.90, 0.95, 0.99}
	touched := v.SkewTouched(pcts)
	total := v.SkewTotal(pcts)
	for i := range pcts {
		if total[i] > touched[i] {
			t.Fatalf("total-denominator fraction %v exceeds touched %v at pct %v", total[i], touched[i], pcts[i])
		}
	}
	// Both must be monotone in percentile.
	for i := 1; i < len(pcts); i++ {
		if touched[i] < touched[i-1] || total[i] < total[i-1] {
			t.Fatal("coverage not monotone in percentile")
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a := mustGenerate(t, spec("v", 0.1, SkewZipf, 0.9, 0, 0.5), Hour, 17)
	b := mustGenerate(t, spec("v", 0.1, SkewZipf, 0.9, 0, 0.5), Hour, 17)
	if len(a.Events) != len(b.Events) {
		t.Fatalf("event counts differ: %d vs %d", len(a.Events), len(b.Events))
	}
	for i := range a.Events {
		if a.Events[i] != b.Events[i] {
			t.Fatalf("event %d differs", i)
		}
	}
}

func TestApplicationsCatalogue(t *testing.T) {
	apps, err := Applications(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(apps) != 4 {
		t.Fatalf("got %d applications, want 4", len(apps))
	}
	wantVolumes := map[string]int{
		"Azure blob storage":   8,
		"Cosmos":               7,
		"Page rank":            6,
		"Search index serving": 6,
	}
	for _, app := range apps {
		if got := len(app.Volumes); got != wantVolumes[app.Name] {
			t.Errorf("%s has %d volumes, want %d", app.Name, got, wantVolumes[app.Name])
		}
		for _, v := range app.Volumes {
			if len(v.Events) == 0 {
				t.Errorf("%s volume %s has no events", app.Name, v.Spec.Name)
			}
		}
	}
	// Cosmos runs the paper's shorter 3.5-hour window.
	if apps[1].Name != "Cosmos" || apps[1].Duration >= 4*Hour {
		t.Errorf("Cosmos duration = %v, want 3.5h", apps[1].Duration)
	}
}

// The §3 headline: for the majority of volumes, data written within an
// hour is below 15% of the volume.
func TestMajorityUnder15Percent(t *testing.T) {
	apps, err := Applications(1)
	if err != nil {
		t.Fatal(err)
	}
	total, under := 0, 0
	for _, app := range apps {
		for _, v := range app.Volumes {
			total++
			if v.WorstIntervalWrittenFraction(Hour) < 0.15 {
				under++
			}
		}
	}
	if under*2 <= total {
		t.Fatalf("only %d/%d volumes under 15%%; paper expects a majority", under, total)
	}
}

func TestWorstIntervalPanicsOnBadInterval(t *testing.T) {
	v := mustGenerate(t, spec("v", 0.1, SkewZipf, 0.9, 0, 0.5), Hour, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on zero interval")
		}
	}()
	v.WorstIntervalWrittenFraction(0)
}

func TestHelperCounters(t *testing.T) {
	v := mustGenerate(t, spec("v", 0.1, SkewZipf, 0.9, 0, 0.5), Hour, 1)
	if !slices.ContainsFunc(v.Events, func(e Event) bool { return e.Write }) {
		t.Fatal("no write events generated")
	}
	_, touched := v.writeCounts()
	if len(touched) == 0 {
		t.Fatal("no touched pages counted")
	}
	if len(touched) > int(v.TotalPages()) {
		t.Fatal("touched pages exceed volume pages")
	}
}
