package battery

import (
	"math"
	"testing"
)

func TestNewValidation(t *testing.T) {
	bad := []Config{
		{CapacityJoules: 0},
		{CapacityJoules: -10},
		{CapacityJoules: 100, DepthOfDischarge: 1.5},
		{CapacityJoules: 100, DepthOfDischarge: -0.1},
		{CapacityJoules: 100, Derating: 2},
	}
	for _, cfg := range bad {
		if _, err := New(cfg); err == nil {
			t.Errorf("New(%+v) succeeded, want error", cfg)
		}
	}
}

func TestDefaultDepthOfDischarge(t *testing.T) {
	b := MustNew(Config{CapacityJoules: 1000})
	// Paper §2.2: DoD 50 % halves the effective capacity.
	if b.EffectiveJoules() != 500 {
		t.Fatalf("effective = %v, want 500", b.EffectiveJoules())
	}
}

func TestDeratingCompounds(t *testing.T) {
	b := MustNew(Config{CapacityJoules: 1000, DepthOfDischarge: 0.5, Derating: 0.7})
	if got := b.EffectiveJoules(); math.Abs(got-350) > 1e-9 {
		t.Fatalf("effective = %v, want 350", got)
	}
}

func TestSetCapacityNotifies(t *testing.T) {
	b := MustNew(Config{CapacityJoules: 1000})
	var seen []float64
	b.OnChange(func(bb *Battery) { seen = append(seen, bb.EffectiveJoules()) })
	if err := b.SetCapacityJoules(600); err != nil {
		t.Fatal(err)
	}
	if len(seen) != 1 || seen[0] != 300 {
		t.Fatalf("onChange saw %v, want [300]", seen)
	}
	if err := b.SetCapacityJoules(0); err == nil {
		t.Fatal("SetCapacityJoules(0) succeeded")
	}
}

func TestAge(t *testing.T) {
	b := MustNew(Config{CapacityJoules: 1000})
	if err := b.Age(0.2); err != nil {
		t.Fatal(err)
	}
	if b.NameplateJoules() != 800 {
		t.Fatalf("nameplate after 20%% ageing = %v", b.NameplateJoules())
	}
	if err := b.Age(1.0); err == nil {
		t.Fatal("Age(1.0) succeeded")
	}
	if err := b.Age(-0.1); err == nil {
		t.Fatal("Age(-0.1) succeeded")
	}
}
