package viyojit

// Facade-level wiring of the fault-tolerant energy telemetry: the fused
// sensor is always wired, transparent when healthy, conservative when
// a gauge lies, and the recovery path budgets from it.

import (
	"bytes"
	"testing"

	"viyojit/internal/faultinject"
)

func TestSensorDefaultWiring(t *testing.T) {
	sys := newTestSystem(t, Config{})
	f := sys.Sensor()
	if f == nil {
		t.Fatal("Sensor() nil, want fused telemetry always wired")
	}
	truth := sys.Battery().EffectiveJoules()
	if got := f.Sample(sys.Now()); got != truth {
		t.Fatalf("healthy fused sample %v, want exactly battery truth %v", got, truth)
	}
}

// TestRecoverUnderLyingGauge: the voltage gauge over-reports 1.5x while
// the pack sags to half. The fused estimate must not follow the lie,
// and the recovery budget derived from it must still admit a working
// replay that restores the data.
func TestRecoverUnderLyingGauge(t *testing.T) {
	sys := newTestSystem(t, Config{})
	m, err := sys.Map("heap", 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	payload := []byte("survives a lying fuel gauge")
	if err := m.WriteAt(payload, 4096); err != nil {
		t.Fatal(err)
	}
	sys.Pump()

	inj := faultinject.NewSensorInjector(faultinject.SensorConfig{
		Seed: 1, LieProb: 1, LieMagnitude: 0.5,
	})
	sys.Sensor().Estimator(1).SetCorruptor(inj)

	// Pack sags; the lying gauge now reports 1.5x of what is left.
	if err := sys.Battery().SetCapacityJoules(sys.Battery().NameplateJoules() / 2); err != nil {
		t.Fatal(err)
	}
	truth := sys.Battery().EffectiveJoules()
	if got := sys.Sensor().Sample(sys.Now()); got > truth*(1+1e-9) {
		t.Fatalf("fused %v over-reports truth %v under a 1.5x lying gauge", got, truth)
	}

	if rep := sys.SimulatePowerFailure(); !rep.Survived {
		t.Fatalf("power failure not survived: %+v", rep)
	}
	recovered, rr, err := sys.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if rr.PagesRestored == 0 {
		t.Fatal("nothing restored")
	}
	m2, err := recovered.Map("heap", 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(payload))
	if err := m2.ReadAt(got, 4096); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("recovered %q, want %q", got, payload)
	}
}
