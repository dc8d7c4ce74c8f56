package experiments

import (
	"testing"

	"viyojit/internal/sim"
)

// newTenv is one tenant's full stack on a shared clock/queue.
func newTenv(t testing.TB, clock *sim.Clock, events *sim.Queue, pages, budget int) *tenantStack {
	t.Helper()
	s, err := newTenantStack(clock, events, pages, budget)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func (s *tenantStack) write(t testing.TB, page int, b byte) {
	t.Helper()
	if err := s.region.WriteAt([]byte{b}, int64(page)*4096); err != nil {
		t.Fatal(err)
	}
}

func TestPoolValidation(t *testing.T) {
	clock := sim.NewClock()
	events := sim.NewQueue()
	if _, err := newTenantPool(clock, events, 0, 0); err == nil {
		t.Fatal("zero-budget pool accepted")
	}
	p, err := newTenantPool(clock, events, 10, 0)
	if err != nil {
		t.Fatal(err)
	}
	a := newTenv(t, clock, events, 64, 8)
	if _, err := p.attach(a.mgr, 8); err != nil {
		t.Fatal(err)
	}
	b := newTenv(t, clock, events, 64, 8)
	if _, err := p.attach(b.mgr, 8); err == nil {
		t.Fatal("floors exceeding pool accepted")
	}
}

func TestAttachSplitsEqually(t *testing.T) {
	clock := sim.NewClock()
	events := sim.NewQueue()
	p, _ := newTenantPool(clock, events, 100, 0)
	a := newTenv(t, clock, events, 256, 10)
	b := newTenv(t, clock, events, 256, 10)
	ta, err := p.attach(a.mgr, 5)
	if err != nil {
		t.Fatal(err)
	}
	tb, err := p.attach(b.mgr, 5)
	if err != nil {
		t.Fatal(err)
	}
	if ta.granted+tb.granted != 100 {
		t.Fatalf("grants %d + %d != 100", ta.granted, tb.granted)
	}
	if ta.granted != tb.granted {
		t.Fatalf("grants unequal: %d vs %d", ta.granted, tb.granted)
	}
	if a.mgr.DirtyBudget() != ta.granted {
		t.Fatal("manager budget not synced with grant")
	}
}

func TestRebalanceFollowsPressure(t *testing.T) {
	clock := sim.NewClock()
	events := sim.NewQueue()
	p, _ := newTenantPool(clock, events, 128, 10*sim.Millisecond)
	hot := newTenv(t, clock, events, 512, 16)
	cold := newTenv(t, clock, events, 512, 16)
	th, _ := p.attach(hot.mgr, 8)
	tc, _ := p.attach(cold.mgr, 8)

	// The hot tenant dirties fresh pages every epoch; the cold one is
	// idle. Run past several rebalance periods.
	page := 0
	for step := 0; step < 40; step++ {
		for i := 0; i < 6; i++ {
			hot.write(t, page%512, byte(page+1))
			page++
		}
		clock.Advance(sim.Millisecond)
		events.RunUntil(clock, clock.Now())
	}
	if p.rebalances == 0 {
		t.Fatal("no rebalances happened")
	}
	if th.granted <= tc.granted {
		t.Fatalf("pressured tenant granted %d ≤ idle tenant's %d", th.granted, tc.granted)
	}
	if tc.granted < 8 {
		t.Fatalf("idle tenant pushed below its floor: %d", tc.granted)
	}
	if sum := th.granted + tc.granted; sum > 128 {
		t.Fatalf("grants %d exceed the pool's battery", sum)
	}
}

func TestRebalanceNeverExceedsTotalMidway(t *testing.T) {
	clock := sim.NewClock()
	events := sim.NewQueue()
	p, _ := newTenantPool(clock, events, 64, sim.Millisecond)
	a := newTenv(t, clock, events, 256, 8)
	b := newTenv(t, clock, events, 256, 8)
	ta, _ := p.attach(a.mgr, 4)
	tb, _ := p.attach(b.mgr, 4)

	// Fill both tenants to their grants, then force many rebalances with
	// asymmetric pressure; the combined dirty total must never exceed
	// the pool.
	for i := 0; i < ta.granted; i++ {
		a.write(t, i, 1)
	}
	for i := 0; i < tb.granted; i++ {
		b.write(t, i, 1)
	}
	page := 0
	for step := 0; step < 30; step++ {
		a.write(t, page%256, byte(step+1))
		page++
		clock.Advance(sim.Millisecond)
		events.RunUntil(clock, clock.Now())
		if sum := a.mgr.DirtyCount() + b.mgr.DirtyCount(); sum > 64 {
			t.Fatalf("combined dirty %d exceeds pooled battery 64", sum)
		}
		if sum := ta.granted + tb.granted; sum > 64 {
			t.Fatalf("grants %d exceed pooled battery 64", sum)
		}
	}
}

func TestIdlePoolSharesEqually(t *testing.T) {
	clock := sim.NewClock()
	events := sim.NewQueue()
	p, _ := newTenantPool(clock, events, 60, sim.Millisecond)
	a := newTenv(t, clock, events, 64, 8)
	b := newTenv(t, clock, events, 64, 8)
	ta, _ := p.attach(a.mgr, 5)
	tb, _ := p.attach(b.mgr, 5)
	clock.Advance(10 * sim.Millisecond)
	events.RunUntil(clock, clock.Now())
	// With zero pressure everywhere, the surplus splits evenly.
	if diff := ta.granted - tb.granted; diff > 1 || diff < -1 {
		t.Fatalf("idle grants diverged: %d vs %d", ta.granted, tb.granted)
	}
}

func TestCloseStopsRebalancing(t *testing.T) {
	clock := sim.NewClock()
	events := sim.NewQueue()
	p, _ := newTenantPool(clock, events, 64, sim.Millisecond)
	a := newTenv(t, clock, events, 64, 8)
	if _, err := p.attach(a.mgr, 4); err != nil {
		t.Fatal(err)
	}
	p.close()
	before := p.rebalances
	clock.Advance(20 * sim.Millisecond)
	events.RunUntil(clock, clock.Now())
	if p.rebalances != before {
		t.Fatal("rebalancing continued after Close")
	}
}
