package experiments

import (
	"fmt"
	"io"

	"viyojit/internal/core"
	"viyojit/internal/nvdram"
	"viyojit/internal/sim"
	"viyojit/internal/ssd"
)

// tenantPool is the paper's §6.3 deployment vision: battery as a
// first-class, schedulable resource. It divides one battery's dirty
// budget among co-located tenants and periodically reallocates it —
// "techniques similar to memory ballooning" — in proportion to each
// tenant's dirty-page pressure, so bursty tenants borrow budget that
// quiet tenants are not using (statistical multiplexing).
//
// Rebalancing is safe by construction: shrinking a tenant's budget goes
// through core.Manager.SetDirtyBudgetSync, which cleans the tenant down
// before returning, and donors shrink before receivers grow, so the sum
// of budgets never exceeds the battery's total.
type tenantPool struct {
	clock  *sim.Clock
	events *sim.Queue

	totalPages int
	tenants    []*poolTenant
	period     sim.Duration
	event      *sim.Event
	closed     bool

	rebalances uint64
}

// poolTenant is one NV-DRAM consumer in the pool.
type poolTenant struct {
	mgr *core.Manager
	// minPages is the tenant's guaranteed floor: rebalancing never takes
	// its budget below this.
	minPages int
	granted  int
}

// newTenantPool creates a pool backed by totalPages of battery-derived
// budget, rebalancing every period (0 selects 10 ms — several epochs, so
// the pressure estimates have settled).
func newTenantPool(clock *sim.Clock, events *sim.Queue, totalPages int, period sim.Duration) (*tenantPool, error) {
	if totalPages < 1 {
		return nil, fmt.Errorf("tenancy: total budget %d pages must be positive", totalPages)
	}
	if period == 0 {
		period = 10 * sim.Millisecond
	}
	p := &tenantPool{clock: clock, events: events, totalPages: totalPages, period: period}
	p.event = events.Schedule(clock.Now().Add(period), p.tick)
	return p, nil
}

// attach adds a tenant and re-grants the pool's budget equally across all
// tenants (respecting floors). The tenant's manager budget is overwritten
// by the pool from now on.
func (p *tenantPool) attach(mgr *core.Manager, minPages int) (*poolTenant, error) {
	if minPages < 1 {
		minPages = 1
	}
	floors := minPages
	for _, t := range p.tenants {
		floors += t.minPages
	}
	if floors > p.totalPages {
		return nil, fmt.Errorf("tenancy: floors (%d pages) exceed the pool's %d", floors, p.totalPages)
	}
	t := &poolTenant{mgr: mgr, minPages: minPages}
	p.tenants = append(p.tenants, t)
	p.grantEqually()
	return t, nil
}

// grantEqually splits the budget evenly (plus floors), used at attach
// time before pressure data exists.
func (p *tenantPool) grantEqually() {
	n := len(p.tenants)
	share := p.totalPages / n
	grants := make([]int, n)
	rem := p.totalPages
	for i, t := range p.tenants {
		grants[i] = max(share, t.minPages)
		rem -= grants[i]
	}
	// Distribute any remainder (or recover any overshoot) left to right.
	for i := 0; rem != 0 && i < n; i++ {
		if rem > 0 {
			grants[i]++
			rem--
		} else if grants[i] > p.tenants[i].minPages {
			grants[i]--
			rem++
		}
	}
	p.apply(grants)
}

// rebalance reallocates the budget: each tenant keeps its floor, and the
// surplus is shared in proportion to dirty-page pressure (with equal
// shares when no tenant has pressure).
func (p *tenantPool) rebalance() {
	n := len(p.tenants)
	if n == 0 {
		return
	}
	p.rebalances++

	var totalPressure float64
	pressures := make([]float64, n)
	floors := 0
	for i, t := range p.tenants {
		pressures[i] = t.mgr.Pressure()
		totalPressure += pressures[i]
		floors += t.minPages
	}
	surplus := p.totalPages - floors
	grants := make([]int, n)
	used := 0
	for i, t := range p.tenants {
		share := surplus / n
		if totalPressure > 0 {
			share = int(float64(surplus) * pressures[i] / totalPressure)
		}
		grants[i] = t.minPages + share
		used += grants[i]
	}
	// Hand any rounding remainder to the most pressured tenant.
	if rem := p.totalPages - used; rem > 0 {
		best := 0
		for i := 1; i < n; i++ {
			if pressures[i] > pressures[best] {
				best = i
			}
		}
		grants[best] += rem
	}
	p.apply(grants)
}

// apply commits grants: donors shrink first (synchronously cleaning down
// if needed), then receivers grow, so the durability bound across the
// pool never exceeds the battery. A grant the manager refuses leaves the
// tenant at its old one.
func (p *tenantPool) apply(grants []int) {
	var grows []int
	for i, t := range p.tenants {
		switch g := grants[i]; {
		case g == t.granted:
		case g < t.granted || t.granted == 0:
			// Synchronous: the freed pages must actually be clean before
			// the grow phase hands their coverage to another tenant.
			if t.mgr.SetDirtyBudgetSync(g) == nil {
				t.granted = g
			}
		default:
			grows = append(grows, i)
		}
	}
	for _, i := range grows {
		if t := p.tenants[i]; t.mgr.SetDirtyBudget(grants[i]) == nil {
			t.granted = grants[i]
		}
	}
}

// tick is the periodic rebalance.
func (p *tenantPool) tick(at sim.Time) {
	if p.closed {
		return
	}
	p.rebalance()
	p.event = p.events.Schedule(at.Add(p.period), p.tick)
}

// close stops the periodic rebalancing.
func (p *tenantPool) close() {
	p.closed = true
	p.events.Cancel(p.event)
}

// TenancyResult compares a static half-and-half battery split against the
// §6.3 pooled allocation under an asymmetric (bursty + quiet) tenant
// pair.
type TenancyResult struct {
	// Forced cleans suffered by the bursty tenant (writes that blocked
	// on the SSD because its budget was exhausted).
	StaticForcedCleans uint64
	PooledForcedCleans uint64
	// Fault-path waiting time of the bursty tenant.
	StaticFaultWait sim.Duration
	PooledFaultWait sim.Duration
	// Final grants under pooling (the multiplexing at work).
	PooledBurstyGrant int
	PooledQuietGrant  int
	Rebalances        uint64
}

// tenantStack is one tenant's region + manager on a shared simulation.
type tenantStack struct {
	region *nvdram.Region
	mgr    *core.Manager
}

func newTenantStack(clock *sim.Clock, events *sim.Queue, pages, budget int) (*tenantStack, error) {
	region, err := nvdram.New(clock, nvdram.Config{Size: int64(pages) * nvdram.DefaultPageSize})
	if err != nil {
		return nil, err
	}
	dev := ssd.New(clock, events, ssd.Config{})
	mgr, err := core.NewManager(clock, events, region, dev, core.Config{DirtyBudgetPages: budget})
	if err != nil {
		return nil, err
	}
	return &tenantStack{region: region, mgr: mgr}, nil
}

// driveTenants runs the asymmetric workload: the bursty tenant writes in
// heavy phases separated by idle ones; the quiet tenant writes a trickle.
// Returns after `steps` one-millisecond steps.
func driveTenants(clock *sim.Clock, events *sim.Queue, bursty, quiet *tenantStack, seed uint64, steps int) error {
	rng := sim.NewRNG(seed)
	const pages = 1024
	bp, qp := 0, 0
	for step := 0; step < steps; step++ {
		inBurst := (step/20)%2 == 0 // 20 ms on, 20 ms off
		writesThisStep := 1
		if inBurst {
			writesThisStep = 12
		}
		for i := 0; i < writesThisStep; i++ {
			p := bp % pages
			if rng.Intn(3) > 0 { // mostly fresh pages during bursts
				bp++
			}
			if err := bursty.region.WriteAt([]byte{byte(step + i + 1)}, int64(p)*nvdram.DefaultPageSize); err != nil {
				return err
			}
		}
		// Quiet tenant: one small write per step.
		if err := quiet.region.WriteAt([]byte{byte(step + 1)}, int64(qp%pages)*nvdram.DefaultPageSize); err != nil {
			return err
		}
		if step%7 == 0 {
			qp++
		}
		clock.Advance(sim.Millisecond)
		events.RunUntil(clock, clock.Now())
	}
	return nil
}

// RunTenancyExperiment measures the statistical-multiplexing benefit:
// the same workload pair under a static split and under the pooled,
// pressure-driven allocation.
func RunTenancyExperiment(seed uint64, steps int) (TenancyResult, error) {
	const (
		tenantPages = 1024
		totalBudget = 256
		floor       = 32
	)
	if steps == 0 {
		steps = 400
	}
	var res TenancyResult

	// Static: each tenant owns half the battery forever.
	{
		clock := sim.NewClock()
		events := sim.NewQueue()
		bursty, err := newTenantStack(clock, events, tenantPages, totalBudget/2)
		if err != nil {
			return res, err
		}
		quiet, err := newTenantStack(clock, events, tenantPages, totalBudget/2)
		if err != nil {
			return res, err
		}
		if err := driveTenants(clock, events, bursty, quiet, seed, steps); err != nil {
			return res, err
		}
		res.StaticForcedCleans = bursty.mgr.Stats().ForcedCleans
		res.StaticFaultWait = bursty.mgr.Stats().FaultWaitTotal
	}

	// Pooled: the same total battery, reallocated by pressure.
	{
		clock := sim.NewClock()
		events := sim.NewQueue()
		bursty, err := newTenantStack(clock, events, tenantPages, totalBudget/2)
		if err != nil {
			return res, err
		}
		quiet, err := newTenantStack(clock, events, tenantPages, totalBudget/2)
		if err != nil {
			return res, err
		}
		pool, err := newTenantPool(clock, events, totalBudget, 5*sim.Millisecond)
		if err != nil {
			return res, err
		}
		tb, err := pool.attach(bursty.mgr, floor)
		if err != nil {
			return res, err
		}
		tq, err := pool.attach(quiet.mgr, floor)
		if err != nil {
			return res, err
		}
		if err := driveTenants(clock, events, bursty, quiet, seed, steps); err != nil {
			return res, err
		}
		res.PooledForcedCleans = bursty.mgr.Stats().ForcedCleans
		res.PooledFaultWait = bursty.mgr.Stats().FaultWaitTotal
		res.PooledBurstyGrant = tb.granted
		res.PooledQuietGrant = tq.granted
		res.Rebalances = pool.rebalances
		pool.close()
	}
	return res, nil
}

// FprintTenancy writes the multiplexing comparison.
func FprintTenancy(w io.Writer, r TenancyResult) {
	fmt.Fprintln(w, "§6.3 extension: battery as a schedulable resource (bursty + quiet tenants)")
	fmt.Fprintf(w, "%-28s %14s %14s\n", "", "Static split", "Pooled")
	fmt.Fprintf(w, "%-28s %14d %14d\n", "Bursty forced cleans", r.StaticForcedCleans, r.PooledForcedCleans)
	fmt.Fprintf(w, "%-28s %14v %14v\n", "Bursty fault-wait time", r.StaticFaultWait, r.PooledFaultWait)
	fmt.Fprintf(w, "final grants: bursty %d pages, quiet %d pages after %d rebalances\n",
		r.PooledBurstyGrant, r.PooledQuietGrant, r.Rebalances)
}
