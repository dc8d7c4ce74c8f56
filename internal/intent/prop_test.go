package intent

import (
	"fmt"
	"testing"

	"viyojit/internal/sim"
)

// oracleClient models the protocol contract a RetryingClient obeys: it
// issues sequence numbers in order, keeps at most W requests
// outstanding (it only issues seq n once every seq ≤ n−W has been
// observed acked), and may legally retry exactly the seqs it has issued
// but not yet observed an ack for — including ones the *server*
// completed whose ack was lost to a crash.
type oracleClient struct {
	id       uint64
	next     uint64          // next seq to issue
	observed map[uint64]bool // acks the client has seen
	issued   map[uint64]bool
}

func (c *oracleClient) mayIssue() bool {
	if c.next <= DefaultWindow {
		return true
	}
	for s := uint64(1); s <= c.next-DefaultWindow; s++ {
		if !c.observed[s] {
			return false
		}
	}
	return true
}

// legalRetries is the set the window invariant protects: issued but not
// observed-acked.
func (c *oracleClient) legalRetries() []uint64 {
	var out []uint64
	for s := range c.issued {
		if !c.observed[s] {
			out = append(out, s)
		}
	}
	return out
}

// Property: journal GC never drops a seq an oracle client could still
// legally retry. Whatever interleaving of issues, server completions
// and lost acks occurs, every legal retry must Lookup as in-flight or
// done — never below-window.
func TestWindowInvariantProperty(t *testing.T) {
	for _, seed := range []uint64{1, 42, 0x5EED, 0xBAD5EED, 31337} {
		seed := seed
		t.Run(fmt.Sprintf("seed-%#x", seed), func(t *testing.T) {
			rng := sim.NewRNG(seed)
			j, _ := mustCreate(t, 1<<20)
			clients := make([]*oracleClient, 4)
			for i := range clients {
				clients[i] = &oracleClient{
					id:       uint64(i + 1),
					next:     1,
					observed: make(map[uint64]bool),
					issued:   make(map[uint64]bool),
				}
			}
			for step := 0; step < 4000; step++ {
				c := clients[rng.Intn(len(clients))]
				switch rng.Intn(4) {
				case 0, 1: // issue the next request
					if !c.mayIssue() {
						continue
					}
					s := c.next
					if err := j.Begin(c.id, s, s*13, []byte(fmt.Sprintf("k%d", s%7)), []byte("v"), false); err != nil {
						t.Fatalf("step %d: Begin(%d,%d): %v", step, c.id, s, err)
					}
					c.issued[s] = true
					c.next++
				case 2: // server completes an outstanding request; ack delivered
					s, ok := pickOutstanding(rng, j, c)
					if !ok {
						continue
					}
					if err := j.Complete(c.id, s, 1, nil); err != nil {
						t.Fatalf("step %d: Complete(%d,%d): %v", step, c.id, s, err)
					}
					c.observed[s] = true
				case 3: // server completes but the ack is LOST (crash window)
					s, ok := pickOutstanding(rng, j, c)
					if !ok {
						continue
					}
					if err := j.Complete(c.id, s, 1, nil); err != nil {
						t.Fatalf("step %d: lost-ack Complete(%d,%d): %v", step, c.id, s, err)
					}
					// c.observed NOT updated: the client will retry this seq.
				}
				// The invariant, checked at every step for every client.
				for _, cl := range clients {
					for _, s := range cl.legalRetries() {
						if _, st := j.Lookup(cl.id, s); st == StateBelowWindow {
							t.Fatalf("step %d: client %d legal retry seq %d was GC'd (low advanced past it)",
								step, cl.id, s)
						}
					}
				}
			}
		})
	}
}

// pickOutstanding returns a random seq the journal holds in-flight for
// the client.
func pickOutstanding(rng *sim.RNG, j *Journal, c *oracleClient) (uint64, bool) {
	var open []uint64
	for s := range c.issued {
		if _, st := j.Lookup(c.id, s); st == StateInFlight {
			open = append(open, s)
		}
	}
	if len(open) == 0 {
		return 0, false
	}
	// deterministic order for the RNG draw
	min := open[0]
	for _, s := range open {
		if s < min {
			min = s
		}
	}
	max := min
	for _, s := range open {
		if s > max {
			max = s
		}
	}
	for tries := 0; tries < 64; tries++ {
		s := min + uint64(rng.Int63n(int64(max-min+1)))
		if _, st := j.Lookup(c.id, s); st == StateInFlight {
			return s, true
		}
	}
	return min, true
}
