package serve

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"

	"viyojit/internal/sim"
)

// RetryConfig tunes a RetryingClient. Zero values select defaults.
type RetryConfig struct {
	// MaxAttempts bounds tries per op (first attempt included).
	// 0 selects 16.
	MaxAttempts int
	// BaseBackoff is the virtual-time backoff after the first retryable
	// failure; it doubles per attempt. 0 selects 50 µs.
	BaseBackoff sim.Duration
	// MaxBackoff caps the exponential growth. 0 selects 5 ms.
	MaxBackoff sim.Duration
	// Deadline bounds the whole operation (all attempts and backoffs)
	// in virtual time from the first attempt; the per-attempt
	// Request.Timeout is Timeout. 0 disables either bound.
	Deadline sim.Duration
	// Timeout is the per-attempt request deadline passed to the server.
	Timeout sim.Duration
	// Priority for the submitted requests.
	Priority Priority
}

func (c RetryConfig) withDefaults() RetryConfig {
	if c.MaxAttempts == 0 {
		c.MaxAttempts = 16
	}
	if c.BaseBackoff == 0 {
		c.BaseBackoff = 50 * sim.Microsecond
	}
	if c.MaxBackoff == 0 {
		c.MaxBackoff = 5 * sim.Millisecond
	}
	return c
}

// RetryingClient drives idempotent ops at a server with automatic
// retries. It owns a client ID and issues sequence numbers in order, so
// its retries are exactly the ones the intent journal's window
// invariant protects. Retries fire only on typed-retryable errors (see
// Retryable): overload and deadline sheds mean the op never executed; a
// power-failure disconnect ends the loop immediately (the server is
// gone) but the op stays retryable — call Replay seqs against the
// recovered server.
//
// Not safe for concurrent use: one client, one goroutine, like a real
// connection.
type RetryingClient struct {
	srv  *Server
	id   uint64
	cfg  RetryConfig
	rng  *sim.RNG
	next uint64

	// retries counts attempts beyond the first per op; harnesses sample
	// it from observer goroutines while the client goroutine runs.
	retries atomic.Uint64
}

// NewRetryingClient builds a client. id must be non-zero and unique per
// live client; seed decorrelates the backoff jitter across clients.
func NewRetryingClient(srv *Server, id uint64, seed uint64, cfg RetryConfig) (*RetryingClient, error) {
	if srv == nil {
		return nil, fmt.Errorf("serve: retrying client needs a server")
	}
	if id == 0 {
		return nil, fmt.Errorf("serve: client id must be non-zero")
	}
	return &RetryingClient{srv: srv, id: id, cfg: cfg.withDefaults(), rng: sim.NewRNG(seed), next: 1}, nil
}

// NextSeq returns the sequence number the next Do will use.
func (c *RetryingClient) NextSeq() uint64 { return c.next }

// Retries reports how many submit attempts were retries. Safe from any
// goroutine.
func (c *RetryingClient) Retries() uint64 { return c.retries.Load() }

// Do issues the next sequence number and runs op to completion with
// retries. It returns the seq used (even on error, so a caller can
// replay it after recovery).
func (c *RetryingClient) Do(ctx context.Context, op IdemOp) (IdemResult, uint64, error) {
	seq := c.next
	c.next++
	res, err := c.DoSeq(ctx, seq, op)
	return res, seq, err
}

// DoSeq runs op under an explicit sequence number — Do's engine, and
// the replay path for seqs whose acks a power failure swallowed.
func (c *RetryingClient) DoSeq(ctx context.Context, seq uint64, op IdemOp) (IdemResult, error) {
	start := c.srv.Now()
	var deadline sim.Time
	if c.cfg.Deadline > 0 {
		deadline = start.Add(c.cfg.Deadline)
	}
	var last error
	tried := 0
	for attempt := 0; attempt < c.cfg.MaxAttempts; attempt++ {
		if attempt > 0 {
			c.retries.Add(1)
			wake := c.srv.Now().Add(c.backoff(attempt))
			if deadline != 0 && wake > deadline {
				break // the backoff alone would blow the budget
			}
			if err := c.srv.WaitUntil(wake); err != nil {
				return IdemResult{}, err
			}
		}
		tried++
		res, err := c.srv.SubmitIdempotent(ctx, c.id, seq, op, Request{
			Priority: c.cfg.Priority,
			Timeout:  c.cfg.Timeout,
		})
		if err == nil {
			return res, nil
		}
		last = err
		if errors.Is(err, ErrPowerFailure) || errors.Is(err, ErrServerClosed) {
			// The server is gone; no attempt against *this* server can
			// succeed. The seq remains safe to replay after recovery.
			return IdemResult{}, err
		}
		if !Retryable(err) {
			return IdemResult{}, err
		}
		if deadline != 0 && c.srv.Now() >= deadline {
			break
		}
	}
	return IdemResult{}, errors.Join(fmt.Errorf("%w after %d attempts", ErrRetriesExhausted, tried), last)
}

// backoff is exponential from BaseBackoff, capped at MaxBackoff, with
// full jitter — attempt i draws uniformly from (0, min(base·2^(i−1),
// max)] so colliding clients decorrelate.
func (c *RetryingClient) backoff(attempt int) sim.Duration {
	d := c.cfg.BaseBackoff
	for i := 1; i < attempt && d < c.cfg.MaxBackoff; i++ {
		d *= 2
	}
	if d > c.cfg.MaxBackoff {
		d = c.cfg.MaxBackoff
	}
	j := sim.Duration(c.rng.Int63n(int64(d))) + 1
	return j
}
