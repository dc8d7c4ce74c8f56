package serve

import (
	"errors"

	"viyojit/internal/intent"
)

// The typed rejection taxonomy. Every request the server refuses carries
// exactly one of these (possibly wrapped), so clients can distinguish
// "back off and retry" (ErrOverloaded), "retry with a looser deadline"
// (ErrDeadlineExceeded), "stop writing until the system recovers"
// (ErrReadOnly), and "the server is gone" (ErrClosed). Match with
// errors.Is.
var (
	// ErrOverloaded means admission control shed the request: the queue
	// was full, occupancy crossed the low-priority watermark, or the
	// degradation ladder called for shedding this priority class.
	ErrOverloaded = errors.New("serve: overloaded, request shed")

	// ErrDeadlineExceeded means the request's virtual-time deadline
	// passed while it waited in the queue, or a predicted clean-stall
	// (the dirty set at budget, every admission paying an SSD clean)
	// would push completion past the deadline. The request was NOT
	// executed.
	ErrDeadlineExceeded = errors.New("serve: deadline exceeded")

	// ErrReadOnly means the degradation ladder has writes blocked
	// (EmergencyFlush or ReadOnly rung); the write was rejected or, if
	// it raced the escalation, failed with mmu.ErrProtected underneath.
	ErrReadOnly = errors.New("serve: system is read-only (degradation ladder)")

	// ErrClosed means the server was stopped before the request ran.
	ErrClosed = errors.New("serve: server closed")

	// ErrPowerFailure means a simulated power failure killed the
	// server: the request (queued or in flight) got no ack, and
	// its effects are exactly what recovery replays — an intent-journal
	// retry against the recovered server is safe and will not
	// double-apply.
	ErrPowerFailure = errors.New("serve: power failure, request outcome unknown")

	// ErrHandleSpent means Wait was called on a Handle whose one Wait has
	// already returned. The request's outcome went to that first call.
	ErrHandleSpent = errors.New("serve: handle already waited on")

	// ErrRetriesExhausted means a RetryingClient gave up: every attempt
	// drew a retryable rejection and the attempt or deadline budget ran
	// out. The wrapped error chain carries the last rejection.
	ErrRetriesExhausted = errors.New("serve: retries exhausted")

	// ErrStaleSeq re-exports intent.ErrStaleSeq: the retried sequence
	// number fell below the client's dedup window, which only happens if
	// the client retries a request whose ack it already processed.
	ErrStaleSeq = intent.ErrStaleSeq

	// ErrSeqReuse re-exports intent.ErrSeqReuse: a sequence number was
	// reused for a different operation.
	ErrSeqReuse = intent.ErrSeqReuse
)

// ErrServerClosed is the canonical name for the stopped-server
// rejection (ErrClosed is the historical alias; they are the same
// value, so errors.Is matches either).
var ErrServerClosed = ErrClosed

// Retryable reports whether an error is safe to retry under the
// exactly-once protocol: overload and deadline rejections mean the op
// was never executed, and a power-failure disconnect means the intent
// journal will dedup the retry after recovery. Closed servers and
// protocol violations (stale seq, seq reuse) are not retryable.
func Retryable(err error) bool {
	return errors.Is(err, ErrOverloaded) ||
		errors.Is(err, ErrDeadlineExceeded) ||
		errors.Is(err, ErrPowerFailure)
}
