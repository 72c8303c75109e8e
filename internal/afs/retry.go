package afs

import (
	"errors"
	"fmt"
	"time"

	"nexus/internal/backend"
	"nexus/internal/netsim"
)

// Typed failure errors surfaced by the client. Each wraps the matching
// backend sentinel so callers stacked on backend.Store can match
// without importing this package.
var (
	// ErrTimeout reports an RPC exchange that missed its deadline.
	ErrTimeout = fmt.Errorf("afs: rpc deadline exceeded: %w", backend.ErrTimeout)
	// ErrUnavailable reports an RPC abandoned after the retry budget:
	// the request was never accepted by the server.
	ErrUnavailable = fmt.Errorf("afs: server unavailable: %w", backend.ErrUnavailable)
	// ErrInterrupted reports a non-idempotent RPC whose connection died
	// mid-exchange. The server may or may not have applied it; the
	// client never retries these transparently.
	ErrInterrupted = fmt.Errorf("afs: connection lost mid-rpc: %w", backend.ErrInterrupted)
	// ErrLockLost reports a store, remove or lock refused before it was
	// sent, because the client holds a lock granted on an earlier
	// connection: the server released it when that connection dropped,
	// so the request would run unprotected. It comes wrapped in
	// ErrInterrupted.
	ErrLockLost = errors.New("afs: lock lost with its connection")
)

// errTransport marks connection-level failures internally so call()
// can tell them from application errors the server answered with.
var errTransport = errors.New("afs: transport fault")

// Retry defaults.
const (
	// DefaultRPCTimeout bounds one RPC exchange, including server-side
	// lock waits; large enough for a maxFrameSize transfer on the WAN
	// profile.
	DefaultRPCTimeout = 30 * time.Second
	defaultAttempts   = 4
	defaultBase       = 5 * time.Millisecond
	defaultMax        = 1 * time.Second
	// backoffMultiplier grows the backoff between attempts.
	backoffMultiplier = 2
	// jitterFrac is the largest fraction of the backoff added on top of
	// it. Jitter is additive so the un-jittered curve stays monotone.
	jitterFrac = 0.2
)

// RetryPolicy tunes the client's reconnect/retry behaviour: the backoff
// doubles from BaseBackoff up to MaxBackoff, plus up to 20 % jitter. The
// zero value means defaults.
type RetryPolicy struct {
	// MaxAttempts counts tries per RPC including the first; default 4.
	MaxAttempts int
	// BaseBackoff is the wait before the second attempt; default 5ms.
	BaseBackoff time.Duration
	// MaxBackoff caps the exponential curve; default 1s.
	MaxBackoff time.Duration
	// Seed makes the jitter deterministic; tests pass their chaos seed.
	// 0 is a valid (fixed) seed — determinism is the point.
	Seed int64
}

// withDefaults fills zero fields and raises a cap below the base.
func (p RetryPolicy) withDefaults() RetryPolicy {
	if p.MaxAttempts <= 0 {
		p.MaxAttempts = defaultAttempts
	}
	if p.BaseBackoff <= 0 {
		p.BaseBackoff = defaultBase
	}
	if p.MaxBackoff <= 0 {
		p.MaxBackoff = defaultMax
	}
	if p.MaxBackoff < p.BaseBackoff {
		p.MaxBackoff = p.BaseBackoff
	}
	return p
}

// backoffAt returns the un-jittered backoff before attempt n+1, given n
// failed attempts (n >= 1). The curve is monotone non-decreasing and
// bounded by MaxBackoff — properties FuzzRetrySchedule enforces.
func (p RetryPolicy) backoffAt(n int) time.Duration {
	if n < 1 {
		n = 1
	}
	d := float64(p.BaseBackoff)
	limit := float64(p.MaxBackoff)
	for i := 1; i < n; i++ {
		d *= backoffMultiplier
		if d >= limit {
			return p.MaxBackoff
		}
	}
	if d >= limit {
		return p.MaxBackoff
	}
	return time.Duration(d)
}

// retryState is the per-client retry/backoff state machine: the policy
// plus the seeded jitter stream.
type retryState struct {
	policy RetryPolicy
	rng    *netsim.Rand
}

func newRetryState(p RetryPolicy) *retryState {
	p = p.withDefaults()
	return &retryState{policy: p, rng: netsim.NewRand(p.Seed)}
}

// wait returns the jittered sleep before the next attempt after n
// failures: backoffAt(n) plus up to jitterFrac of itself.
func (s *retryState) wait(n int) time.Duration {
	d := s.policy.backoffAt(n)
	return d + time.Duration(s.rng.Float64()*jitterFrac*float64(d))
}

// retryable reports whether op may be transparently re-sent after a
// transport failure. Only read-only RPCs qualify: a Store, Remove, Lock
// or Unlock that died mid-exchange may already have been applied, and
// re-sending it would double-apply (or double-acquire). Those surface
// ErrInterrupted instead; Client.lockResendable names the one case a
// lock request is sent again.
func retryable(op opCode) bool {
	switch op {
	case opFetch, opStat, opList, opPing:
		return true
	default:
		return false
	}
}
