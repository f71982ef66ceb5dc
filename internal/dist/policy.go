package dist

import (
	"math/rand"
	"net"
	"time"
)

// CallPolicy governs deadlines and retries for transport calls. The
// server's at-most-once dedup (request sequence numbers) makes retries
// safe: a retried call whose first attempt actually executed is answered
// from the server's response cache, never re-executed.
type CallPolicy struct {
	// Timeout is the per-attempt deadline covering one full round trip
	// (connect if needed, write request, read response). Zero means no
	// deadline — a stalled peer blocks forever, so runs that inject faults
	// must set one.
	Timeout time.Duration
	// MaxAttempts is the total number of attempts; 1 disables retries.
	MaxAttempts int
	// Backoff is the delay before the first retry; it doubles per retry.
	Backoff time.Duration
	// BackoffMax caps the exponential backoff.
	BackoffMax time.Duration
	// JitterFrac randomizes each backoff by ±JitterFrac of its value,
	// de-synchronizing retry storms. Drawn from the connection's seeded
	// generator, so a seeded dial retries reproducibly.
	JitterFrac float64
}

// DefaultCallPolicy returns the transport's default resilience policy:
// bounded per-call deadlines with a few jittered-backoff retries.
func DefaultCallPolicy() CallPolicy {
	return CallPolicy{
		Timeout:     2 * time.Second,
		MaxAttempts: 4,
		Backoff:     5 * time.Millisecond,
		BackoffMax:  250 * time.Millisecond,
		JitterFrac:  0.2,
	}
}

// delay returns the backoff before retry number `retry` (1-based).
func (p CallPolicy) delay(retry int, rng *rand.Rand) time.Duration {
	d := p.Backoff
	if d <= 0 {
		return 0
	}
	for i := 1; i < retry; i++ {
		d *= 2
		if p.BackoffMax > 0 && d >= p.BackoffMax {
			d = p.BackoffMax
			break
		}
	}
	if p.BackoffMax > 0 && d > p.BackoffMax {
		d = p.BackoffMax
	}
	if p.JitterFrac > 0 && rng != nil {
		f := 1 + p.JitterFrac*(2*rng.Float64()-1)
		d = time.Duration(float64(d) * f)
	}
	return d
}

// CallOption adjusts the policy of a single call.
type CallOption func(*CallPolicy)

// WithTimeout sets the per-attempt deadline for this call.
func WithTimeout(d time.Duration) CallOption {
	return func(p *CallPolicy) { p.Timeout = d }
}

// WithMaxAttempts sets the total attempt budget for this call.
func WithMaxAttempts(n int) CallOption {
	return func(p *CallPolicy) { p.MaxAttempts = n }
}

// WithoutRetries disables retries for this call: one attempt, fail fast.
func WithoutRetries() CallOption {
	return func(p *CallPolicy) { p.MaxAttempts = 1 }
}

// DialOption configures a client connection.
type DialOption func(*Conn)

// WithPolicy sets the connection's default call policy.
func WithPolicy(p CallPolicy) DialOption {
	return func(c *Conn) { c.policy = p }
}

// WithDialSeed seeds the connection's client identity and backoff jitter,
// making a chaos run's retry schedule reproducible.
func WithDialSeed(seed int64) DialOption {
	return func(c *Conn) {
		c.clientID = splitmixID(uint64(seed))
		c.rng = rand.New(rand.NewSource(seed))
	}
}

// WithDialer replaces the TCP dialer — the hook for client-side fault
// injection (wrap the returned conn with a fault.Injector) or alternate
// transports. The dialer is also used for automatic reconnection.
func WithDialer(dial func(addr string) (net.Conn, error)) DialOption {
	return func(c *Conn) { c.dialFn = dial }
}
