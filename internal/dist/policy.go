package dist

import (
	"fmt"
	"math/rand"
	"net"
	"time"

	"repro/internal/netsim"
)

// CallPolicy governs deadlines and retries for a call, on either clock:
// the real transport's Conn sleeps its backoffs, the virtual clock charges
// them. The server's at-most-once dedup (request sequence numbers) makes
// retries safe: a retried call whose first attempt actually executed is
// answered from the server's response cache, never re-executed.
//
// A zero Timeout, MaxAttempts or Backoff means DefaultCallPolicy's value;
// a zero BackoffMax or JitterFrac is off.
type CallPolicy struct {
	// Timeout is the per-attempt deadline covering one full round trip
	// (connect if needed, write request, read response). On the virtual
	// clock it is what a dropped frame costs.
	Timeout time.Duration
	// MaxAttempts is the total number of attempts; 1 disables retries.
	MaxAttempts int
	// Backoff is the delay before the first retry; it doubles per retry.
	Backoff time.Duration
	// BackoffMax caps the exponential backoff.
	BackoffMax time.Duration
	// JitterFrac randomizes each backoff by ±JitterFrac of its value,
	// de-synchronizing retry storms. Drawn from the caller's seeded
	// generator, so a seeded dial or a chaos run retries reproducibly.
	JitterFrac float64
}

// DefaultCallPolicy returns the transport's default resilience policy:
// bounded per-call deadlines with a few jittered-backoff retries. Its
// Timeout, MaxAttempts and Backoff are what a zero field stands for.
func DefaultCallPolicy() CallPolicy {
	return CallPolicy{
		Timeout:     2 * time.Second,
		MaxAttempts: 4,
		Backoff:     5 * time.Millisecond,
		BackoffMax:  250 * time.Millisecond,
		JitterFrac:  0.2,
	}
}

// withDefaults gives a zero Timeout, MaxAttempts or Backoff its one
// meaning, the default, for both drivers of the delivery machine.
func (p CallPolicy) withDefaults() CallPolicy {
	d := DefaultCallPolicy()
	if p.Timeout <= 0 {
		p.Timeout = d.Timeout
	}
	if p.MaxAttempts < 1 {
		p.MaxAttempts = d.MaxAttempts
	}
	if p.Backoff <= 0 {
		p.Backoff = d.Backoff
	}
	return p
}

// delay returns the backoff before retry number `retry` (1-based).
func (p CallPolicy) delay(retry int, rng *rand.Rand) time.Duration {
	d := p.Backoff
	for i := 1; i < retry && (p.BackoffMax <= 0 || d < p.BackoffMax); i++ {
		d *= 2
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

// outcome is what one attempt of a call came to.
type outcome uint8

const (
	delivered outcome = iota // the reply arrived intact
	dropped                  // the deadline expired: the request or the reply was lost
	corrupted                // a frame failed its checksum, or the link was severed
	refused                  // the server ran the call and answered with an error
	closed                   // the caller closed the connection
)

// err is the typed error a call that ends on o gives up with.
func (o outcome) err() error {
	return [...]error{nil, ErrTimeout, ErrCorrupt, ErrRemote, net.ErrClosed}[o]
}

// fate maps one roll in [0, 1) to a frame's fate on a wire with the given
// drop and corrupt rates.
func fate(roll, drop, corrupt float64) outcome {
	switch {
	case roll < drop:
		return dropped
	case roll < drop+corrupt:
		return corrupted
	}
	return delivered
}

// run is the delivery state machine of one call, and the one retry loop:
// try performs attempt number `attempt` and reports its outcome. A
// delivered attempt succeeds; a refused or closed one gives up at once; a
// dropped or corrupted one is retried after wait(delay(attempt)) until
// MaxAttempts are spent, then gives up with its typed error. It returns
// the attempts made. p must have its defaults filled in.
func (p CallPolicy) run(rng *rand.Rand, try func(attempt int) outcome, wait func(time.Duration)) (int, error) {
	for attempt := 1; ; attempt++ {
		o := try(attempt)
		if (o != dropped && o != corrupted) || attempt >= p.MaxAttempts {
			return attempt, o.err()
		}
		wait(p.delay(attempt, rng))
	}
}

// FaultPolicy configures fault simulation on the virtual clock (Run,
// Replay): the wire's per-frame drop and corrupt rates, and the CallPolicy
// every cross-machine call is delivered under. The clock feeds the same
// state machine as the real transport's Conn, at the same round-trip
// granularity and with the same zero-field defaults;
// TestDeliveryMatchesTransport holds the two to each other call by call.
type FaultPolicy struct {
	// Drop and Corrupt are the probabilities, rolled once per frame, that
	// the frame is lost or arrives with a bad checksum.
	Drop, Corrupt float64
	CallPolicy
}

// ModelRates derives a wire's drop and corrupt rates from a network
// model's loss figure: every lost message is a drop, and a quarter as many
// arrive corrupt, since loss on real links is more common than corruption
// in flight.
func ModelRates(m *netsim.Model) (drop, corrupt float64) {
	return m.Loss, m.Loss / 4
}

// validate rejects rates that are not probabilities: Drop and Corrupt each
// in [0, 1], and at most 1 together, since one roll decides a frame's
// fate. A NaN rate fails every comparison, so it is refused too.
func (p FaultPolicy) validate() error {
	d, c := p.Drop, p.Corrupt
	if !(d >= 0 && d <= 1 && c >= 0 && c <= 1 && d+c <= 1) {
		return fmt.Errorf("dist: fault rates drop %v, corrupt %v: each must be in [0, 1] and their sum at most 1", d, c)
	}
	return nil
}
