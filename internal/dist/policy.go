package dist

import (
	"fmt"
	"math"
	"time"

	"repro/internal/netsim"
)

// CallPolicy governs deadlines and retries for a cross-machine call on the
// virtual clock, which charges every deadline a lost frame runs out and
// every backoff a retry waits.
//
// A zero field means DefaultCallPolicy's value.
type CallPolicy struct {
	// Timeout is the per-attempt deadline covering one full round trip:
	// what a dropped frame costs.
	Timeout time.Duration
	// MaxAttempts is the total number of attempts; 1 disables retries.
	MaxAttempts int
	// Backoff is the delay before the first retry; it doubles per retry.
	Backoff time.Duration
}

// DefaultCallPolicy returns what a zero CallPolicy field stands for:
// bounded per-call deadlines with a few doubling-backoff retries.
func DefaultCallPolicy() CallPolicy {
	return CallPolicy{
		Timeout:     2 * time.Second,
		MaxAttempts: 4,
		Backoff:     5 * time.Millisecond,
	}
}

// withDefaults gives a zero Timeout, MaxAttempts or Backoff its one
// meaning, the default.
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

// delay returns the backoff before retry number `retry` (1-based):
// Backoff·2^(retry-1). FaultPolicy.validate refuses a policy whose last
// backoff would not fit in a time.Duration.
func (p CallPolicy) delay(retry int) time.Duration {
	return p.Backoff << (retry - 1)
}

// fits reports whether one call's worst case under p, every attempt's
// deadline and every backoff, MaxAttempts·Timeout +
// Backoff·(2^(MaxAttempts-1) - 1), fits in a time.Duration. p must have
// its defaults filled in.
func (p CallPolicy) fits() bool {
	const most = time.Duration(math.MaxInt64)
	retries := p.MaxAttempts - 1
	if retries >= 63 {
		return false
	}
	deadlines, doublings := most/time.Duration(p.MaxAttempts), time.Duration(1)<<retries-1
	if p.Timeout > deadlines || doublings > 0 && p.Backoff > most/doublings {
		return false
	}
	return p.Timeout*time.Duration(p.MaxAttempts) <= most-p.Backoff*doublings
}

// outcome is what one attempt of a call came to.
type outcome uint8

const (
	delivered outcome = iota // the reply arrived intact
	dropped                  // the deadline expired: the request or the reply was lost
	corrupted                // a frame failed its checksum
)

// err is the typed error a call that ends on o gives up with.
func (o outcome) err() error {
	return [...]error{nil, ErrTimeout, ErrCorrupt}[o]
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
// delivered attempt succeeds; a dropped or corrupted one is retried after
// wait(delay(attempt)) until MaxAttempts are spent, then gives up with its
// typed error. It returns the attempts made. p must have its defaults
// filled in.
func (p CallPolicy) run(try func(attempt int) outcome, wait func(time.Duration)) (int, error) {
	for attempt := 1; ; attempt++ {
		o := try(attempt)
		if o == delivered || attempt >= p.MaxAttempts {
			return attempt, o.err()
		}
		wait(p.delay(attempt))
	}
}

// FaultPolicy configures fault simulation on the virtual clock (Run,
// Replay): the wire's per-frame drop and corrupt rates, and the CallPolicy
// every cross-machine call is delivered under.
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
// fate. A NaN rate fails every comparison, so it is refused too. It also
// rejects a call policy, its defaults filled in, whose worst-case call
// would not fit in a time.Duration, so no backoff the clock charges wraps.
func (p FaultPolicy) validate() error {
	d, c := p.Drop, p.Corrupt
	if !(d >= 0 && d <= 1 && c >= 0 && c <= 1 && d+c <= 1) {
		return fmt.Errorf("dist: fault rates drop %v, corrupt %v: each must be in [0, 1] and their sum at most 1", d, c)
	}
	if cp := p.withDefaults(); !cp.fits() {
		return fmt.Errorf("dist: call policy of %d attempt(s), timeout %v, backoff %v: one call's deadlines and backoffs overflow a time.Duration",
			cp.MaxAttempts, cp.Timeout, cp.Backoff)
	}
	return nil
}
