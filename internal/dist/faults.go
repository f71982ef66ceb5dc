package dist

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/fault"
	"repro/internal/logger"
)

// FaultPolicy configures message-level fault simulation for virtual-clock
// executions (Run, Replay): every cross-machine message rolls against the
// drop/corrupt rates, a faulted message costs its penalty (a timeout wait
// for a drop, the wasted transfer for a detected corruption), and delivery
// is retried with exponential backoff up to MaxAttempts — mirroring what
// the real transport does with a fault.Injector on the wire.
type FaultPolicy struct {
	// Rates supplies the Drop and Corrupt probabilities, applied per
	// message. Use fault.FromModel to derive them from a network model's
	// loss figure.
	Rates fault.Rates
	// Timeout is the virtual time a dropped message costs before the
	// sender retransmits (the per-attempt deadline of the real transport).
	Timeout time.Duration
	// MaxAttempts bounds delivery attempts per message; 1 disables
	// retries, so any fault becomes an undeliverable message and the run
	// fails fast with ErrTimeout.
	MaxAttempts int
	// Backoff is the virtual delay before the first retransmission; it
	// doubles per attempt.
	Backoff time.Duration
}

// validate rejects rates that are not probabilities: Drop and Corrupt each
// in [0, 1], and at most 1 together, since one roll decides a message's
// fate. A NaN rate fails every comparison, so it is refused too.
func (p FaultPolicy) validate() error {
	d, c := p.Rates.Drop, p.Rates.Corrupt
	if !(d >= 0 && d <= 1 && c >= 0 && c <= 1 && d+c <= 1) {
		return fmt.Errorf("dist: fault rates drop %v, corrupt %v: each must be in [0, 1] and their sum at most 1", d, c)
	}
	return nil
}

// withDefaults fills unset knobs with the simulation defaults.
func (p FaultPolicy) withDefaults() FaultPolicy {
	if p.Timeout <= 0 {
		p.Timeout = 250 * time.Millisecond
	}
	if p.MaxAttempts < 1 {
		p.MaxAttempts = 4
	}
	if p.Backoff <= 0 {
		p.Backoff = 10 * time.Millisecond
	}
	return p
}

// faultSim charges simulated faults against a virtual clock or replay.
// All randomness comes from its seeded generator, so a chaos run's fault
// schedule — and therefore its virtual times — reproduce exactly.
type faultSim struct {
	pol  FaultPolicy
	rng  *rand.Rand
	sink *logger.Trace

	retries  int64
	drops    int64
	corrupts int64
	giveups  int64
}

func newFaultSim(pol FaultPolicy, rng *rand.Rand, sink *logger.Trace) *faultSim {
	return &faultSim{pol: pol.withDefaults(), rng: rng, sink: sink}
}

func (f *faultSim) emit(kind string, attempt, bytes int, penalty time.Duration) {
	if f.sink != nil {
		f.sink.Fault(logger.FaultRecord{Kind: kind, Attempt: attempt, Bytes: bytes, Penalty: penalty})
	}
}

func (f *faultSim) backoff(attempt int) time.Duration {
	d := f.pol.Backoff
	for i := 1; i < attempt; i++ {
		d *= 2
	}
	return d
}

// deliver simulates delivering one message: it returns the total virtual
// time spent (including faulted attempts and backoff) and the number of
// transmissions. sample yields one observation of the message's wire
// time. A message whose attempts are exhausted counts as a giveup; the
// caller decides whether that fails the run.
func (f *faultSim) deliver(sample func() time.Duration, bytes int) (time.Duration, int64) {
	var total time.Duration
	var xmits int64
	for attempt := 1; ; attempt++ {
		roll := f.rng.Float64()
		if roll < f.pol.Rates.Drop {
			// Lost in flight: the sender waits out its deadline.
			xmits++
			f.drops++
			total += f.pol.Timeout
			f.emit("drop", attempt, bytes, f.pol.Timeout)
			if attempt >= f.pol.MaxAttempts {
				f.giveups++
				f.emit("giveup", attempt, bytes, 0)
				return total, xmits
			}
			f.retries++
			total += f.backoff(attempt)
			continue
		}
		t := sample()
		total += t
		xmits++
		if roll < f.pol.Rates.Drop+f.pol.Rates.Corrupt {
			// Delivered but failed its checksum: the transfer was wasted.
			f.corrupts++
			f.emit("corrupt", attempt, bytes, t)
			if attempt >= f.pol.MaxAttempts {
				f.giveups++
				f.emit("giveup", attempt, bytes, 0)
				return total, xmits
			}
			f.retries++
			total += f.backoff(attempt)
			continue
		}
		return total, xmits
	}
}
