// Package dist executes applications under the synthetic two-machine
// environment: a virtual clock accrues compute time and the communication
// time of every message that crosses machines, a run
// harness drives an application scenario under any instrumentation mode,
// and an event-trace replayer re-simulates executions from event logs.
// The virtual clock is the one wire a run's messages cross.
package dist

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"repro/internal/com"
	"repro/internal/logger"
	"repro/internal/netsim"
)

// Clock is the virtual clock of a (possibly distributed) execution. The
// execution model is synchronous: components compute one at a time and
// every cross-machine call blocks for a full round trip, so elapsed time
// is the sum of compute time on all machines plus communication time —
// matching the paper's single-user client/server scenarios.
//
// Every charge goes through add, which keeps compute + comm within a
// time.Duration: the first charge that would pass it is refused and
// becomes the clock's err, and the clock charges nothing after it. A
// cross-machine call that starts after it counts nothing either, so a
// run's message, byte and fault counts stop where its times do.
type Clock struct {
	net     *netsim.Model
	rng     *rand.Rand
	faults  *faults
	compute time.Duration
	comm    time.Duration
	msgs    int64
	bytes   int64
	err     error // wraps ErrClockOverflow
}

// NewClock returns a clock over the given network model. When rng is
// non-nil, message times are sampled with the model's jitter ("measured"
// executions); when nil, mean times are used (deterministic predictions).
func NewClock(net *netsim.Model, rng *rand.Rand) *Clock {
	return &Clock{net: net, rng: rng}
}

// Compute implements com.ComputeClock. Compute on every machine adds to
// one total, the only compute figure anything reads.
func (c *Clock) Compute(_ com.Machine, d time.Duration) {
	c.add(&c.compute, d)
}

// add charges d to sum, c.compute or c.comm, as the Clock doc says.
func (c *Clock) add(sum *time.Duration, d time.Duration) {
	if c.err != nil {
		return
	}
	if d > math.MaxInt64-(c.compute+c.comm) {
		c.err = fmt.Errorf("%w: %v more on %v compute and %v communication", ErrClockOverflow, d, c.compute, c.comm)
		return
	}
	*sum += d
}

// SetFaults enables message-level fault simulation: every subsequent
// cross-machine call is delivered under the policy, each of its frames
// dropped or corrupted per the rates, with faulted attempts and backoffs
// charged to communication time. rng must be seeded by the caller so fault
// schedules reproduce; sink (optional) receives one record per injected
// fault.
func (c *Clock) SetFaults(pol FaultPolicy, rng *rand.Rand, sink *logger.Trace) {
	pol.CallPolicy = pol.withDefaults()
	c.faults = &faults{pol: pol, rng: rng, sink: sink}
}

// RemoteCall implements rte.CommSink: a synchronous cross-machine call
// sends a request message and receives a reply message. Under a fault
// policy a call may take several attempts; retransmissions count as extra
// messages, but payload bytes are charged once. After an overflow it
// counts and rolls nothing.
func (c *Clock) RemoteCall(from, to com.Machine, reqBytes, respBytes int) {
	if c.err != nil {
		return
	}
	c.bytes += int64(reqBytes + respBytes)
	if c.faults == nil {
		c.add(&c.comm, c.net.SampleMessageTime(reqBytes, c.rng))
		c.add(&c.comm, c.net.SampleMessageTime(respBytes, c.rng))
		c.msgs += 2
		return
	}
	c.deliver(reqBytes, respBytes)
}

// faults is a clock's fault simulation: the policy with its defaults
// filled in, the seeded roll stream every fault is drawn from, and what
// the rolls came to. Its randomness is all in rng, so a chaos run's fault
// schedule, and therefore its virtual times, reproduce exactly.
type faults struct {
	pol     FaultPolicy
	rng     *rand.Rand
	sink    *logger.Trace
	faulted [corrupted + 1]int64 // frames, by outcome
	retries int64
	giveups int64
}

// faultKinds names a faulted frame's outcome in the trace.
var faultKinds = [...]string{dropped: "drop", corrupted: "corrupt"}

func (f *faults) emit(kind string, attempt, bytes int, penalty time.Duration) {
	if f.sink != nil {
		f.sink.Fault(logger.FaultRecord{Kind: kind, Attempt: attempt, Bytes: bytes, Penalty: penalty})
	}
}

// deliver drives one call through the delivery state machine on the
// virtual clock, a round trip per attempt: each attempt sends the request
// and, if it arrives intact, the reply, one roll per frame. A
// dropped frame costs the deadline on top of what the attempt already
// spent, a corrupt one its wasted transfer, and every retry resends the
// request after the policy's backoff. A call whose attempts run out counts
// as a giveup; the caller decides whether that fails the run.
func (c *Clock) deliver(reqBytes, respBytes int) (int, error) {
	f := c.faults
	var lost int // bytes of the last faulted frame
	attempts, err := f.pol.run(func(n int) outcome {
		start := c.comm
		for _, size := range [2]int{reqBytes, respBytes} {
			c.msgs++
			o := fate(f.rng.Float64(), f.pol.Drop, f.pol.Corrupt)
			if o == dropped {
				c.add(&c.comm, f.pol.Timeout)
			} else {
				c.add(&c.comm, c.net.SampleMessageTime(size, c.rng))
			}
			if o != delivered {
				f.faulted[o]++
				f.emit(faultKinds[o], n, size, c.comm-start)
				lost = size
				return o
			}
		}
		return delivered
	}, func(d time.Duration) {
		f.retries++
		c.add(&c.comm, d)
	})
	if err != nil {
		f.giveups++
		f.emit("giveup", attempts, lost, 0)
	}
	return attempts, err
}

// CommTime returns accumulated communication time.
func (c *Clock) CommTime() time.Duration { return c.comm }

// ComputeTime returns total compute time across all machines.
func (c *Clock) ComputeTime() time.Duration { return c.compute }

// Elapsed returns total virtual execution time.
func (c *Clock) Elapsed() time.Duration { return c.ComputeTime() + c.comm }

// Messages returns the number of cross-machine messages.
func (c *Clock) Messages() int64 { return c.msgs }

// Bytes returns the number of cross-machine payload bytes.
func (c *Clock) Bytes() int64 { return c.bytes }
