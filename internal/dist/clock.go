// Package dist executes applications under the synthetic two-machine (or
// three-machine) environment: a virtual clock accrues compute time and the
// communication time of every message that crosses machines, a run
// harness drives an application scenario under any instrumentation mode,
// an event-trace replayer re-simulates executions from event logs, and a
// loopback-TCP transport demonstrates real proxy/stub marshaling.
package dist

import (
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
type Clock struct {
	net     *netsim.Model
	rng     *rand.Rand
	faults  *faultSim
	compute time.Duration
	comm    time.Duration
	msgs    int64
	bytes   int64
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
	c.compute += d
}

// SetFaults enables message-level fault simulation: every subsequent
// cross-machine message may be dropped or corrupted per the policy, with
// retransmissions charged to communication time. rng must be seeded by
// the caller so fault schedules reproduce; sink (optional) receives one
// record per injected fault.
func (c *Clock) SetFaults(pol FaultPolicy, rng *rand.Rand, sink *logger.Trace) {
	c.faults = newFaultSim(pol, rng, sink)
}

// RemoteCall implements rte.CommSink: a synchronous cross-machine call
// sends a request message and receives a reply message. Under a fault
// policy each direction may take several attempts; retransmissions count
// as extra messages, but payload bytes are charged once.
func (c *Clock) RemoteCall(from, to com.Machine, reqBytes, respBytes int) {
	if c.faults == nil {
		c.comm += c.net.SampleMessageTime(reqBytes, c.rng)
		c.comm += c.net.SampleMessageTime(respBytes, c.rng)
		c.msgs += 2
		c.bytes += int64(reqBytes + respBytes)
		return
	}
	for _, sz := range [2]int{reqBytes, respBytes} {
		sz := sz
		t, xmits := c.faults.deliver(func() time.Duration {
			return c.net.SampleMessageTime(sz, c.rng)
		}, sz)
		c.comm += t
		c.msgs += xmits
	}
	c.bytes += int64(reqBytes + respBytes)
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

// Network returns the clock's network model.
func (c *Clock) Network() *netsim.Model { return c.net }
