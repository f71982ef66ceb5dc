// Package fault provides deterministic, seed-driven fault injection for
// net.Conn / net.Listener pairs. The distributed runtime's loopback-TCP
// transport is a stand-in for DCOM over a real network, and a real network
// delays, corrupts, truncates, and drops traffic; this package reproduces
// those failures on demand so the transport's deadlines, retries, and
// reconnection logic can be exercised — and so every chaos run is
// byte-for-byte reproducible from its seed.
//
// Faults are decided by a per-connection random stream derived from the
// injector seed and the connection's accept/wrap ordinal, consumed once
// per I/O operation in program order. To keep fault decisions independent
// of TCP segmentation, a wrapped connection's Read fills the caller's
// entire buffer (io.ReadFull semantics) before a fault is rolled; the
// framed transport always reads exact sizes, so the operation sequence —
// and therefore the fault sequence — is identical across runs.
package fault

import (
	"errors"
	"io"
	"math/rand"
	"net"
	"sync"
	"time"

	"repro/internal/netsim"
)

// Direction distinguishes the two fault directions of a connection.
type Direction int

// Fault directions: Send applies to data written by the wrapped side,
// Recv to data it reads.
const (
	Send Direction = iota
	Recv
)

// String returns the direction name.
func (d Direction) String() string {
	if d == Send {
		return "send"
	}
	return "recv"
}

// Kind enumerates injected fault kinds.
type Kind int

// Fault kinds.
const (
	// Delay holds an I/O operation for the configured extra latency.
	Delay Kind = iota
	// Drop blackholes the connection from this operation on: writes are
	// silently swallowed and reads never deliver data (a stalled peer).
	Drop
	// Corrupt flips one byte of the operation's payload.
	Corrupt
	// Truncate delivers a prefix of the operation and severs the
	// connection, so the peer observes a partial frame then EOF.
	Truncate
	// AcceptFail severs a connection immediately after accept.
	AcceptFail

	pass Kind = -1 // internal: no fault on this operation
)

// String returns the kind name.
func (k Kind) String() string {
	switch k {
	case Delay:
		return "delay"
	case Drop:
		return "drop"
	case Corrupt:
		return "corrupt"
	case Truncate:
		return "truncate"
	case AcceptFail:
		return "accept-fail"
	}
	return "none"
}

// Rates configures one direction of fault injection. Probabilities are per
// I/O operation (one frame write, or one exact-size read of the framed
// transport); they need not sum to 1 — the remainder is fault-free.
type Rates struct {
	// Drop is the probability that the connection blackholes from this
	// operation on.
	Drop float64
	// Corrupt is the probability that one payload byte is flipped.
	Corrupt float64
	// Truncate is the probability that only a prefix is delivered before
	// the connection is severed.
	Truncate float64
	// Delay is fixed extra latency added to every operation.
	Delay time.Duration
	// DelayJitter adds a uniform random extra in [0, DelayJitter).
	DelayJitter time.Duration
}

func (r Rates) total() float64 { return r.Drop + r.Corrupt + r.Truncate }

// active reports whether this direction can inject anything at all.
func (r Rates) active() bool { return r.total() > 0 || r.Delay > 0 || r.DelayJitter > 0 }

// Config configures an Injector.
type Config struct {
	// Seed makes every fault decision reproducible. Two injectors with the
	// same seed, driven by the same operation sequence, inject the same
	// faults at the same points.
	Seed int64
	// Send and Recv are the per-direction fault rates, from the wrapped
	// side's point of view.
	Send Rates
	Recv Rates
	// AcceptFail is the probability that a connection accepted through a
	// wrapped listener is severed immediately (the client sees an instant
	// EOF; the listener keeps accepting).
	AcceptFail float64
}

// Event records one injected fault.
type Event struct {
	// Seq is the event's position in the injector's log.
	Seq int
	// Conn is the wrap ordinal of the affected connection.
	Conn int
	// Dir is the direction of the affected operation.
	Dir Direction
	// Kind is the fault kind.
	Kind Kind
	// Bytes is the size of the affected I/O operation.
	Bytes int
	// Keep is the number of bytes delivered before the fault took effect
	// (truncate), or the flipped byte's offset (corrupt).
	Keep int
}

// Injector wraps connections and listeners with seeded fault injection and
// records every injected fault.
type Injector struct {
	cfg Config

	mu       sync.Mutex
	nextConn int
	events   []Event
	counts   map[Kind]int64
}

// New returns an injector for the given configuration.
func New(cfg Config) *Injector {
	return &Injector{cfg: cfg, counts: make(map[Kind]int64)}
}

// splitmix64 is the SplitMix64 mixer; it turns (seed, ordinal) pairs into
// independent well-distributed sub-seeds.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// WrapConn wraps a connection with fault injection. Connections are
// numbered in wrap order; each gets an independent random stream derived
// from the injector seed and its ordinal.
func (in *Injector) WrapConn(c net.Conn) net.Conn {
	in.mu.Lock()
	id := in.nextConn
	in.nextConn++
	in.mu.Unlock()
	sub := splitmix64(uint64(in.cfg.Seed) ^ splitmix64(uint64(id)+1))
	return &faultConn{
		Conn: c,
		inj:  in,
		id:   id,
		rng:  rand.New(rand.NewSource(int64(sub))),
	}
}

// WrapListener wraps a listener so every accepted connection is wrapped,
// and a fraction of accepts fail (the connection is severed immediately).
func (in *Injector) WrapListener(ln net.Listener) net.Listener {
	return &faultListener{Listener: ln, inj: in}
}

// Events returns a copy of the injected-fault log, in injection order.
func (in *Injector) Events() []Event {
	in.mu.Lock()
	defer in.mu.Unlock()
	return append([]Event(nil), in.events...)
}

// Count returns the number of injected faults of one kind.
func (in *Injector) Count(k Kind) int64 {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.counts[k]
}

// Total returns the total number of injected faults.
func (in *Injector) Total() int64 {
	in.mu.Lock()
	defer in.mu.Unlock()
	return int64(len(in.events))
}

func (in *Injector) record(ev Event) {
	in.mu.Lock()
	ev.Seq = len(in.events)
	in.events = append(in.events, ev)
	in.counts[ev.Kind]++
	in.mu.Unlock()
}

// acceptFails decides, purely from the seed and connection ordinal,
// whether an accepted connection fails at accept time.
func (in *Injector) acceptFails(id int) bool {
	p := in.cfg.AcceptFail
	if p <= 0 {
		return false
	}
	h := splitmix64(uint64(in.cfg.Seed) ^ splitmix64(uint64(id)+0xACC))
	return float64(h>>11)/float64(1<<53) < p
}

// FromModel derives wire-level fault rates from a simulated network model:
// the model's packet-loss probability becomes the drop rate (with smaller
// shares corrupted and truncated — loss on real links is more common than
// in-flight corruption), and the model's latency and jitter become
// injected delay. This lets a chaos run degrade the real transport the
// same way the simulator degrades the virtual clock.
func FromModel(m *netsim.Model) Rates {
	return Rates{
		Drop:        m.Loss,
		Corrupt:     m.Loss / 4,
		Truncate:    m.Loss / 8,
		Delay:       m.Latency,
		DelayJitter: time.Duration(m.Jitter * float64(m.Latency)),
	}
}

// errTruncated reports a write cut short by an injected truncation.
var errTruncated = errors.New("fault: connection severed after truncated write")

// faultConn injects faults on one connection. The transport serializes
// operations per connection, but mu still guards the random stream and
// blackhole state so misuse under -race stays clean.
type faultConn struct {
	net.Conn
	inj *Injector
	id  int

	mu   sync.Mutex
	rng  *rand.Rand
	dead bool
}

// plan consumes the connection's random stream for one operation and
// decides its fate. Called with mu held; the consumption order is fixed
// (jitter draw first when configured, then the fault roll, then the
// position draw when needed) so decisions are reproducible.
func (c *faultConn) plan(r Rates, n int) (kind Kind, pos int, delay time.Duration) {
	kind = pass
	delay = r.Delay
	if r.DelayJitter > 0 {
		delay += time.Duration(c.rng.Int63n(int64(r.DelayJitter)))
	}
	if t := r.total(); t > 0 {
		roll := c.rng.Float64()
		switch {
		case roll < r.Drop:
			kind = Drop
		case roll < r.Drop+r.Corrupt:
			kind = Corrupt
		case roll < t:
			kind = Truncate
		}
		if (kind == Corrupt || kind == Truncate) && n > 0 {
			pos = c.rng.Intn(n)
		}
	}
	if (kind == Corrupt || kind == Truncate) && n == 0 {
		kind = pass // nothing to corrupt or cut
	}
	return kind, pos, delay
}

func (c *faultConn) Write(b []byte) (int, error) {
	c.mu.Lock()
	if c.dead {
		c.mu.Unlock()
		return len(b), nil // blackholed: pretend the write succeeded
	}
	kind, pos, delay := c.plan(c.inj.cfg.Send, len(b))
	if kind == Drop {
		c.dead = true
	}
	c.mu.Unlock()
	if delay > 0 {
		time.Sleep(delay)
	}
	switch kind {
	case Drop:
		c.inj.record(Event{Conn: c.id, Dir: Send, Kind: Drop, Bytes: len(b)})
		return len(b), nil
	case Corrupt:
		dup := append([]byte(nil), b...)
		dup[pos] ^= 0xA5
		c.inj.record(Event{Conn: c.id, Dir: Send, Kind: Corrupt, Bytes: len(b), Keep: pos})
		return c.Conn.Write(dup)
	case Truncate:
		n, _ := c.Conn.Write(b[:pos])
		c.Conn.Close()
		c.inj.record(Event{Conn: c.id, Dir: Send, Kind: Truncate, Bytes: len(b), Keep: n})
		return n, errTruncated
	}
	if delay > 0 {
		c.inj.record(Event{Conn: c.id, Dir: Send, Kind: Delay, Bytes: len(b)})
	}
	return c.Conn.Write(b)
}

// Read fills the entire buffer (io.ReadFull semantics) so the number of
// fault decisions per frame does not depend on how TCP chunked the stream.
func (c *faultConn) Read(b []byte) (int, error) {
	c.mu.Lock()
	dead := c.dead
	c.mu.Unlock()
	if dead {
		return c.blackhole()
	}
	n, err := io.ReadFull(c.Conn, b)
	if err != nil {
		return n, err
	}
	c.mu.Lock()
	kind, pos, delay := c.plan(c.inj.cfg.Recv, n)
	if kind == Drop {
		c.dead = true
	}
	c.mu.Unlock()
	if delay > 0 {
		time.Sleep(delay)
	}
	switch kind {
	case Drop:
		// The data arrived but the injector pretends it never did.
		c.inj.record(Event{Conn: c.id, Dir: Recv, Kind: Drop, Bytes: n})
		return c.blackhole()
	case Corrupt:
		b[pos] ^= 0xA5
		c.inj.record(Event{Conn: c.id, Dir: Recv, Kind: Corrupt, Bytes: n, Keep: pos})
		return n, nil
	case Truncate:
		c.Conn.Close()
		c.inj.record(Event{Conn: c.id, Dir: Recv, Kind: Truncate, Bytes: n, Keep: pos})
		return pos, nil
	}
	if delay > 0 {
		c.inj.record(Event{Conn: c.id, Dir: Recv, Kind: Delay, Bytes: n})
	}
	return n, nil
}

// blackhole models a dead link: incoming data is discarded and the read
// blocks until the peer closes or the read deadline expires — exactly the
// stall that per-call deadlines exist to bound.
func (c *faultConn) blackhole() (int, error) {
	scratch := make([]byte, 4096)
	for {
		if _, err := c.Conn.Read(scratch); err != nil {
			return 0, err
		}
	}
}

// faultListener wraps every accepted connection and injects accept-time
// failures. An accept failure severs the new connection instead of
// returning an error, because transport servers treat Accept errors as
// shutdown; the client observes an immediate EOF and must retry.
type faultListener struct {
	net.Listener
	inj *Injector
}

func (l *faultListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	fc := l.inj.WrapConn(c).(*faultConn)
	if l.inj.acceptFails(fc.id) {
		// Record before closing: the client sees EOF as soon as the
		// connection closes, and may count the event right then.
		l.inj.record(Event{Conn: fc.id, Kind: AcceptFail})
		c.Close()
	}
	return fc, nil
}
