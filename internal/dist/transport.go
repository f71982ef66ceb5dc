package dist

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math/rand"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/com"
	"repro/internal/idl"
)

// The loopback transport is a working DCOM stand-in over TCP: method calls
// are marshaled by proxies with the NDR-like codec, framed, dispatched to
// a stub that invokes the real component, and the results marshaled back.
// The network profiler can also measure real message round trips through
// it.
//
// Wire format. A frame is [len u32][crc32 u32][payload]; the checksum
// lets the receiver distinguish in-flight corruption (ErrCorrupt, safe to
// retry) from application errors (ErrRemote, never retried). A request
// payload is [opcode][clientID u64][seq u64][body]: the opcode selects
// call or ping, and the (clientID, seq) pair keys the server's
// at-most-once dedup so retried calls are never re-executed. A response
// payload is [status][body].

const (
	opCall = 1
	opPing = 2

	statusOK  = 0
	statusErr = 1

	maxFrame = 16 << 20

	frameHdrLen = 8  // length + checksum
	reqHdrLen   = 17 // opcode + clientID + seq
)

func writeFrame(w io.Writer, payload []byte) error {
	// One buffer, one Write: a frame is a single I/O operation, so a
	// wrapped conn sees whole frames.
	buf := make([]byte, frameHdrLen+len(payload))
	binary.LittleEndian.PutUint32(buf[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(buf[4:8], crc32.ChecksumIEEE(payload))
	copy(buf[frameHdrLen:], payload)
	_, err := w.Write(buf)
	return err
}

func readFrame(r io.Reader) ([]byte, error) {
	var hdr [frameHdrLen]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	n := binary.LittleEndian.Uint32(hdr[0:4])
	if n > maxFrame {
		return nil, errors.Join(ErrCorrupt, fmt.Errorf("frame of %d bytes exceeds limit", n))
	}
	sum := binary.LittleEndian.Uint32(hdr[4:8])
	buf := make([]byte, n)
	if _, err := io.ReadFull(r, buf); err != nil {
		return nil, err
	}
	if crc32.ChecksumIEEE(buf) != sum {
		return nil, errors.Join(ErrCorrupt, errors.New("frame checksum mismatch"))
	}
	return buf, nil
}

// reqFrame builds a request payload with the transport header.
func reqFrame(op byte, clientID, seq uint64, body []byte) []byte {
	buf := make([]byte, reqHdrLen+len(body))
	buf[0] = op
	binary.LittleEndian.PutUint64(buf[1:9], clientID)
	binary.LittleEndian.PutUint64(buf[9:17], seq)
	copy(buf[reqHdrLen:], body)
	return buf
}

// CallHandler dispatches one unmarshaled-by-the-stub call.
type CallHandler func(iid string, instID uint64, method string, argBytes []byte) (retBytes []byte, err error)

// Server accepts transport connections and dispatches calls to a handler.
type Server struct {
	ln      net.Listener
	handler CallHandler
	calls   *dedup
	wg      sync.WaitGroup
	mu      sync.Mutex
	conns   map[net.Conn]struct{}
	closed  bool
}

// Serve starts a server on addr (e.g. "127.0.0.1:0").
func Serve(addr string, h CallHandler) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	return serve(ln, h), nil
}

// serve starts a server accepting from ln.
func serve(ln net.Listener, h CallHandler) *Server {
	s := &Server{ln: ln, handler: h, calls: newDedup(), conns: make(map[net.Conn]struct{})}
	s.wg.Add(1)
	go s.acceptLoop()
	return s
}

// Addr returns the server's listen address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Close stops the server, severs live connections, and waits for their
// handlers to finish.
func (s *Server) Close() {
	s.mu.Lock()
	s.closed = true
	s.ln.Close()
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
	s.wg.Wait()
}

// track registers a live connection; it reports false when the server is
// already closed (the connection is closed instead).
func (s *Server) track(c net.Conn) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		c.Close()
		return false
	}
	s.conns[c] = struct{}{}
	return true
}

func (s *Server) untrack(c net.Conn) {
	s.mu.Lock()
	delete(s.conns, c)
	s.mu.Unlock()
}

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return
		}
		if !s.track(conn) {
			return
		}
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			defer s.untrack(conn)
			defer conn.Close()
			s.serveConn(conn)
		}()
	}
}

func (s *Server) serveConn(conn net.Conn) {
	for {
		req, err := readFrame(conn)
		if err != nil {
			return
		}
		resp := s.dispatch(req)
		if err := writeFrame(conn, resp); err != nil {
			return
		}
	}
}

func fail(msg string) []byte {
	out := []byte{statusErr}
	return append(out, msg...)
}

// dispatch executes one request payload and returns the response payload.
// It must never panic, whatever the bytes: the frame layer only guarantees
// integrity (checksum), not well-formedness.
func (s *Server) dispatch(req []byte) []byte {
	if len(req) < reqHdrLen {
		return fail("short request")
	}
	op := req[0]
	clientID := binary.LittleEndian.Uint64(req[1:9])
	seq := binary.LittleEndian.Uint64(req[9:17])
	body := req[reqHdrLen:]
	switch op {
	case opPing:
		// Pings are idempotent; no dedup.
		out := []byte{statusOK}
		return append(out, body...)
	case opCall:
		e, first := s.calls.begin(clientID, seq)
		if !first {
			return e.resp
		}
		resp := s.execCall(body)
		s.calls.finish(e, resp)
		return resp
	default:
		return fail(fmt.Sprintf("unknown opcode %d", op))
	}
}

// execCall decodes and executes one call body (at most once per request:
// dispatch consults the dedup cache first).
func (s *Server) execCall(body []byte) []byte {
	d := idl.NewDecoder(body, nil)
	iidV, err := d.Decode(idl.TString)
	if err != nil {
		return fail(err.Error())
	}
	instV, err := d.Decode(idl.TInt64)
	if err != nil {
		return fail(err.Error())
	}
	methodV, err := d.Decode(idl.TString)
	if err != nil {
		return fail(err.Error())
	}
	argsV, err := d.Decode(idl.TBytes)
	if err != nil {
		return fail(err.Error())
	}
	if s.handler == nil {
		return fail("no handler")
	}
	rets, err := s.handler(iidV.Str, uint64(instV.Int), methodV.Str, argsV.Bytes)
	if err != nil {
		return fail(err.Error())
	}
	out := []byte{statusOK}
	return append(out, rets...)
}

// Conn is a client connection to a transport server. Calls run under a
// per-attempt deadline and are retried per the connection's CallPolicy,
// transparently reconnecting when the link breaks; request sequence
// numbers plus the server's at-most-once dedup make retries safe.
type Conn struct {
	addr     string
	policy   CallPolicy
	dialFn   func(addr string) (net.Conn, error)
	clientID uint64

	// mu serializes round trips: the protocol has one call in flight per
	// connection, like a synchronous DCOM channel.
	mu    sync.Mutex
	seq   uint64
	rng   *rand.Rand
	sleep func(time.Duration) // waits out a backoff; tests replace it

	// connMu guards the underlying conn so Close can sever an in-flight
	// call from another goroutine without racing reconnection.
	connMu sync.Mutex
	c      net.Conn
	closed bool
}

// clientSeq distinguishes connections of one process; mixed with the pid
// it forms default client identities without any coordination.
var clientSeq atomic.Uint64

func splitmixID(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Dial connects to a transport server over TCP under the default call
// policy.
func Dial(addr string) (*Conn, error) {
	seed := int64(uint64(os.Getpid())<<32 ^ clientSeq.Add(1))
	return dial(addr, DefaultCallPolicy(), seed, tcpDial)
}

func tcpDial(addr string) (net.Conn, error) { return net.DialTimeout("tcp", addr, 2*time.Second) }

// dial connects through dialFn, which also redials a broken link, with
// pol as every call's policy. seed fixes the client identity and the
// backoff jitter, so a seeded connection's retry schedule reproduces.
func dial(addr string, pol CallPolicy, seed int64, dialFn func(addr string) (net.Conn, error)) (*Conn, error) {
	c := &Conn{
		addr:     addr,
		policy:   pol,
		dialFn:   dialFn,
		clientID: splitmixID(uint64(seed)),
		rng:      rand.New(rand.NewSource(seed)),
		sleep:    time.Sleep,
	}
	nc, err := dialFn(addr)
	if err != nil {
		return nil, err
	}
	c.c = nc
	return c, nil
}

// Close closes the connection; an in-flight call fails without retrying.
func (c *Conn) Close() error {
	c.connMu.Lock()
	defer c.connMu.Unlock()
	c.closed = true
	if c.c != nil {
		err := c.c.Close()
		c.c = nil
		return err
	}
	return nil
}

// acquire returns the live underlying connection, redialing when the
// previous one was discarded after a failure.
func (c *Conn) acquire() (net.Conn, error) {
	c.connMu.Lock()
	defer c.connMu.Unlock()
	if c.closed {
		return nil, net.ErrClosed
	}
	if c.c != nil {
		return c.c, nil
	}
	nc, err := c.dialFn(c.addr)
	if err != nil {
		return nil, err
	}
	c.c = nc
	return nc, nil
}

// discard drops a broken underlying connection so the next attempt
// redials.
func (c *Conn) discard(nc net.Conn) {
	c.connMu.Lock()
	if c.c == nc {
		c.c = nil
	}
	c.connMu.Unlock()
	nc.Close()
}

// attempt performs one framed round trip under a deadline and says what
// it came to: the reply body, or why there is none. An expired deadline is
// a drop; a failed checksum, an empty response or any other I/O failure (a
// severed link, a failed redial) a corruption; the error status the
// server's refusal.
func (c *Conn) attempt(req []byte, timeout time.Duration) ([]byte, outcome, error) {
	var resp []byte
	nc, err := c.acquire()
	if err == nil {
		//lint:allow wallclock socket deadlines are real time, not virtual time
		nc.SetDeadline(time.Now().Add(timeout))
		if err = writeFrame(nc, req); err == nil {
			resp, err = readFrame(nc)
		}
		if err != nil {
			c.discard(nc)
		}
	}
	var ne net.Error
	switch {
	case errors.Is(err, net.ErrClosed):
		return nil, closed, err
	case errors.As(err, &ne) && ne.Timeout():
		return nil, dropped, err
	case err != nil:
		return nil, corrupted, err
	case len(resp) == 0:
		return nil, corrupted, errors.New("empty response")
	case resp[0] == statusErr:
		return nil, refused, errors.New(string(resp[1:]))
	}
	return resp[1:], delivered, nil
}

// roundTrip sends one request and returns the response body: the real
// driver of the delivery state machine (CallPolicy.run), feeding it socket
// outcomes and sleeping its backoffs.
func (c *Conn) roundTrip(op byte, method string, body []byte) ([]byte, error) {
	pol := c.policy.withDefaults()
	c.mu.Lock()
	defer c.mu.Unlock()
	req := reqFrame(op, c.clientID, c.seq, body)
	c.seq++
	var resp []byte
	var last error
	attempts, err := pol.run(c.rng, func(int) outcome {
		var o outcome
		resp, o, last = c.attempt(req, pol.Timeout)
		return o
	}, c.sleep)
	if err == nil {
		return resp, nil
	}
	if !errors.Is(last, err) {
		last = errors.Join(err, last)
	}
	return nil, &TransportError{Addr: c.addr, Method: method, Attempts: attempts, Err: last}
}

// Call invokes a remote method with pre-encoded parameters.
func (c *Conn) Call(iid string, instID uint64, method string, argBytes []byte) ([]byte, error) {
	e := idl.NewEncoder()
	if err := e.Encode(idl.String(iid)); err != nil {
		return nil, err
	}
	if err := e.Encode(idl.Int64(int64(instID))); err != nil {
		return nil, err
	}
	if err := e.Encode(idl.String(method)); err != nil {
		return nil, err
	}
	if err := e.Encode(idl.ByteBuf(argBytes)); err != nil {
		return nil, err
	}
	return c.roundTrip(opCall, method, e.Bytes())
}

// Ping measures one round trip carrying a payload of the given size; the
// network profiler samples it to build a profile of a real transport.
func (c *Conn) Ping(size int) (time.Duration, error) {
	payload := make([]byte, size)
	//lint:allow wallclock Ping measures real network round-trip time
	start := time.Now()
	if _, err := c.roundTrip(opPing, "ping", payload); err != nil {
		return 0, err
	}
	return time.Since(start), nil
}

// Proxy is the client-side stand-in for a remote component interface. It
// implements idl.InterfacePtr, so proxies flow through parameters exactly
// like local interface pointers.
type Proxy struct {
	conn   *Conn
	reg    *idl.Registry
	iid    string
	instID uint64
}

// NewProxy returns a proxy for a remote instance's interface.
func NewProxy(conn *Conn, reg *idl.Registry, iid string, instID uint64) *Proxy {
	return &Proxy{conn: conn, reg: reg, iid: iid, instID: instID}
}

// IID implements idl.InterfacePtr.
func (p *Proxy) IID() string { return p.iid }

// InstanceID implements idl.InterfacePtr.
func (p *Proxy) InstanceID() uint64 { return p.instID }

// Invoke marshals the call, sends it, and unmarshals the results. The
// reply convention is the out-parameter list followed by the result value
// when the method's result is not void.
func (p *Proxy) Invoke(method string, args ...idl.Value) ([]idl.Value, error) {
	desc := p.reg.Lookup(p.iid)
	if desc == nil {
		return nil, fmt.Errorf("dist: proxy has no metadata for %s", p.iid)
	}
	if !desc.Remotable {
		return nil, fmt.Errorf("dist: interface %s is not remotable", p.iid)
	}
	m := desc.Method(method)
	if m == nil {
		return nil, fmt.Errorf("dist: %s has no method %s", p.iid, method)
	}
	inTypes := paramTypes(m.InParams())
	argBytes, err := idl.EncodeParams(inTypes, args)
	if err != nil {
		return nil, err
	}
	retBytes, err := p.conn.Call(p.iid, p.instID, method, argBytes)
	if err != nil {
		return nil, err
	}
	return idl.DecodeParams(retBytes, replyTypes(m), proxyResolver{p.conn, p.reg})
}

// proxyResolver turns object references in replies into further proxies.
type proxyResolver struct {
	conn *Conn
	reg  *idl.Registry
}

// ResolveObjRef implements idl.Resolver.
func (r proxyResolver) ResolveObjRef(iid string, instanceID uint64) (idl.InterfacePtr, error) {
	return NewProxy(r.conn, r.reg, iid, instanceID), nil
}

func paramTypes(ps []idl.ParamDesc) []*idl.TypeDesc {
	out := make([]*idl.TypeDesc, len(ps))
	for i := range ps {
		out[i] = ps[i].Type
	}
	return out
}

func replyTypes(m *idl.MethodDesc) []*idl.TypeDesc {
	types := paramTypes(m.OutParams())
	if m.Result != nil && m.Result.Kind != idl.KindVoid {
		types = append(types, m.Result)
	}
	return types
}

// Stub is the server-side dispatcher: it unmarshals parameters, invokes
// the real component through the environment, and marshals the results.
type Stub struct {
	env *com.Env
}

// NewStub returns a stub over the environment hosting the real instances.
func NewStub(env *com.Env) *Stub { return &Stub{env: env} }

// Handle implements CallHandler.
func (s *Stub) Handle(iid string, instID uint64, method string, argBytes []byte) ([]byte, error) {
	reg := s.env.App().Interfaces
	desc := reg.Lookup(iid)
	if desc == nil {
		return nil, fmt.Errorf("dist: stub has no metadata for %s", iid)
	}
	m := desc.Method(method)
	if m == nil {
		return nil, fmt.Errorf("dist: %s has no method %s", iid, method)
	}
	inst := s.env.Instance(instID)
	if inst == nil {
		return nil, fmt.Errorf("dist: no instance %d", instID)
	}
	args, err := idl.DecodeParams(argBytes, paramTypes(m.InParams()), stubResolver{s.env})
	if err != nil {
		return nil, err
	}
	itf, err := s.env.Query(inst, iid)
	if err != nil {
		return nil, err
	}
	rets, err := s.env.Call(nil, itf, method, args...)
	if err != nil {
		return nil, err
	}
	types := replyTypes(m)
	if len(rets) != len(types) {
		return nil, fmt.Errorf("dist: %s.%s returned %d values, reply signature has %d",
			iid, method, len(rets), len(types))
	}
	return idl.EncodeParams(types, rets)
}

// stubResolver resolves object references in requests to local instances.
type stubResolver struct {
	env *com.Env
}

// ResolveObjRef implements idl.Resolver.
func (r stubResolver) ResolveObjRef(iid string, instanceID uint64) (idl.InterfacePtr, error) {
	inst := r.env.Instance(instanceID)
	if inst == nil {
		return nil, fmt.Errorf("dist: object reference to unknown instance %d", instanceID)
	}
	return r.env.Query(inst, iid)
}
