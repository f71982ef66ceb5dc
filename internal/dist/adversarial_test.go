package dist

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/idl"
)

// serveEcho starts a server whose handler echoes the argument bytes.
func serveEcho(t *testing.T) *Server {
	t.Helper()
	srv, err := Serve("127.0.0.1:0", func(_ string, _ uint64, _ string, argBytes []byte) ([]byte, error) {
		return argBytes, nil
	})
	if err != nil {
		t.Fatalf("serve: %v", err)
	}
	t.Cleanup(srv.Close)
	return srv
}

// callBody builds a valid opCall body the way Conn.Call does.
func callBody(t *testing.T, iid string, instID uint64, method string, args []byte) []byte {
	t.Helper()
	e := idl.NewEncoder()
	for _, v := range []idl.Value{idl.String(iid), idl.Int64(int64(instID)), idl.String(method), idl.ByteBuf(args)} {
		if err := e.Encode(v); err != nil {
			t.Fatalf("encode: %v", err)
		}
	}
	return e.Bytes()
}

func TestDispatchNeverPanicsOnMalformedRequests(t *testing.T) {
	t.Parallel()
	s := &Server{calls: newDedup(), handler: func(string, uint64, string, []byte) ([]byte, error) {
		return []byte("ok"), nil
	}}
	cases := [][]byte{
		nil,
		{},
		{opCall},
		make([]byte, reqHdrLen-1),              // one byte short of a header
		reqFrame(opCall, 1, 1, nil),            // empty call body
		reqFrame(opCall, 1, 2, []byte("junk")), // body is not idl
		reqFrame(99, 1, 3, nil),                // unknown opcode
		reqFrame(0, 1, 4, nil),                 // zero opcode
		reqFrame(opCall, 1, 5, bytes.Repeat([]byte{0xFF}, 1024)),
		append(reqFrame(opCall, 1, 6, nil), 0x00),
	}
	for i, req := range cases {
		resp := s.dispatch(req)
		if len(resp) < 1 {
			t.Fatalf("case %d: empty response", i)
		}
		if resp[0] != statusOK && resp[0] != statusErr {
			t.Fatalf("case %d: invalid status byte %d", i, resp[0])
		}
	}
	// A well-formed request still works after the garbage.
	resp := s.dispatch(reqFrame(opCall, 1, 7, callBody(t, "I", 1, "m", nil)))
	if resp[0] != statusOK {
		t.Fatalf("valid request after garbage failed: %q", resp[1:])
	}
}

func TestRawMalformedFramesCloseConnection(t *testing.T) {
	t.Parallel()
	srv := serveEcho(t)
	send := func(name string, frame []byte) {
		nc, err := net.Dial("tcp", srv.Addr())
		if err != nil {
			t.Fatalf("%s: dial: %v", name, err)
		}
		defer nc.Close()
		if _, err := nc.Write(frame); err != nil {
			t.Fatalf("%s: write: %v", name, err)
		}
		// Half-close: the peer that sent a cut-off frame is gone.
		nc.(*net.TCPConn).CloseWrite()
		nc.SetReadDeadline(time.Now().Add(2 * time.Second))
		// The server must drop the connection, not answer or hang.
		if _, err := io.ReadAll(nc); err != nil {
			t.Fatalf("%s: server did not close cleanly: %v", name, err)
		}
	}

	oversize := make([]byte, frameHdrLen)
	binary.LittleEndian.PutUint32(oversize[0:4], maxFrame+1)
	send("oversized length prefix", oversize)

	bad := make([]byte, frameHdrLen+4)
	binary.LittleEndian.PutUint32(bad[0:4], 4)
	binary.LittleEndian.PutUint32(bad[4:8], 0xDEADBEEF) // wrong checksum
	send("checksum mismatch", bad)

	partial := make([]byte, frameHdrLen+2)
	binary.LittleEndian.PutUint32(partial[0:4], 100) // promises 100, sends 2
	send("truncated frame", partial)

	// The server keeps serving others after each of those.
	conn, err := Dial(srv.Addr())
	if err != nil {
		t.Fatalf("dial after garbage: %v", err)
	}
	defer conn.Close()
	if _, err := conn.Ping(16); err != nil {
		t.Fatalf("ping after garbage: %v", err)
	}
}

func TestRawShortRequestGetsErrorResponse(t *testing.T) {
	t.Parallel()
	srv := serveEcho(t)
	nc, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer nc.Close()
	// A well-framed payload that is shorter than a request header.
	if err := writeFrame(nc, []byte{opCall, 0, 0}); err != nil {
		t.Fatalf("write: %v", err)
	}
	nc.SetReadDeadline(time.Now().Add(2 * time.Second))
	resp, err := readFrame(nc)
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	if len(resp) < 1 || resp[0] != statusErr {
		t.Fatalf("short request got %v, want statusErr", resp)
	}
}

func TestFrameChecksumDetectsPayloadFlip(t *testing.T) {
	t.Parallel()
	payload := []byte("the integrity layer catches this")
	var buf bytes.Buffer
	if err := writeFrame(&buf, payload); err != nil {
		t.Fatalf("write: %v", err)
	}
	raw := buf.Bytes()
	raw[frameHdrLen+5] ^= 0xA5 // the fault injector's corruption
	if _, err := readFrame(bytes.NewReader(raw)); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("flipped payload read error = %v, want ErrCorrupt", err)
	}
	// Sanity: the checksum is the standard IEEE CRC of the payload.
	if got := binary.LittleEndian.Uint32(raw[4:8]); got != crc32.ChecksumIEEE(payload) {
		t.Fatalf("header checksum %#x != crc32(payload) %#x", got, crc32.ChecksumIEEE(payload))
	}
}

func TestServerCloseRacesInflightCalls(t *testing.T) {
	t.Parallel()
	started := make(chan struct{}, 16)
	srv, err := Serve("127.0.0.1:0", func(_ string, _ uint64, _ string, argBytes []byte) ([]byte, error) {
		started <- struct{}{}
		time.Sleep(50 * time.Millisecond)
		return argBytes, nil
	})
	if err != nil {
		t.Fatalf("serve: %v", err)
	}

	pol := CallPolicy{Timeout: time.Second, MaxAttempts: 2, Backoff: time.Millisecond}
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		conn, err := dial(srv.Addr(), pol, int64(i), tcpDial)
		if err != nil {
			t.Fatalf("dial %d: %v", i, err)
		}
		defer conn.Close()
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Either outcome is fine; what matters is no hang, no panic,
			// no race. Severed calls must return promptly.
			conn.Call("I", 1, "m", []byte("payload"))
		}()
	}
	// Close the server while the calls are executing.
	<-started
	srv.Close()
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("calls hung after server close")
	}
}

func TestManyConcurrentCallersOneConn(t *testing.T) {
	t.Parallel()
	srv := serveEcho(t)
	conn, err := Dial(srv.Addr())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer conn.Close()

	const goroutines, calls = 16, 25
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < calls; i++ {
				want := []byte(fmt.Sprintf("g%d-call%d", g, i))
				got, err := conn.Call("I", 1, "echo", want)
				if err != nil {
					errs <- fmt.Errorf("g%d call %d: %w", g, i, err)
					return
				}
				if !bytes.Equal(got, want) {
					errs <- fmt.Errorf("g%d call %d: got %q, want %q", g, i, got, want)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

func TestDedupSuppressesDuplicateExecution(t *testing.T) {
	t.Parallel()
	var execs atomic.Int64
	s := &Server{calls: newDedup(), handler: func(_ string, _ uint64, _ string, args []byte) ([]byte, error) {
		execs.Add(1)
		time.Sleep(20 * time.Millisecond) // widen the concurrent-duplicate window
		return args, nil
	}}
	req := reqFrame(opCall, 0xC11E17, 1, callBody(t, "I", 1, "m", []byte("once")))

	// Sequential duplicate: answered from the cache.
	first := s.dispatch(req)
	second := s.dispatch(req)
	if execs.Load() != 1 {
		t.Fatalf("duplicate request executed the handler %d times", execs.Load())
	}
	if !bytes.Equal(first, second) {
		t.Fatalf("duplicate got a different response: %q vs %q", first, second)
	}

	// Concurrent duplicates: the laggard waits for the original execution.
	req2 := reqFrame(opCall, 0xC11E17, 2, callBody(t, "I", 1, "m", []byte("twice")))
	var wg sync.WaitGroup
	resps := make([][]byte, 4)
	for i := range resps {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resps[i] = s.dispatch(req2)
		}(i)
	}
	wg.Wait()
	if got := execs.Load(); got != 2 {
		t.Fatalf("concurrent duplicates executed the handler %d times, want 2 total", got)
	}
	for i := 1; i < len(resps); i++ {
		if !bytes.Equal(resps[0], resps[i]) {
			t.Fatalf("concurrent duplicates disagree: %q vs %q", resps[0], resps[i])
		}
	}

	// A different sequence number is a new call.
	s.dispatch(reqFrame(opCall, 0xC11E17, 3, callBody(t, "I", 1, "m", nil)))
	if execs.Load() != 3 {
		t.Fatalf("new seq executed %d times total, want 3", execs.Load())
	}
}

// failFirstWrite breaks the first write on a connection, simulating a link
// reset between dial and use.
type failFirstWrite struct {
	net.Conn
	failed atomic.Bool
}

func (f *failFirstWrite) Write(b []byte) (int, error) {
	if f.failed.CompareAndSwap(false, true) {
		return 0, errors.New("injected: connection reset by peer")
	}
	return f.Conn.Write(b)
}

func TestRetryReconnectsAfterConnFailure(t *testing.T) {
	t.Parallel()
	srv := serveEcho(t)
	var dials atomic.Int32
	conn, err := dial(srv.Addr(), DefaultCallPolicy(), 1, func(addr string) (net.Conn, error) {
		nc, err := net.Dial("tcp", addr)
		if err != nil {
			return nil, err
		}
		if dials.Add(1) == 1 {
			return &failFirstWrite{Conn: nc}, nil
		}
		return nc, nil
	})
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer conn.Close()

	got, err := conn.Call("I", 1, "m", []byte("survives a reset"))
	if err != nil {
		t.Fatalf("call across reset: %v", err)
	}
	if string(got) != "survives a reset" {
		t.Fatalf("got %q", got)
	}
	if dials.Load() != 2 {
		t.Fatalf("dialer called %d times, want 2", dials.Load())
	}
}

func TestTimeoutErrorTyped(t *testing.T) {
	t.Parallel()
	release := make(chan struct{})
	srv, err := Serve("127.0.0.1:0", func(string, uint64, string, []byte) ([]byte, error) {
		<-release
		return nil, nil
	})
	if err != nil {
		t.Fatalf("serve: %v", err)
	}
	defer srv.Close()
	defer close(release)

	conn, err := Dial(srv.Addr())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer conn.Close()

	conn.policy.Timeout, conn.policy.MaxAttempts = 50*time.Millisecond, 1
	_, err = conn.Call("I", 1, "slow", nil)
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("err = %v, want ErrTimeout", err)
	}
	var te *TransportError
	if !errors.As(err, &te) {
		t.Fatalf("err = %T, want *TransportError", err)
	}
	if te.Attempts != 1 || te.Method != "slow" || te.Addr != srv.Addr() {
		t.Fatalf("TransportError context = %+v", te)
	}
}

func TestRemoteErrorNotRetried(t *testing.T) {
	t.Parallel()
	var execs atomic.Int64
	srv, err := Serve("127.0.0.1:0", func(string, uint64, string, []byte) ([]byte, error) {
		execs.Add(1)
		return nil, errors.New("application says no")
	})
	if err != nil {
		t.Fatalf("serve: %v", err)
	}
	defer srv.Close()

	conn, err := Dial(srv.Addr()) // default policy: 4 attempts
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer conn.Close()

	_, err = conn.Call("I", 1, "m", nil)
	if !errors.Is(err, ErrRemote) {
		t.Fatalf("err = %v, want ErrRemote", err)
	}
	if execs.Load() != 1 {
		t.Fatalf("remote error retried: handler ran %d times", execs.Load())
	}
	var te *TransportError
	if !errors.As(err, &te) || te.Attempts != 1 {
		t.Fatalf("remote error reports %+v, want 1 attempt", te)
	}
}
