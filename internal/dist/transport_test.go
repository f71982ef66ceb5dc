package dist

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"testing"

	"repro/internal/idl"
)

func TestFrameRoundTrip(t *testing.T) {
	t.Parallel()
	var buf bytes.Buffer
	payload := []byte("hello frames")
	if err := writeFrame(&buf, payload); err != nil {
		t.Fatal(err)
	}
	got, err := readFrame(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("frame = %q", got)
	}
}

func TestFrameRejectsOversize(t *testing.T) {
	t.Parallel()
	var buf bytes.Buffer
	// Hand-craft a frame header claiming more than maxFrame bytes.
	hdr := []byte{0xFF, 0xFF, 0xFF, 0x7F, 0, 0, 0, 0}
	buf.Write(hdr)
	_, err := readFrame(&buf)
	if err == nil {
		t.Fatal("oversized frame accepted")
	}
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("oversized frame error = %v, want ErrCorrupt", err)
	}
}

func TestFrameRejectsChecksumMismatch(t *testing.T) {
	t.Parallel()
	var buf bytes.Buffer
	if err := writeFrame(&buf, []byte("payload under test")); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	data[len(data)-1] ^= 0xA5 // corrupt one payload byte
	_, err := readFrame(bytes.NewReader(data))
	if err == nil {
		t.Fatal("corrupt frame accepted")
	}
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("corrupt frame error = %v, want ErrCorrupt", err)
	}
}

func TestFrameTruncation(t *testing.T) {
	t.Parallel()
	var buf bytes.Buffer
	if err := writeFrame(&buf, []byte("abcdef")); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	for cut := 1; cut < len(data); cut++ {
		if _, err := readFrame(bytes.NewReader(data[:cut])); err == nil {
			t.Fatalf("truncated frame (%d/%d bytes) accepted", cut, len(data))
		}
	}
}

func TestServerDispatchErrors(t *testing.T) {
	t.Parallel()
	srv, err := Serve("127.0.0.1:0", nil) // nil handler
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	conn, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// Ping still works without a handler.
	if _, err := conn.Ping(16); err != nil {
		t.Fatal(err)
	}
	// Calls fail cleanly, with the typed remote error.
	_, err = conn.Call("I", 1, "M", nil)
	if err == nil {
		t.Fatal("call without handler succeeded")
	}
	if !errors.Is(err, ErrRemote) {
		t.Fatalf("handlerless call error = %v, want ErrRemote", err)
	}
	// Unknown opcode.
	if _, err := conn.roundTrip(99, "", nil); err == nil {
		t.Fatal("unknown opcode accepted")
	}
}

func TestConcurrentClients(t *testing.T) {
	t.Parallel()
	handler := func(iid string, inst uint64, method string, args []byte) ([]byte, error) {
		return idl.EncodeParams([]*idl.TypeDesc{idl.TInt64}, []idl.Value{idl.Int64(int64(inst))})
	}
	srv, err := Serve("127.0.0.1:0", handler)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	const clients = 8
	const callsPer = 50
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			conn, err := Dial(srv.Addr())
			if err != nil {
				errs <- err
				return
			}
			defer conn.Close()
			for i := 0; i < callsPer; i++ {
				ret, err := conn.Call("I", uint64(c), "Get", nil)
				if err != nil {
					errs <- err
					return
				}
				vals, err := idl.DecodeParams(ret, []*idl.TypeDesc{idl.TInt64}, nil)
				if err != nil {
					errs <- err
					return
				}
				if vals[0].AsInt() != int64(c) {
					errs <- fmt.Errorf("client %d got %d", c, vals[0].AsInt())
					return
				}
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

func TestServerCloseUnblocksClients(t *testing.T) {
	t.Parallel()
	srv, err := Serve("127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	conn, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	srv.Close()
	// After close, round trips fail rather than hang.
	if _, err := conn.Ping(8); err == nil {
		// The ping may race the close; a second attempt must fail.
		if _, err := conn.Ping(8); err == nil {
			t.Fatal("ping succeeded after server close")
		}
	}
}

func TestProxyRejectsNonRemotableInterface(t *testing.T) {
	t.Parallel()
	app := pipelineApp()
	app.Interfaces.Register(&idl.InterfaceDesc{
		IID: "ILocalOnly", Remotable: false,
		Methods: []idl.MethodDesc{{Name: "X", Result: idl.TVoid}},
	})
	conn := &Conn{}
	p := NewProxy(conn, app.Interfaces, "ILocalOnly", 1)
	if _, err := p.Invoke("X"); err == nil {
		t.Fatal("proxy invoked a non-remotable interface")
	}
	q := NewProxy(conn, app.Interfaces, "INoSuch", 1)
	if _, err := q.Invoke("X"); err == nil {
		t.Fatal("proxy invoked an unknown interface")
	}
	r := NewProxy(conn, app.Interfaces, "IStorage", 1)
	if _, err := r.Invoke("NoSuchMethod"); err == nil {
		t.Fatal("proxy invoked an unknown method")
	}
}
