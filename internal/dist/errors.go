package dist

import (
	"errors"
	"fmt"
)

// Typed transport errors. Callers classify failures with errors.Is; every
// error returned by Conn.Call / Conn.Ping wraps one of these (or
// net.ErrClosed once the Conn is closed), joined with the last attempt's
// I/O error, inside a TransportError carrying the address, method, and
// attempt count.
var (
	// ErrTimeout marks a call that exceeded its per-attempt deadline — a
	// stalled peer, a blackholed link, or a dead server.
	ErrTimeout = errors.New("dist: call timed out")
	// ErrRemote marks a call the server executed and answered with an
	// application-level error. Remote errors are never retried: the call
	// reached the handler.
	ErrRemote = errors.New("dist: remote error")
	// ErrCorrupt marks a frame that failed integrity checks (a checksum
	// mismatch, an oversized length prefix, or an empty response) or a
	// link severed mid-call.
	ErrCorrupt = errors.New("dist: corrupt frame")
)

// TransportError wraps a transport failure with call context.
type TransportError struct {
	// Addr is the remote address of the connection.
	Addr string
	// Method is the invoked method ("ping" for pings, "" for raw frames).
	Method string
	// Attempts is how many times the call was attempted before giving up.
	Attempts int
	// Err is the final underlying error; it wraps ErrTimeout, ErrRemote,
	// ErrCorrupt or net.ErrClosed.
	Err error
}

// Error implements error.
func (e *TransportError) Error() string {
	m := e.Method
	if m == "" {
		m = "<frame>"
	}
	return fmt.Sprintf("dist: %s to %s failed after %d attempt(s): %v", m, e.Addr, e.Attempts, e.Err)
}

// Unwrap exposes the underlying error to errors.Is / errors.As.
func (e *TransportError) Unwrap() error { return e.Err }
