package dist

import "errors"

// Typed run errors. A call that spends its attempts gives up with the
// one its last attempt came to, and a run with such a call fails wrapping
// ErrTimeout; a run whose clock overflows fails wrapping ErrClockOverflow.
// Callers classify failures with errors.Is.
var (
	// ErrTimeout marks a call that exceeded its per-attempt deadline: a
	// request or a reply was lost.
	ErrTimeout = errors.New("dist: call timed out")
	// ErrCorrupt marks a frame that failed its checksum.
	ErrCorrupt = errors.New("dist: corrupt frame")
	// ErrClockOverflow marks a run whose virtual time, compute plus
	// communication, would pass the largest time.Duration; the run is
	// priced up to the last charge that fit.
	ErrClockOverflow = errors.New("dist: virtual clock overflow")
)
