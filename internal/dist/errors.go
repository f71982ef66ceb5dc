package dist

import "errors"

// Typed delivery errors. A call that spends its attempts gives up with the
// one its last attempt came to, and a run with such a call fails wrapping
// ErrTimeout; callers classify failures with errors.Is.
var (
	// ErrTimeout marks a call that exceeded its per-attempt deadline: a
	// request or a reply was lost.
	ErrTimeout = errors.New("dist: call timed out")
	// ErrCorrupt marks a frame that failed its checksum.
	ErrCorrupt = errors.New("dist: corrupt frame")
)
