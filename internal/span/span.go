// Package span records where a run's time goes, stage by stage. A run
// puts one Recorder on its context, and each stage it reaches brackets its
// work with Begin and End. A context without a recorder records nothing
// and costs nothing, so no stage needs a switch.
//
// A span reads the monotonic clock and nothing else. Heap bytes per span
// would need runtime/metrics, whose first Read builds a table the process
// keeps for good (about 9 KB), more than a small run's live-heap budget.
package span

import (
	"context"
	"time"
)

// Span is one recorded stage.
type Span struct {
	Name string
	// Parent is the index of the enclosing span among the run's spans,
	// or -1 for a top-level stage.
	Parent int
	// Start and End are monotonic-clock offsets from the recorder's start.
	Start, End time.Duration
}

// Recorder holds one run's spans in one fixed-size allocation; a span
// begun past its capacity is not recorded. It is not safe for concurrent
// use: a run's stages execute one after another, and a span's parent is
// the innermost span still open.
type Recorder struct {
	origin time.Time
	spans  [16]Span
	n      int
	open   int // innermost open span, or -1
}

type recorderKey struct{}

// NewRecorder returns ctx carrying a fresh recorder, and the recorder.
func NewRecorder(ctx context.Context) (context.Context, *Recorder) {
	r := &Recorder{origin: time.Now(), open: -1}
	return context.WithValue(ctx, recorderKey{}, r), r
}

// Spans returns the recorded spans in the order they began, so a parent
// precedes its children and the top-level stages appear in run order.
func (r *Recorder) Spans() []Span { return r.spans[:r.n:r.n] }

// Active is a begun span; End closes it. The zero Active records nothing.
type Active struct {
	r *Recorder
	i int
}

// Begin opens a span named name inside the innermost open span of ctx's
// recorder. Without a recorder it returns the zero Active.
func Begin(ctx context.Context, name string) Active {
	r, _ := ctx.Value(recorderKey{}).(*Recorder)
	if r == nil || r.n == len(r.spans) {
		return Active{}
	}
	r.spans[r.n] = Span{Name: name, Parent: r.open, Start: time.Since(r.origin)}
	r.open = r.n
	r.n++
	return Active{r, r.open}
}

// End closes the span; its parent becomes the innermost open span again.
func (a Active) End() {
	if a.r == nil {
		return
	}
	s := &a.r.spans[a.i]
	s.End = time.Since(a.r.origin)
	a.r.open = s.Parent
}
