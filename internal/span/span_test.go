package span

import (
	"context"
	"testing"
)

func TestSpansNest(t *testing.T) {
	t.Parallel()
	ctx, r := NewRecorder(context.Background())
	a := Begin(ctx, "a")
	b := Begin(ctx, "b")
	b.End()
	c := Begin(ctx, "c")
	d := Begin(ctx, "d")
	d.End()
	c.End()
	a.End()
	e := Begin(ctx, "e")
	e.End()

	want := []struct {
		name   string
		parent int
	}{{"a", -1}, {"b", 0}, {"c", 0}, {"d", 2}, {"e", -1}}
	spans := r.Spans()
	if len(spans) != len(want) {
		t.Fatalf("recorded %d spans, want %d: %+v", len(spans), len(want), spans)
	}
	for i, w := range want {
		s := spans[i]
		if s.Name != w.name || s.Parent != w.parent {
			t.Errorf("span %d = %s (parent %d), want %s (parent %d)", i, s.Name, s.Parent, w.name, w.parent)
		}
		if s.Start > s.End {
			t.Errorf("span %s ends at %v, before its start %v", s.Name, s.End, s.Start)
		}
		if p := s.Parent; p >= 0 && (s.Start < spans[p].Start || s.End > spans[p].End) {
			t.Errorf("span %s [%v, %v] lies outside its parent %s [%v, %v]",
				s.Name, s.Start, s.End, spans[p].Name, spans[p].Start, spans[p].End)
		}
	}
}

func TestSpansPastCapacityAreDropped(t *testing.T) {
	t.Parallel()
	ctx, r := NewRecorder(context.Background())
	for i := 0; i < len(r.spans)+3; i++ {
		Begin(ctx, "s").End()
	}
	if n := len(r.Spans()); n != len(r.spans) {
		t.Fatalf("recorded %d spans, want the capacity %d", n, len(r.spans))
	}
}

// TestStageSpansAllocs: a run's recorder is its only allocations (the
// recorder and the context that carries it), and a context without one
// records for free.
//
//lint:allow paralleltest AllocsPerRun is process-wide
func TestStageSpansAllocs(t *testing.T) {
	bg := context.Background()
	if n := testing.AllocsPerRun(100, func() {
		ctx, _ := NewRecorder(bg)
		for i := 0; i < 16; i++ {
			Begin(ctx, "stage").End()
		}
	}); n > 2 {
		t.Errorf("a recorder and 16 spans allocate %v objects, want at most 2", n)
	}
	if n := testing.AllocsPerRun(100, func() {
		Begin(bg, "stage").End()
	}); n != 0 {
		t.Errorf("a span on a context without a recorder allocates %v objects, want 0", n)
	}
}
