package graph

import (
	"context"
	"errors"
	"fmt"
	"testing"
)

// cancelTestGraph builds a pinned two-terminal instance big enough that
// the push-relabel discharge loop actually runs.
func cancelTestGraph() *Graph {
	g := New()
	g.Pin("s", SourceSide)
	g.Pin("t", SinkSide)
	for i := 0; i < 50; i++ {
		n := fmt.Sprintf("n%02d", i)
		g.AddEdge("s", n, secs(1+float64(i%7)))
		g.AddEdge(n, "t", secs(1+float64(i%5)))
		if i > 0 {
			g.AddEdge(fmt.Sprintf("n%02d", i-1), n, secs(0.5))
		}
	}
	return g
}

// TestMinCutCtxCancelled: a pre-cancelled context must abort the cut with
// context.Canceled — the discharge loop polls before any work.
func TestMinCutCtxCancelled(t *testing.T) {
	t.Parallel()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := cancelTestGraph().MinCutCtx(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("MinCutCtx(cancelled) err = %v, want context.Canceled", err)
	}
}

// TestMinCutCtxBackgroundMatchesMinCut: the context-aware path must agree
// with the plain entry point weight for weight.
func TestMinCutCtxBackgroundMatchesMinCut(t *testing.T) {
	t.Parallel()
	a, err := cancelTestGraph().MinCut()
	if err != nil {
		t.Fatalf("MinCut: %v", err)
	}
	b, err := cancelTestGraph().MinCutCtx(context.Background())
	if err != nil {
		t.Fatalf("MinCutCtx: %v", err)
	}
	if a.Cost != b.Cost {
		t.Fatalf("weights diverge: MinCut %v vs MinCutCtx %v", a.Cost, b.Cost)
	}
}

// TestMultiwayCutCtxCancelled: cancellation propagates through the
// per-terminal isolating cuts.
func TestMultiwayCutCtxCancelled(t *testing.T) {
	t.Parallel()
	g := New()
	for i := 0; i < 30; i++ {
		g.AddEdge(fmt.Sprintf("a%02d", i), fmt.Sprintf("b%02d", i), 1)
		g.AddEdge(fmt.Sprintf("b%02d", i), fmt.Sprintf("c%02d", i), 2)
	}
	terms := []MultiwayTerminal{
		{Machine: "m1", Pinned: []string{"a00"}},
		{Machine: "m2", Pinned: []string{"b00"}},
		{Machine: "m3", Pinned: []string{"c00"}},
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := g.MultiwayCutCtx(ctx, terms); !errors.Is(err, context.Canceled) {
		t.Fatalf("MultiwayCutCtx(cancelled) err = %v, want context.Canceled", err)
	}
}
