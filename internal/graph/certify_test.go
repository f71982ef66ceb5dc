package graph

import (
	"context"
	"errors"
	"testing"
)

// chainGraph is client* --10-- a --1-- b --10-- server*: the minimum cut
// severs a-b, so its cost and its max flow are both 1.
func chainGraph() *Graph {
	g := New()
	g.AddEdge("client", "a", 10)
	g.AddEdge("a", "b", 1)
	g.AddEdge("b", "server", 10)
	g.Pin("client", SourceSide)
	g.Pin("server", SinkSide)
	g.settle()
	return g
}

// TestFlowMismatchIsAnError: both extractors hold a cut's crossing cost to
// the flow of the solve it was read from, and return ErrFlowMismatch
// instead of a cut when they differ — whether the stored flow or an arc's
// residual was corrupted after the solve.
func TestFlowMismatchIsAnError(t *testing.T) {
	t.Parallel()
	ctx := context.Background()
	wantMismatch := func(step string, c *Cut, err error) {
		t.Helper()
		if !errors.Is(err, ErrFlowMismatch) || c != nil {
			t.Fatalf("%s: got cut %v, err %v; want ErrFlowMismatch", step, c != nil, err)
		}
	}
	g := chainGraph()

	// The arena: a corrupted stored flow, read back by the reuse path.
	a := NewCutArena()
	if c, err := g.MinCutArena(ctx, a); err != nil || c.Cost != 1 {
		t.Fatalf("first cut: cost %v, err %v; want 1", c.Cost, err)
	}
	a.flow++
	c, err := g.MinCutArena(ctx, a)
	wantMismatch("reused cut after the stored flow moved", c, err)

	// The arena: the saturated arc a->b given back residual capacity, so
	// a reaches t and the cut read off the residual network moves.
	a = NewCutArena()
	if _, err := g.MinCutArena(ctx, a); err != nil {
		t.Fatal(err)
	}
	u, v := int32(g.index["a"]), int32(g.index["b"])
	for arc := a.net.head[u]; arc < a.net.head[u+1]; arc++ {
		if a.net.to[arc] == v {
			if a.net.cap[arc] != 0 {
				t.Fatalf("crossing arc a->b has residual %v after the solve, want 0", a.net.cap[arc])
			}
			a.net.cap[arc] = 1
		}
	}
	a.net.distToSink(&a.st)
	c, err = a.extractCut(g)
	wantMismatch("arena extractor after a crossing residual moved", c, err)

	// The oracle: a total that is not the flow, then the unsaturated arc
	// client->a saturated, so s no longer reaches a and the cut moves.
	f, err := g.build()
	if err != nil {
		t.Fatal(err)
	}
	flow := f.maxFlowEdmondsKarp()
	if c, err := g.extractCutSides(f.minCutSides(), flow); err != nil || c.Cost != flow {
		t.Fatalf("oracle cut: cost %v, err %v; want the flow %v", c.Cost, err, flow)
	}
	c, err = g.extractCutSides(f.minCutSides(), flow+1)
	wantMismatch("oracle extractor with another total", c, err)
	client := g.index["client"]
	for i := range f.arcs[client] {
		if f.arcs[client][i].to == int(u) {
			f.arcs[client][i].cap = 0
		}
	}
	c, err = g.extractCutSides(f.minCutSides(), flow)
	wantMismatch("oracle extractor after a crossing residual moved", c, err)
}
