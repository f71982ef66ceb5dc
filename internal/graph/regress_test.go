package graph

import (
	"strings"
	"testing"
)

// Regression: CoLocate used to overwrite the accumulated finite edge
// weight with an infinite one, corrupting TotalWeight, the edge's weight,
// and any later AddEdge accumulation on the pair. The constraint now lives
// in a side table and the communication weight survives.
func TestCoLocateKeepsAccumulatedWeight(t *testing.T) {
	t.Parallel()
	g := New()
	g.AddEdge("a", "b", 2500)
	g.CoLocate("a", "b")
	if got := g.EdgeCost("a", "b"); got != 2500 {
		t.Errorf("EdgeCost after CoLocate = %v, want 2.5µs", got)
	}
	if got, err := g.TotalWeight(); got != 2500 || err != nil {
		t.Errorf("TotalWeight after CoLocate = %v (err %v), want 2.5µs", got, err)
	}
	// Accumulation on the pair keeps working after the weld.
	g.AddEdge("b", "a", 1500)
	if got := g.EdgeCost("a", "b"); got != 4000 {
		t.Errorf("EdgeCost after post-weld AddEdge = %v, want 4µs", got)
	}
	// Welding first and pricing later also preserves the weight.
	g2 := New()
	g2.CoLocate("x", "y")
	g2.AddEdge("x", "y", 3)
	if got := g2.EdgeCost("x", "y"); got != 3 {
		t.Errorf("EdgeCost weld-then-price = %v, want 3", got)
	}
	if !g2.CoLocated("x", "y") || !g2.CoLocated("y", "x") {
		t.Error("CoLocated lost the constraint")
	}
	if g2.CoLocated("x", "z") || g2.CoLocated("nope", "x") {
		t.Error("CoLocated invented a constraint")
	}
	if g2.CoLocations() != 1 {
		t.Errorf("CoLocations = %d, want 1", g2.CoLocations())
	}
}

// Regression: Validate only rejected *directly* co-located nodes pinned to
// different machines; a transitive chain (A weld B, B weld C, A pinned
// client, C pinned server) passed validation and failed only deep inside
// cut extraction. Validation is now transitive via union-find.
func TestValidateTransitiveCoLocationChain(t *testing.T) {
	t.Parallel()
	g := New()
	g.Pin("a", SourceSide)
	g.Pin("c", SinkSide)
	g.CoLocate("a", "b")
	g.CoLocate("b", "c")
	err := g.Validate()
	if err == nil {
		t.Fatal("transitive contradictory chain passed Validate")
	}
	if !strings.Contains(err.Error(), "co-located") {
		t.Errorf("unexpected error: %v", err)
	}
	if _, err := g.MinCut(); err == nil {
		t.Fatal("transitive contradictory chain cut anyway")
	}
	// A longer feasible chain stays accepted and welds all four nodes.
	g2 := New()
	g2.Pin("a", SourceSide)
	g2.Pin("srv", SinkSide)
	g2.AddEdge("d", "srv", 2)
	g2.CoLocate("a", "b")
	g2.CoLocate("b", "c")
	g2.CoLocate("c", "d")
	if err := g2.Validate(); err != nil {
		t.Fatalf("feasible chain rejected: %v", err)
	}
	cut, err := g2.MinCut()
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []string{"b", "c", "d"} {
		if sideOf(cut, n) != SourceSide {
			t.Errorf("chained node %s not welded to pinned a: %v", n, sideOf(cut, n))
		}
	}
	if cut.Cost != 2 {
		t.Errorf("chain cut weight = %v, want 2", cut.Cost)
	}
}

// Assignment evaluation reports the true price of the edges a split
// co-location crosses plus an explicit violation count: the count, not an
// infinite price, is what marks the assignment infeasible.
func TestEvaluateAssignmentDetailSeparatesViolations(t *testing.T) {
	t.Parallel()
	g := New()
	g.AddEdge("a", "b", 2)
	g.AddEdge("b", "c", 3)
	g.CoLocate("a", "b")
	split := map[string]Side{"a": SourceSide, "b": SinkSide, "c": SinkSide}
	w, viol := g.EvaluateAssignmentDetail(split)
	if w != 2 || viol != 1 {
		t.Errorf("Detail = (%v, %d), want (2, 1)", w, viol)
	}
	ok := map[string]Side{"a": SourceSide, "b": SourceSide, "c": SinkSide}
	w, viol = g.EvaluateAssignmentDetail(ok)
	if w != 3 || viol != 0 {
		t.Errorf("Detail feasible = (%v, %d), want (3, 0)", w, viol)
	}
}
