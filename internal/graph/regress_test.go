package graph

import (
	"math"
	"strings"
	"testing"
)

// Regression: CoLocate used to overwrite the accumulated finite edge
// weight with +Inf, corrupting TotalWeight, EdgeWeight, and any later
// AddEdge accumulation on the pair. The constraint now lives in a side
// table and the communication weight survives.
func TestCoLocateKeepsAccumulatedWeight(t *testing.T) {
	t.Parallel()
	g := New()
	g.AddEdge("a", "b", 2.5)
	g.CoLocate("a", "b")
	if got := g.EdgeWeight("a", "b"); got != 2.5 {
		t.Errorf("EdgeWeight after CoLocate = %v, want 2.5", got)
	}
	if got := g.TotalWeight(); got != 2.5 {
		t.Errorf("TotalWeight after CoLocate = %v, want 2.5", got)
	}
	// Accumulation on the pair keeps working after the weld.
	g.AddEdge("b", "a", 1.5)
	if got := g.EdgeWeight("a", "b"); got != 4 {
		t.Errorf("EdgeWeight after post-weld AddEdge = %v, want 4", got)
	}
	if math.IsInf(g.TotalWeight(), 1) {
		t.Error("TotalWeight is infinite")
	}
	// Welding first and pricing later also preserves the weight.
	g2 := New()
	g2.CoLocate("x", "y")
	g2.AddEdge("x", "y", 3)
	if got := g2.EdgeWeight("x", "y"); got != 3 {
		t.Errorf("EdgeWeight weld-then-price = %v, want 3", got)
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
	if cut.Weight != 2 {
		t.Errorf("chain cut weight = %v, want 2", cut.Weight)
	}
}

// The co-location side table must keep behaving like the old infinite
// edge for assignment evaluation: splitting the pair is infinitely
// expensive, while the detailed evaluator reports the true finite price
// plus an explicit violation count.
func TestEvaluateAssignmentDetailSeparatesViolations(t *testing.T) {
	t.Parallel()
	g := New()
	g.AddEdge("a", "b", 2)
	g.AddEdge("b", "c", 3)
	g.CoLocate("a", "b")
	split := map[string]Side{"a": SourceSide, "b": SinkSide, "c": SinkSide}
	if got := g.EvaluateAssignment(split); !math.IsInf(got, 1) {
		t.Errorf("EvaluateAssignment split pair = %v, want +Inf", got)
	}
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
