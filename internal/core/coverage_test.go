package core

import (
	"context"
	"math"
	"testing"

	"repro/internal/apps/quickstart"
	"repro/internal/com"
)

// TestCoverageGateQuickstart is the end-to-end acceptance test for the
// scenario-coverage gate: the quickstart application declares one
// activation site (Crunch -> View, a print-preview path) that the default
// training scenario never exercises. The coverage report must flag it,
// and installing the conservative constraints must keep the uncovered
// edge's endpoints co-located in the chosen distribution.
func TestCoverageGateQuickstart(t *testing.T) {
	t.Parallel()
	a := New(quickstart.New())
	if err := a.Instrument(); err != nil {
		t.Fatal(err)
	}
	prof, err := a.ProfileScenarios([]string{"default"}, false)
	if err != nil {
		t.Fatal(err)
	}
	cov := a.Reach.Coverage(prof)
	cov.InstallConstraints(a.AnalysisOptions.Constraints)
	if len(cov.Misses) != 0 {
		t.Fatalf("static misses on quickstart: %v", cov.Misses)
	}
	if got := cov.Percent(); math.Abs(got-75.0) > 0.01 {
		t.Errorf("coverage = %.1f%%, want 75.0%%", got)
	}
	var sawEdge bool
	for _, e := range cov.UncoveredEdges() {
		if e.Src == "Crunch" && e.Dst == "View" {
			sawEdge = true
		}
	}
	if !sawEdge {
		t.Fatalf("Crunch -> View not reported uncovered: %+v", cov.UncoveredEdges())
	}

	// The install step welded the unpriced edge into the constraint set.
	if _, ok := a.AnalysisOptions.Constraints.MustCoLocate("Crunch", "View"); !ok {
		t.Fatal("uncovered edge did not become a co-location constraint")
	}

	// And the chosen distribution honors it: every Crunch and View
	// classification lands on the same machine.
	res, err := a.Analyze(context.Background(), prof)
	if err != nil {
		t.Fatal(err)
	}
	machines := make(map[string]map[com.Machine]bool)
	for id, m := range res.Distribution {
		ci := prof.Classifications[id]
		if ci == nil {
			continue
		}
		if machines[ci.Class] == nil {
			machines[ci.Class] = make(map[com.Machine]bool)
		}
		machines[ci.Class][m] = true
	}
	if len(machines["Crunch"]) != 1 || len(machines["View"]) != 1 {
		t.Fatalf("split placements: Crunch=%v View=%v", machines["Crunch"], machines["View"])
	}
	for m := range machines["Crunch"] {
		if !machines["View"][m] {
			t.Errorf("Crunch on %v but View on %v", machines["Crunch"], machines["View"])
		}
	}

	// Property: conservative coverage constraints only remove cut options,
	// so the constrained min-cut can never be cheaper than the
	// unconstrained one.
	base, err := New(quickstart.New()).Analyze(context.Background(), prof)
	if err != nil {
		t.Fatal(err)
	}
	if res.Cut.Cost < base.Cut.Cost {
		t.Errorf("coverage constraints decreased cut cost: %v < %v", res.Cut.Cost, base.Cut.Cost)
	}
}
