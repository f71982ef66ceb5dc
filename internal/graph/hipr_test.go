package graph

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// constrainedRandomGraph builds a seeded instance exercising everything
// the cut engine must handle at once: random finite edges, several pins
// per side, feasible co-location welds (installed with the same
// union-find guard the generator uses), and a free-floating component
// touching no terminal.
func constrainedRandomGraph(seed int64) *Graph {
	rng := rand.New(rand.NewSource(seed))
	g := New()
	n := 8 + rng.Intn(20)
	name := func(i int) string { return fmt.Sprintf("n%d", i) }
	for i := 0; i < n; i++ {
		g.Node(name(i))
	}
	for e := 0; e < n*3; e++ {
		a, b := rng.Intn(n), rng.Intn(n)
		if a != b {
			g.AddEdge(name(a), name(b), 0.1+rng.Float64()*5)
		}
	}
	side := make([]int8, n+3)
	for i := range side {
		side[i] = -1
	}
	uf := newUnionFind(n + 3)
	for p := 0; p < 2+rng.Intn(3); p++ {
		v := rng.Intn(n)
		if side[v] != -1 {
			continue
		}
		s := Side(p % 2)
		g.Pin(name(v), s)
		side[v] = int8(s)
	}
	for c := 0; c < rng.Intn(5); c++ {
		a, b := rng.Intn(n), rng.Intn(n)
		ra, rb := uf.find(a), uf.find(b)
		if ra == rb {
			continue
		}
		if side[ra] != -1 && side[rb] != -1 && side[ra] != side[rb] {
			continue
		}
		uf.union(ra, rb)
		merged := side[ra]
		if merged == -1 {
			merged = side[rb]
		}
		side[uf.find(ra)] = merged
		g.CoLocate(name(a), name(b))
	}
	// A free-floating pair plus an isolated node.
	g.AddEdge("float1", "float2", 1+rng.Float64())
	g.Node("lonely")
	return g
}

// TestPropertyHighestLabelMatchesOracles cross-checks the production CSR
// highest-label core against the independent Edmonds–Karp oracle on
// seeded random graphs with pins, co-locations, and free-floating
// components (the brute-force oracle is TestMinCutOptimalOverBruteForce).
func TestPropertyHighestLabelMatchesOracles(t *testing.T) {
	t.Parallel()
	for seed := int64(0); seed < 150; seed++ {
		g := constrainedRandomGraph(seed)
		if g.Validate() != nil {
			t.Fatalf("seed %d: generator produced an infeasible instance", seed)
		}
		hl, err := g.MinCut()
		if err != nil {
			t.Fatalf("seed %d: highest-label: %v", seed, err)
		}
		ek, err := g.MinCutEdmondsKarp()
		if err != nil {
			t.Fatalf("seed %d: edmonds-karp: %v", seed, err)
		}
		tol := 1e-6 * (1 + hl.Weight)
		if math.Abs(hl.Weight-ek.Weight) > tol {
			t.Fatalf("seed %d: weights diverge: hl=%v ek=%v", seed, hl.Weight, ek.Weight)
		}
		if math.Abs(hl.FlowValue-hl.Weight) > tol {
			t.Fatalf("seed %d: flow %v != weight %v", seed, hl.FlowValue, hl.Weight)
		}
		// Constraints respected: pins and welds, via the cut's own pricing.
		for i := 0; i < g.Len(); i++ {
			if s, ok := g.Pinned(g.Name(i)); ok && hl.Assignment[i] != s {
				t.Fatalf("seed %d: pin on %s violated", seed, g.Name(i))
			}
		}
		for _, k := range g.coloc {
			lo, hi := k.nodes()
			a, b := g.Name(lo), g.Name(hi)
			if sideOf(hl, a) != sideOf(hl, b) {
				t.Fatalf("seed %d: co-location %s,%s split", seed, a, b)
			}
		}
		// Free-floating components land on the client.
		for _, free := range []string{"float1", "float2", "lonely"} {
			if sideOf(hl, free) != SourceSide {
				t.Fatalf("seed %d: free node %s on %v", seed, free, sideOf(hl, free))
			}
		}
		if w := g.EvaluateAssignment(byName(hl)); math.Abs(w-hl.Weight) > tol {
			t.Fatalf("seed %d: assignment re-evaluates to %v, cut says %v", seed, w, hl.Weight)
		}
	}
}

func TestSynthesizeDeterministic(t *testing.T) {
	t.Parallel()
	cfg := SynthConfig{Nodes: 2000, Seed: 42}
	a := Synthesize(cfg)
	b := Synthesize(cfg)
	if a.Len() != b.Len() || a.Edges() != b.Edges() || a.Pins() != b.Pins() || a.CoLocations() != b.CoLocations() {
		t.Fatalf("same seed, different shape: %d/%d/%d/%d vs %d/%d/%d/%d",
			a.Len(), a.Edges(), a.Pins(), a.CoLocations(),
			b.Len(), b.Edges(), b.Pins(), b.CoLocations())
	}
	if a.TotalWeight() != b.TotalWeight() {
		t.Fatalf("same seed, different weights: %v vs %v", a.TotalWeight(), b.TotalWeight())
	}
	c := Synthesize(SynthConfig{Nodes: 2000, Seed: 43})
	if math.Abs(a.TotalWeight()-c.TotalWeight()) < 1e-12 {
		t.Fatal("different seeds produced identical weights")
	}
	cutA, err := a.MinCut()
	if err != nil {
		t.Fatal(err)
	}
	cutB, err := b.MinCut()
	if err != nil {
		t.Fatal(err)
	}
	// Equal graphs sum their crossing weights in the same store order.
	if cutA.Weight != cutB.Weight {
		t.Fatalf("same seed, different cuts: %v vs %v", cutA.Weight, cutB.Weight)
	}
}

// TestSynthesizeFeasibleAndExact: generated workloads always validate, and
// the production core agrees with the oracle on them at benchmark-relevant
// (if small) sizes.
func TestSynthesizeFeasibleAndExact(t *testing.T) {
	t.Parallel()
	for _, n := range []int{100, 500, 2000} {
		for seed := int64(1); seed <= 3; seed++ {
			g := Synthesize(SynthConfig{Nodes: n, Seed: seed})
			if err := g.Validate(); err != nil {
				t.Fatalf("n=%d seed=%d: %v", n, seed, err)
			}
			if g.Pins() < 2 || g.Edges() == 0 {
				t.Fatalf("n=%d seed=%d: degenerate workload (%d pins, %d edges)", n, seed, g.Pins(), g.Edges())
			}
			hl, err := g.MinCut()
			if err != nil {
				t.Fatal(err)
			}
			ek, err := g.MinCutEdmondsKarp()
			if err != nil {
				t.Fatal(err)
			}
			if math.Abs(hl.Weight-ek.Weight) > 1e-6*(1+hl.Weight) {
				t.Fatalf("n=%d seed=%d: hl %v vs ek %v", n, seed, hl.Weight, ek.Weight)
			}
		}
	}
}
