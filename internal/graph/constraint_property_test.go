package graph

import (
	"fmt"
	"math/rand"
	"testing"
)

// randomGraph builds a connected random graph with a pinned source node
// "n0" and sink node "n1".
func randomGraph(r *rand.Rand, nodes int) *Graph {
	g := New()
	for i := 0; i < nodes; i++ {
		g.Node(fmt.Sprintf("n%d", i))
	}
	g.Pin("n0", SourceSide)
	g.Pin("n1", SinkSide)
	// A spanning chain keeps the graph connected, then random extra edges.
	for i := 1; i < nodes; i++ {
		g.AddEdge(fmt.Sprintf("n%d", r.Intn(i)), fmt.Sprintf("n%d", i), secs(0.1+r.Float64()))
	}
	for e := 0; e < nodes*2; e++ {
		a, b := r.Intn(nodes), r.Intn(nodes)
		if a == b {
			continue
		}
		g.AddEdge(fmt.Sprintf("n%d", a), fmt.Sprintf("n%d", b), secs(0.1+r.Float64()))
	}
	return g
}

// TestCoLocationNeverDecreasesCutCost is the monotonicity property of
// constraint addition: welding two nodes together restricts the feasible
// cuts, so the minimum can only stay or grow — never improve.
func TestCoLocationNeverDecreasesCutCost(t *testing.T) {
	t.Parallel()
	r := rand.New(rand.NewSource(7))
	for trial := 0; trial < 60; trial++ {
		nodes := 4 + r.Intn(12)
		g := randomGraph(r, nodes)
		base, err := g.MinCut()
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}

		// Rebuild the identical graph, then add a random co-location.
		welded := randomGraphCopy(g)
		a, b := fmt.Sprintf("n%d", r.Intn(nodes)), fmt.Sprintf("n%d", r.Intn(nodes))
		welded.CoLocate(a, b)
		if welded.Validate() != nil {
			continue // contradictory with the pins; not a feasible constraint
		}
		cut, err := welded.MinCut()
		if err != nil {
			t.Fatalf("trial %d: welded cut: %v", trial, err)
		}
		if cut.Cost < base.Cost {
			t.Fatalf("trial %d: co-locating %s,%s decreased cut cost %v -> %v",
				trial, a, b, base.Cost, cut.Cost)
		}
	}
}

// randomGraphCopy clones nodes, finite edges, and pins of a graph.
func randomGraphCopy(g *Graph) *Graph {
	c := New()
	for i := 0; i < g.Len(); i++ {
		name := g.Name(i)
		c.Node(name)
		if s, ok := g.Pinned(name); ok {
			c.Pin(name, s)
		}
	}
	for i := 0; i < g.Len(); i++ {
		for j := i + 1; j < g.Len(); j++ {
			if w := g.EdgeCost(g.Name(i), g.Name(j)); w > 0 {
				c.AddEdge(g.Name(i), g.Name(j), w)
			}
		}
	}
	return c
}

// TestMultiwayPinnedNodesStayPut: whatever the isolation heuristic does
// with free nodes, every pinned node must land on its own machine.
func TestMultiwayPinnedNodesStayPut(t *testing.T) {
	t.Parallel()
	r := rand.New(rand.NewSource(23))
	machines := []string{"client", "server", "middle"}
	for trial := 0; trial < 40; trial++ {
		nodes := 6 + r.Intn(12)
		g := New()
		for i := 0; i < nodes; i++ {
			g.Node(fmt.Sprintf("n%d", i))
		}
		for i := 1; i < nodes; i++ {
			g.AddEdge(fmt.Sprintf("n%d", r.Intn(i)), fmt.Sprintf("n%d", i), secs(0.1+r.Float64()))
		}
		for e := 0; e < nodes; e++ {
			a, b := r.Intn(nodes), r.Intn(nodes)
			if a != b {
				g.AddEdge(fmt.Sprintf("n%d", a), fmt.Sprintf("n%d", b), secs(0.1+r.Float64()))
			}
		}
		// One distinct pinned node per machine.
		terminals := make([]MultiwayTerminal, len(machines))
		for mi, m := range machines {
			terminals[mi] = MultiwayTerminal{Machine: m, Pinned: []string{fmt.Sprintf("n%d", mi)}}
		}
		assign, _, err := g.MultiwayCut(terminals)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		for mi, m := range machines {
			node := fmt.Sprintf("n%d", mi)
			if got := assign[node]; got != m {
				t.Fatalf("trial %d: pinned node %s assigned to %q, want %q", trial, node, got, m)
			}
		}
		// Every node must be assigned to some known machine.
		for i := 0; i < nodes; i++ {
			m := assign[fmt.Sprintf("n%d", i)]
			known := false
			for _, want := range machines {
				if m == want {
					known = true
				}
			}
			if !known {
				t.Fatalf("trial %d: node n%d assigned to unknown machine %q", trial, i, m)
			}
		}
	}
}
