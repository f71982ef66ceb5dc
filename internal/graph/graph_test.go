package graph

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
	"time"
)

func TestNodeInterning(t *testing.T) {
	t.Parallel()
	g := New()
	a := g.Node("a")
	if g.Node("a") != a {
		t.Error("re-interning changed index")
	}
	b := g.Node("b")
	if a == b || g.Len() != 2 {
		t.Errorf("indices %d %d len %d", a, b, g.Len())
	}
	if g.Name(a) != "a" || !g.HasNode("b") || g.HasNode("c") {
		t.Error("name/has broken")
	}
}

func TestAddEdgeAccumulates(t *testing.T) {
	t.Parallel()
	g := New()
	g.AddEdge("a", "b", 1500)
	g.AddEdge("b", "a", 2500) // undirected: same edge
	if got := g.EdgeCost("a", "b"); got != 4000 {
		t.Errorf("weight = %v", got)
	}
	if g.Edges() != 1 {
		t.Errorf("edges = %d", g.Edges())
	}
	g.AddEdge("a", "a", 9) // self edge ignored
	g.AddEdge("a", "c", 0) // zero weight ignored
	g.AddEdge("a", "d", -1)
	if tw, err := g.TotalWeight(); g.Edges() != 1 || tw != 4000 || err != nil {
		t.Errorf("after ignored edges: %d edges, weight %v (err %v)", g.Edges(), tw, err)
	}
	if g.EdgeCost("x", "y") != 0 || g.EdgeCost("a", "x") != 0 {
		t.Error("missing edge weight nonzero")
	}
}

func TestPinAndValidate(t *testing.T) {
	t.Parallel()
	g := New()
	g.Pin("gui", SourceSide)
	g.Pin("db", SinkSide)
	if s, ok := g.Pinned("gui"); !ok || s != SourceSide {
		t.Error("pin lost")
	}
	if _, ok := g.Pinned("nothing"); ok {
		t.Error("phantom pin")
	}
	if err := g.Validate(); err != nil {
		t.Errorf("valid graph rejected: %v", err)
	}
	g.CoLocate("gui", "db")
	if err := g.Validate(); err == nil {
		t.Error("contradictory constraints accepted")
	}
}

// simpleCut builds the canonical small example:
//
//	client* --10-- a --1-- b --10-- server*
//
// The minimum cut severs the a-b edge (weight 1).
func simpleCut(t *testing.T, f func(*Graph) (*Cut, error)) *Cut {
	t.Helper()
	g := New()
	g.AddEdge("client", "a", 10)
	g.AddEdge("a", "b", 1)
	g.AddEdge("b", "server", 10)
	g.Pin("client", SourceSide)
	g.Pin("server", SinkSide)
	cut, err := f(g)
	if err != nil {
		t.Fatal(err)
	}
	return cut
}

func TestMinCutSimple(t *testing.T) {
	t.Parallel()
	for name, algo := range map[string]func(*Graph) (*Cut, error){
		"push-relabel": (*Graph).MinCut,
		"edmonds-karp": (*Graph).MinCutEdmondsKarp,
	} {
		cut := simpleCut(t, algo)
		if cut.Cost != 1 {
			t.Errorf("%s: weight = %v, want 1", name, cut.Cost)
		}
		want := map[string]Side{"client": SourceSide, "a": SourceSide, "b": SinkSide, "server": SinkSide}
		for n, s := range want {
			if sideOf(cut, n) != s {
				t.Errorf("%s: %s on %v, want %v", name, n, sideOf(cut, n), s)
			}
		}
		if cut.Count(SourceSide) != 2 || cut.Count(SinkSide) != 2 {
			t.Errorf("%s: counts %d/%d", name, cut.Count(SourceSide), cut.Count(SinkSide))
		}
		srcs := cut.NodesOn(SourceSide)
		if len(srcs) != 2 || srcs[0] != "a" || srcs[1] != "client" {
			t.Errorf("%s: NodesOn = %v", name, srcs)
		}
	}
}

func TestMinCutRespectsCoLocation(t *testing.T) {
	t.Parallel()
	// Without co-location, b is cheap to strand on the server; with
	// co-location b must follow a to the client.
	build := func(colocate bool) *Graph {
		g := New()
		g.Pin("client", SourceSide)
		g.Pin("server", SinkSide)
		g.AddEdge("client", "a", 10)
		g.AddEdge("a", "b", 1)
		g.AddEdge("b", "server", 2)
		if colocate {
			g.CoLocate("a", "b")
		}
		return g
	}
	cut, err := build(false).MinCut()
	if err != nil {
		t.Fatal(err)
	}
	if sideOf(cut, "b") != SinkSide || cut.Cost != 1 {
		t.Errorf("uncolocated: b=%v weight=%v", sideOf(cut, "b"), cut.Cost)
	}
	cut, err = build(true).MinCut()
	if err != nil {
		t.Fatal(err)
	}
	if sideOf(cut, "b") != SourceSide || cut.Cost != 2 {
		t.Errorf("colocated: b=%v weight=%v", sideOf(cut, "b"), cut.Cost)
	}
}

func TestMinCutFreeComponentGoesToClient(t *testing.T) {
	t.Parallel()
	g := New()
	g.Pin("client", SourceSide)
	g.Pin("server", SinkSide)
	g.AddEdge("client", "server", 3)
	g.AddEdge("float1", "float2", 5) // touches no terminal
	g.Node("lonely")                 // no edges at all
	cut, err := g.MinCut()
	if err != nil {
		t.Fatal(err)
	}
	if sideOf(cut, "float1") != SourceSide || sideOf(cut, "float2") != SourceSide {
		t.Error("floating component not on client")
	}
	if sideOf(cut, "lonely") != SourceSide {
		t.Error("isolated node not on client")
	}
	if cut.Cost != 3 {
		t.Errorf("weight = %v", cut.Cost)
	}
}

func TestMinCutUnsatisfiable(t *testing.T) {
	t.Parallel()
	g := New()
	g.Pin("a", SourceSide)
	g.Pin("b", SinkSide)
	g.CoLocate("a", "b")
	if _, err := g.MinCut(); err == nil {
		t.Fatal("unsatisfiable instance cut")
	}
}

func TestEvaluateAssignment(t *testing.T) {
	t.Parallel()
	g := New()
	g.AddEdge("a", "b", 2)
	g.AddEdge("b", "c", 3)
	assign := map[string]Side{"a": SourceSide, "b": SourceSide, "c": SinkSide}
	if got, viol := g.EvaluateAssignmentDetail(assign); got != 3 || viol != 0 {
		t.Errorf("Evaluate = %v, %d violations", got, viol)
	}
	// Missing nodes default to source.
	if got, viol := g.EvaluateAssignmentDetail(map[string]Side{"c": SinkSide}); got != 3 || viol != 0 {
		t.Errorf("Evaluate with defaults = %v, %d violations", got, viol)
	}
}

func TestAllOn(t *testing.T) {
	t.Parallel()
	g := New()
	g.AddEdge("a", "b", 1)
	g.Pin("srv", SinkSide)
	assign := g.AllOn(SourceSide)
	if assign["a"] != SourceSide || assign["b"] != SourceSide || assign["srv"] != SinkSide {
		t.Errorf("AllOn = %v", assign)
	}
}

func TestMinCutOptimalOverBruteForce(t *testing.T) {
	t.Parallel()
	// Exhaustively verify optimality on random small graphs.
	rng := rand.New(rand.NewSource(11))
	names := []string{"n0", "n1", "n2", "n3", "n4", "n5"}
	for trial := 0; trial < 60; trial++ {
		g := New()
		g.Pin("s", SourceSide)
		g.Pin("t", SinkSide)
		all := append([]string{"s", "t"}, names...)
		for i := 0; i < len(all); i++ {
			for j := i + 1; j < len(all); j++ {
				if rng.Intn(3) != 0 {
					g.AddEdge(all[i], all[j], time.Duration(1+rng.Intn(9)))
				}
			}
		}
		cut, err := g.MinCut()
		if err != nil {
			t.Fatal(err)
		}
		// Brute force over free nodes.
		best := time.Duration(math.MaxInt64)
		for mask := 0; mask < 1<<len(names); mask++ {
			assign := map[string]Side{"s": SourceSide, "t": SinkSide}
			for b, n := range names {
				if mask&(1<<b) != 0 {
					assign[n] = SinkSide
				} else {
					assign[n] = SourceSide
				}
			}
			if w, _ := g.EvaluateAssignmentDetail(assign); w < best {
				best = w
			}
		}
		if cut.Cost != best {
			t.Fatalf("trial %d: push-relabel %v vs brute force %v", trial, cut.Cost, best)
		}
		ek, err := g.MinCutEdmondsKarp()
		if err != nil {
			t.Fatal(err)
		}
		if ek.Cost != best {
			t.Fatalf("trial %d: edmonds-karp %v vs brute force %v", trial, ek.Cost, best)
		}
	}
}

func TestPropertyTwoAlgorithmsAgree(t *testing.T) {
	t.Parallel()
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := New()
		g.Pin("s", SourceSide)
		g.Pin("t", SinkSide)
		n := 4 + rng.Intn(12)
		nodes := []string{"s", "t"}
		for i := 0; i < n; i++ {
			nodes = append(nodes, string(rune('a'+i)))
		}
		for i := 0; i < len(nodes); i++ {
			for j := i + 1; j < len(nodes); j++ {
				if rng.Intn(2) == 0 {
					g.AddEdge(nodes[i], nodes[j], secs(rng.Float64()*10))
				}
			}
		}
		a, err := g.MinCut()
		if err != nil {
			return false
		}
		b, err := g.MinCutEdmondsKarp()
		if err != nil {
			return false
		}
		if a.Cost != b.Cost {
			return false
		}
		// The cut's weight equals the evaluation of its own assignment.
		w, viol := g.EvaluateAssignmentDetail(byName(a))
		return w == a.Cost && viol == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

func TestPropertyCutNeverWorseThanDefault(t *testing.T) {
	t.Parallel()
	// Coign never chooses a worse distribution than the default: the
	// minimum cut is at most the cost of the all-on-client assignment.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := New()
		g.Pin("s", SourceSide)
		g.Pin("t", SinkSide)
		for i := 0; i < 10; i++ {
			a := string(rune('a' + rng.Intn(8)))
			b := string(rune('a' + rng.Intn(8)))
			g.AddEdge(a, b, secs(rng.Float64()*5))
			if rng.Intn(4) == 0 {
				g.AddEdge("s", a, secs(rng.Float64()*5))
			}
			if rng.Intn(4) == 0 {
				g.AddEdge(b, "t", secs(rng.Float64()*5))
			}
		}
		cut, err := g.MinCut()
		if err != nil {
			return false
		}
		def, _ := g.EvaluateAssignmentDetail(g.AllOn(SourceSide))
		return cut.Cost <= def
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestLargeGraphPerformanceSanity(t *testing.T) {
	t.Parallel()
	// The paper's largest graphs have a few thousand classifications; the
	// cut must be fast at that scale.
	rng := rand.New(rand.NewSource(5))
	g := New()
	g.Pin("s", SourceSide)
	g.Pin("t", SinkSide)
	const n = 2000
	for i := 0; i < n; i++ {
		name := nodeName(i)
		if i%17 == 0 {
			g.AddEdge("s", name, secs(rng.Float64()*10))
		}
		if i%23 == 0 {
			g.AddEdge(name, "t", secs(rng.Float64()*10))
		}
		for k := 0; k < 3; k++ {
			g.AddEdge(name, nodeName(rng.Intn(n)), secs(rng.Float64()))
		}
	}
	cut, err := g.MinCut()
	if err != nil {
		t.Fatal(err)
	}
	ek, err := g.MinCutEdmondsKarp()
	if err != nil {
		t.Fatal(err)
	}
	if cut.Cost != ek.Cost {
		t.Errorf("large graph: %v vs %v", cut.Cost, ek.Cost)
	}
}

func nodeName(i int) string {
	return "n" + string(rune('A'+i%26)) + string(rune('A'+(i/26)%26)) + string(rune('A'+(i/676)%26)) + string(rune('0'+i%10))
}
