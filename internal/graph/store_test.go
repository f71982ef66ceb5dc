package graph

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// TestNonFiniteWeightsAtTheDoor: NaN never enters the store (it would
// poison the infinity proxy and with it every capacity), +Inf is the
// pair-wise constraint by another name, and −Inf and 0 are non-positive
// weights like any other — on both entry points.
func TestNonFiniteWeightsAtTheDoor(t *testing.T) {
	t.Parallel()
	for _, tc := range []struct {
		name      string
		w         float64
		addWeight float64 // EdgeWeight(a, b) after AddEdge(a, b, w) on a 2.0 edge
		setWeight float64 // ... after SetEdgeWeight(a, b, w)
		welded    bool
	}{
		{"NaN", math.NaN(), 2, 2, false},
		{"+Inf", math.Inf(1), 2, 2, true},
		{"-Inf", math.Inf(-1), 2, 0, false},
		{"zero", 0, 2, 0, false},
	} {
		for _, set := range []bool{false, true} {
			g := New()
			g.AddEdge("a", "b", 2)
			g.AddEdge("b", "c", 1)
			want := tc.addWeight
			if set {
				g.SetEdgeWeight("a", "b", tc.w)
				want = tc.setWeight
			} else {
				g.AddEdge("a", "b", tc.w)
			}
			if got := g.EdgeWeight("a", "b"); got != want {
				t.Errorf("%s set=%v: weight %v, want %v", tc.name, set, got, want)
			}
			if got := g.CoLocated("a", "b"); got != tc.welded {
				t.Errorf("%s set=%v: co-located %v, want %v", tc.name, set, got, tc.welded)
			}
			if tw, p := g.TotalWeight(), g.infinityProxy(); math.IsNaN(tw) || math.IsInf(tw, 0) || math.IsNaN(p) || math.IsInf(p, 0) {
				t.Errorf("%s set=%v: total %v, proxy %v: not finite", tc.name, set, tw, p)
			}
			g.Pin("a", SourceSide)
			g.Pin("c", SinkSide)
			cut, err := g.MinCut()
			if err != nil {
				t.Fatalf("%s set=%v: %v", tc.name, set, err)
			}
			if cut.Weight != min(want, 1) {
				t.Errorf("%s set=%v: cut weight %v, want %v", tc.name, set, cut.Weight, min(want, 1))
			}
		}
	}
}

// TestStoreSumsBitIdentical: every float sum over the edges walks the
// store in order, so the infinity proxy, the total weight and the multiway
// weight are pure functions of the graph — not of a map's iteration order.
func TestStoreSumsBitIdentical(t *testing.T) {
	t.Parallel()
	g := Synthesize(SynthConfig{Nodes: 5000, Seed: 1})
	// Substituted pins may legally split the generator's welds; the
	// heuristic's weight is what is under test, so cut the relaxed graph.
	relaxed := g.WithoutCoLocations()
	terminals := []MultiwayTerminal{
		{Machine: "client", Pinned: []string{synthName(0)}},
		{Machine: "server", Pinned: []string{synthName(1)}},
		{Machine: "middle", Pinned: []string{synthName(2)}},
	}
	proxy, total := g.infinityProxy(), g.TotalWeight()
	_, multi, err := relaxed.MultiwayCut(terminals)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		if p := g.infinityProxy(); p != proxy {
			t.Fatalf("call %d: infinity proxy %v, first call %v", i, p, proxy)
		}
		if w := g.TotalWeight(); w != total {
			t.Fatalf("call %d: total weight %v, first call %v", i, w, total)
		}
		if _, w, err := relaxed.MultiwayCut(terminals); err != nil || w != multi {
			t.Fatalf("call %d: multiway weight %v (err %v), first call %v", i, w, err, multi)
		}
	}
}

// repriceOnePercent re-prices about 1 % of the edges to between half and
// one and a half times their generator weight.
func repriceOnePercent(g *Graph, rng *rand.Rand, names [][2]string, base []float64) {
	for k := 0; k < max(1, len(names)/100); k++ {
		i := rng.Intn(len(names))
		g.SetEdgeWeight(names[i][0], names[i][1], base[i]*(0.5+rng.Float64()))
	}
}

// TestUnchangedRecutNeverFallsBack: a re-cut of an unchanged graph is
// served from the last solve, always, and never falls back. With the
// proxy summed in map order it drifted by a few ulps between two cuts of
// one graph, every weld and pin arc was re-priced, and some of those
// re-cuts blew the repair budget and ran cold.
func TestUnchangedRecutNeverFallsBack(t *testing.T) {
	t.Parallel()
	for _, nodes := range []int{5000, 10000} {
		t.Run(fmt.Sprint(nodes), func(t *testing.T) {
			t.Parallel()
			ctx := context.Background()
			g := Synthesize(SynthConfig{Nodes: nodes, Seed: 1})
			names := g.EdgeNames()
			base := make([]float64, len(names))
			for i, n := range names {
				base[i] = g.EdgeWeight(n[0], n[1])
			}
			rng := rand.New(rand.NewSource(1))
			a := NewCutArena()
			if _, err := g.MinCutArena(ctx, a); err != nil {
				t.Fatal(err)
			}
			for round := 0; round < 300; round++ {
				repriceOnePercent(g, rng, names, base)
				perturbed, err := g.MinCutArena(ctx, a)
				if err != nil {
					t.Fatal(err)
				}
				before := a.Stats()
				unchanged, err := g.MinCutArena(ctx, a)
				if err != nil {
					t.Fatal(err)
				}
				after := a.Stats()
				if after.Fallbacks != before.Fallbacks || after.Reused != before.Reused+1 ||
					after.Warm+after.Cold+after.Reused != after.Cuts {
					t.Fatalf("round %d: unchanged re-cut went %+v -> %+v, want one more reused cut and no fallback", round, before, after)
				}
				if unchanged.Weight != perturbed.Weight {
					t.Fatalf("round %d: unchanged re-cut weighs %v, the cut before it %v", round, unchanged.Weight, perturbed.Weight)
				}
			}
			if st := a.Stats(); st.Restaged != 1 {
				t.Fatalf("stats %+v: weight-only rounds must not restage", st)
			}
		})
	}
}

// TestArenaMatchesByContent: one arena cutting two distinct Graph values
// of equal topology — what experiments.Adaptive and experiments.Report
// do, each handed a fresh graph from analysis.Analyze per call — rewrites
// capacities for the second instead of restaging.
func TestArenaMatchesByContent(t *testing.T) {
	t.Parallel()
	ctx := context.Background()
	cfg := SynthConfig{Nodes: 2000, Seed: 5}
	first, second := Synthesize(cfg), Synthesize(cfg)
	names := second.EdgeNames()
	base := make([]float64, len(names))
	for i, n := range names {
		base[i] = second.EdgeWeight(n[0], n[1])
	}
	repriceOnePercent(second, rand.New(rand.NewSource(5)), names, base)

	a := NewCutArena()
	if _, err := first.MinCutArena(ctx, a); err != nil {
		t.Fatal(err)
	}
	got, err := second.MinCutArena(ctx, a)
	if err != nil {
		t.Fatal(err)
	}
	want, err := second.MinCut()
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(got.Assignment, want.Assignment) || got.Weight != want.Weight {
		t.Fatal("cut of the second graph through the first graph's arena differs from its one-shot cut")
	}
	if st := a.Stats(); st.Restaged != 1 || st.Warm+st.Fallbacks != 1 {
		t.Fatalf("stats %+v: want 1 restage and the second cut a warm start (or its fallback)", st)
	}
}

// TestStoreOrderAndAccumulation: repeated AddEdge on one pair, however
// interleaved with other pairs, equals the += sequence bit for bit;
// EdgeNames is in (lo, hi) index order after inserts, deletes and
// re-inserts; and a delete forces an arena to restage.
func TestStoreOrderAndAccumulation(t *testing.T) {
	t.Parallel()
	g := New()
	for _, n := range []string{"n0", "n1", "n2", "n3", "n4"} {
		g.Node(n)
	}
	// Chosen so that the sum depends on the order it is taken in.
	ws := []float64{0.1, 1e16, 0.3, 1, 1e-3, 7}
	var want float64
	for i, w := range ws {
		if i%2 == 0 {
			g.AddEdge("n3", "n1", w)
		} else {
			g.AddEdge("n1", "n3", w)
		}
		g.AddEdge("n4", "n0", 1) // other pairs in between, out of order
		g.AddEdge("n2", "n3", 2)
		if i == 2 {
			g.Edges() // settle mid-sequence: the prefix sum must carry over
		}
		want += w
	}
	if got := g.EdgeWeight("n1", "n3"); got != want {
		t.Fatalf("accumulated weight %v, want the += sequence's %v", got, want)
	}

	inOrder := func(step string, want ...[2]string) {
		t.Helper()
		if got := g.EdgeNames(); !slices.Equal(got, want) {
			t.Fatalf("%s: edges %v, want %v", step, got, want)
		}
	}
	inOrder("inserts", [2]string{"n0", "n4"}, [2]string{"n1", "n3"}, [2]string{"n2", "n3"})
	g.SetEdgeWeight("n2", "n0", 5) // insert through SetEdgeWeight
	g.AddEdge("n1", "n0", 3)
	inOrder("more inserts", [2]string{"n0", "n1"}, [2]string{"n0", "n2"}, [2]string{"n0", "n4"}, [2]string{"n1", "n3"}, [2]string{"n2", "n3"})

	g.Pin("n0", SourceSide)
	g.Pin("n3", SinkSide)
	ctx := context.Background()
	a := NewCutArena()
	if _, err := g.MinCutArena(ctx, a); err != nil {
		t.Fatal(err)
	}
	g.SetEdgeWeight("n0", "n2", 6) // existing pair: order undisturbed, no restage
	if _, err := g.MinCutArena(ctx, a); err != nil {
		t.Fatal(err)
	}
	if st := a.Stats(); st.Restaged != 1 {
		t.Fatalf("stats %+v: a re-priced edge must not restage", st)
	}
	g.SetEdgeWeight("n0", "n2", 0) // delete
	inOrder("delete", [2]string{"n0", "n1"}, [2]string{"n0", "n4"}, [2]string{"n1", "n3"}, [2]string{"n2", "n3"})
	if _, err := g.MinCutArena(ctx, a); err != nil {
		t.Fatal(err)
	}
	if st := a.Stats(); st.Restaged != 2 {
		t.Fatalf("stats %+v: a deleted edge must restage", st)
	}
	g.AddEdge("n2", "n0", 4) // re-insert
	inOrder("re-insert", [2]string{"n0", "n1"}, [2]string{"n0", "n2"}, [2]string{"n0", "n4"}, [2]string{"n1", "n3"}, [2]string{"n2", "n3"})
	if got := g.EdgeWeight("n0", "n2"); got != 4 {
		t.Fatalf("re-inserted edge weighs %v, want 4 (the deleted weight must not come back)", got)
	}
}
